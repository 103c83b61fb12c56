package report_test

import (
	"context"
	"io"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cputime"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/synth"
)

// TestRenderScalesLinearly is the report layer's scaling gate: the full
// listing (call graph profile, flat profile, index) of a synthetic
// program with 2n routines must cost at most 3x that of n routines.
// Linear cost reads 2x; the slack absorbs timer noise and the step in
// per-routine cost where the listing's working set outgrows a core's
// cache, and anything quadratic reads 4x. Each render is timed by its
// thread's CPU clock after a full collection, and the two sizes render
// in back-to-back pairs, alternating which goes first; the gate reads
// the median of the pairs' ratios, so one disturbed pair cannot fail
// it. Wall-clock best times, compared size against size, read above 3x
// for linear code on a 2-CPU host busy with other test binaries: the
// short listing catches a quiet moment that the long one rarely does.
func TestRenderScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate")
	}
	const n, pairs = 10000, 11
	small, large := synthModel(t, n), synthModel(t, 2*n)
	ratios := make([]float64, pairs)
	for i := range ratios {
		var ts, tl time.Duration
		if i%2 == 0 {
			ts, tl = timeRender(t, small), timeRender(t, large)
		} else {
			tl, ts = timeRender(t, large), timeRender(t, small)
		}
		ratios[i] = float64(tl) / float64(ts)
	}
	slices.Sort(ratios)
	ratio := ratios[pairs/2]
	t.Logf("render: n=%d, pair ratios t(2n)/t(n) %.2f, median %.2f", n, ratios, ratio)
	if ratio > 3 {
		t.Errorf("rendering %d routines took a median %.2fx the time for %d, more than 3x", 2*n, ratio, n)
	}
}

func synthModel(t *testing.T, nodes int) *model.Profile {
	t.Helper()
	w := synth.Generate(synth.Tier(nodes, 1))
	res, err := core.Run(context.Background(), core.TableSource{Table: w.Table()}, w.Prof, core.Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Model
}

// timeRender returns the CPU time of one full listing of m, rendered
// inline on the locked calling thread and starting from a collected
// heap, so that no pair's halves differ by where a GC cycle fell.
func timeRender(t *testing.T, m *model.Profile) time.Duration {
	t.Helper()
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := cputime.Thread()
	if err := report.CallGraph(io.Discard, m, report.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := report.Flat(io.Discard, m, report.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := report.IndexListing(io.Discard, m); err != nil {
		t.Fatal(err)
	}
	return cputime.Thread() - start
}

package report_test

import (
	"context"
	"io"
	"testing"

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
// cache, and anything quadratic reads 4x. The renders are timed in
// pairs by cputime.PairRatio, and the gate reads the median pair's
// ratio.
func TestRenderScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate")
	}
	const n = 10000
	small, large := synthModel(t, n), synthModel(t, 2*n)
	ratio, ratios := cputime.PairRatio(func() { render(t, small) }, func() { render(t, large) })
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

// render writes one full listing of m, inline on the calling
// goroutine.
func render(t *testing.T, m *model.Profile) {
	t.Helper()
	if err := report.CallGraph(io.Discard, m, report.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := report.Flat(io.Discard, m, report.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := report.IndexListing(io.Discard, m); err != nil {
		t.Fatal(err)
	}
}

package report_test

import (
	"context"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/synth"
)

// TestRenderScalesLinearly is the report layer's scaling gate: the full
// listing (call graph profile, flat profile, index) of a synthetic
// program with 2n routines must cost at most 3x that of n routines.
// Linear cost reads 2x; the slack absorbs timer noise, and anything
// quadratic reads 4x. The two sizes render alternately and each keeps
// its best time, so a descheduled run or a busy spell of the host
// cannot fail the gate.
func TestRenderScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate")
	}
	const n = 10000
	small, large := synthModel(t, n), synthModel(t, 2*n)
	ts, tl := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 7; i++ {
		ts = min(ts, timeRender(t, small))
		tl = min(tl, timeRender(t, large))
	}
	t.Logf("render: n=%d %v, 2n %v (ratio %.2f)", n, ts, tl, float64(tl)/float64(ts))
	if tl > 3*ts {
		t.Errorf("rendering %d routines took %v, more than 3x the %v for %d", 2*n, tl, ts, n)
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

// timeRender times one full listing of m.
func timeRender(t *testing.T, m *model.Profile) time.Duration {
	t.Helper()
	start := time.Now()
	if err := report.CallGraph(io.Discard, m, report.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := report.Flat(io.Discard, m, report.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := report.IndexListing(io.Discard, m); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

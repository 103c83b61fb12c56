package propagate

import (
	"context"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/cputime"
	"repro/internal/scc"
	"repro/internal/synth"
)

// TestPropagateScalesLinearly is propagation's scaling gate:
// propagating the time of a synthetic program with 2n routines must
// cost at most 3x that of n routines. Linear cost reads 2x; anything
// quadratic reads 4x. The runs are timed in pairs by
// cputime.PairRatio, and the gate reads the median pair's ratio.
func TestPropagateScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate")
	}
	const n = 50000
	ctx := context.Background()
	run := func(nodes int) func() {
		w := synth.Generate(synth.Tier(nodes, 1))
		g, err := callgraph.BuildCtx(ctx, w.Table(), w.Prof, 1)
		if err != nil {
			t.Fatal(err)
		}
		scc.Analyze(g)
		return func() {
			if err := RunCtx(ctx, g, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	ratio, ratios := cputime.PairRatio(run(n), run(2*n))
	t.Logf("propagate: n=%d, pair ratios t(2n)/t(n) %.2f, median %.2f", n, ratios, ratio)
	if ratio > 3 {
		t.Errorf("propagating %d routines took a median %.2fx the time for %d, more than 3x", 2*n, ratio, n)
	}
}

package scc

import (
	"context"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/cputime"
	"repro/internal/synth"
)

// TestSCCScalesLinearly is the component analysis's scaling gate:
// analyzing the call graph of a synthetic program with 2n routines
// must cost at most 3x that of n routines. Linear cost reads 2x;
// anything quadratic reads 4x. The analyses are timed in pairs by
// cputime.PairRatio, and the gate reads the median pair's ratio.
func TestSCCScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate")
	}
	const n = 50000
	analyze := func(nodes int) func() {
		w := synth.Generate(synth.Tier(nodes, 1))
		g, err := callgraph.BuildCtx(context.Background(), w.Table(), w.Prof, 1)
		if err != nil {
			t.Fatal(err)
		}
		return func() { Analyze(g) }
	}
	ratio, ratios := cputime.PairRatio(analyze(n), analyze(2*n))
	t.Logf("scc: n=%d, pair ratios t(2n)/t(n) %.2f, median %.2f", n, ratios, ratio)
	if ratio > 3 {
		t.Errorf("analyzing %d routines took a median %.2fx the time for %d, more than 3x", 2*n, ratio, n)
	}
}

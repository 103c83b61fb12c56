package model_test

import (
	"testing"

	"repro/internal/cputime"
	"repro/internal/model"
	"repro/internal/synth"
)

// TestModelBuildScalesLinearly is the model layer's scaling gate:
// condensing the analyzed call graph of a synthetic program with 2n
// routines into a profile must cost at most 3x that of n routines.
// Linear cost reads 2x. The listing and flat orders are radix sorts
// over the symbol table's name order, linear in the routines, and
// only the cycles' few names are compared; anything quadratic reads
// 4x. The builds are timed in pairs by
// cputime.PairRatio, and the gate reads the median pair's ratio.
func TestModelBuildScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate")
	}
	const n = 50000
	build := func(nodes int) func() {
		w := synth.Generate(synth.Tier(nodes, 1))
		g := stages(t, w)
		return func() { model.Build(g) }
	}
	ratio, ratios := cputime.PairRatio(build(n), build(2*n))
	t.Logf("model.Build: n=%d, pair ratios t(2n)/t(n) %.2f, median %.2f", n, ratios, ratio)
	if ratio > 3 {
		t.Errorf("building the model of %d routines took a median %.2fx the time for %d, more than 3x", 2*n, ratio, n)
	}
}

package scc

import (
	"testing"

	"repro/internal/callgraph"
)

// TestReanalyzeAllocs pins the allocation-light re-analysis contract:
// cyclebreak re-runs AnalyzeWithout after masking each arc it picks, so
// steady-state runs must reuse the pooled scratch and allocate only the
// closure and whatever cycles the graph actually has — never O(nodes)
// or O(arcs).
func TestReanalyzeAllocs(t *testing.T) {
	// ~2000 nodes: a wide layered DAG with one 4-member cycle, big
	// enough that any per-node or per-arc allocation shows up as
	// hundreds of allocs per run.
	var b callgraph.Builder
	const layers, width = 20, 100
	name := func(l, i int) string { return "f" + itoa(l*width+i) }
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			b.Node(name(l, i))
		}
	}
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			b.Arc(name(l, i), name(l+1, i), 1)
			b.Arc(name(l, i), name(l+1, (i+7)%width), 2)
		}
	}
	// One genuine cycle across the last layer, and a second one that
	// the mask breaks.
	b.Arc(name(layers-1, 0), name(layers-1, 1), 1)
	b.Arc(name(layers-1, 1), name(layers-1, 2), 1)
	b.Arc(name(layers-1, 2), name(layers-1, 3), 1)
	b.Arc(name(layers-1, 3), name(layers-1, 0), 1)
	b.Arc(name(layers-1, 9), name(layers-1, 8), 5)
	b.Arc(name(layers-1, 8), name(layers-1, 9), 5)
	g := b.Graph()
	removed := make([]bool, g.NumArcs())
	for _, a := range g.In(int32((layers-1)*width + 9)) {
		removed[a] = g.Caller[a] == int32((layers-1)*width+8)
	}

	AnalyzeWithout(g, removed) // warm the scratch pool
	if len(g.Cycles) != 1 || len(g.Cycles[0].Members) != 4 {
		t.Fatalf("expected one 4-member cycle, got %v", g.Cycles)
	}

	allocs := testing.AllocsPerRun(20, func() { AnalyzeWithout(g, removed) })
	// Expected per run: the visit closure, the one cycle's member
	// slice growth, the Cycle value, and the g.Cycles append — well
	// under 16; hundreds means scratch reuse broke.
	if allocs > 16 {
		t.Fatalf("Analyze allocates %.0f objects per re-run; want <= 16", allocs)
	}
}

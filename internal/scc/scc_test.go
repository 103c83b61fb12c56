package scc

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/callgraph"
)

// build constructs a graph from arc pairs.
func build(arcs [][2]string) *callgraph.Graph { return builder(arcs).Graph() }

// builder collects arc pairs for a graph.
func builder(arcs [][2]string) *callgraph.Builder {
	var b callgraph.Builder
	for _, a := range arcs {
		b.Arc(a[0], a[1], 1)
	}
	return &b
}

// node returns the named node's number, or panics.
func node(g *callgraph.Graph, name string) int32 {
	v := slices.Index(g.Names, name)
	if v < 0 {
		panic("scc: no node " + name)
	}
	return int32(v)
}

// checkTopoInvariant verifies the paper's Figure 1/3 property: every arc
// that is neither self-recursive nor internal to a cycle goes from a
// higher topological number to a lower one.
func checkTopoInvariant(t *testing.T, g *callgraph.Graph) {
	t.Helper()
	for _, a := range g.Arcs() {
		f, c := g.Caller[a], g.Callee[a]
		if f < 0 || g.IsSelf(a) || g.IntraCycle(a) {
			continue
		}
		if g.TopoNum[f] <= g.TopoNum[c] {
			t.Errorf("arc %s->%s: caller topo %d <= callee topo %d",
				g.Names[f], g.Names[c], g.TopoNum[f], g.TopoNum[c])
		}
	}
	for v, n := range g.TopoNum {
		if n == 0 {
			t.Errorf("node %s not numbered", g.Names[v])
		}
	}
}

func TestChainTopo(t *testing.T) {
	g := build([][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}})
	Analyze(g)
	checkTopoInvariant(t, g)
	if len(g.Cycles) != 0 {
		t.Errorf("chain produced %d cycles", len(g.Cycles))
	}
	// d is the leaf: lowest number; a the root: highest.
	if g.TopoNum[node(g, "d")] != 1 || g.TopoNum[node(g, "a")] != 4 {
		t.Errorf("topo numbers: a=%d d=%d, want 4 and 1",
			g.TopoNum[node(g, "a")], g.TopoNum[node(g, "d")])
	}
}

func TestDiamond(t *testing.T) {
	g := build([][2]string{{"r", "x"}, {"r", "y"}, {"x", "l"}, {"y", "l"}})
	Analyze(g)
	checkTopoInvariant(t, g)
	if len(g.Cycles) != 0 {
		t.Error("diamond is acyclic; got cycles")
	}
}

func TestSelfLoopIsNotACycle(t *testing.T) {
	// A self-recursive routine is a "trivial cycle" that must NOT be
	// collapsed (§4: its self-arcs are simply excluded from propagation).
	g := build([][2]string{{"main", "fact"}, {"fact", "fact"}})
	Analyze(g)
	checkTopoInvariant(t, g)
	if len(g.Cycles) != 0 {
		t.Errorf("self-loop collapsed into a cycle: %+v", g.Cycles)
	}
	if g.CycleNum[node(g, "fact")] != 0 {
		t.Error("self-recursive node marked as cycle member")
	}
}

func TestMutualRecursion(t *testing.T) {
	// Figures 2-3: two mutually recursive routines collapse into one
	// cycle; the condensed graph is then topologically numbered.
	g := build([][2]string{
		{"main", "p"}, {"p", "q"}, {"q", "p"}, {"q", "leaf"},
	})
	Analyze(g)
	checkTopoInvariant(t, g)
	if len(g.Cycles) != 1 {
		t.Fatalf("cycles = %d, want 1", len(g.Cycles))
	}
	c := g.Cycles[0]
	if len(c.Members) != 2 {
		t.Fatalf("cycle members = %d, want 2 (p, q)", len(c.Members))
	}
	if g.CycleNum[node(g, "p")] == 0 || g.CycleNum[node(g, "q")] == 0 {
		t.Error("p or q not marked in-cycle")
	}
	if g.CycleNum[node(g, "p")] != g.CycleNum[node(g, "q")] {
		t.Error("p and q in different cycles")
	}
	if g.CycleNum[node(g, "main")] != 0 || g.CycleNum[node(g, "leaf")] != 0 {
		t.Error("main or leaf wrongly in a cycle")
	}
	// Members share a topological number; main above, leaf below.
	if g.TopoNum[node(g, "p")] != g.TopoNum[node(g, "q")] {
		t.Error("cycle members have different topo numbers")
	}
	if !(g.TopoNum[node(g, "main")] > g.TopoNum[node(g, "p")]) {
		t.Error("main not above the cycle")
	}
	if !(g.TopoNum[node(g, "p")] > g.TopoNum[node(g, "leaf")]) {
		t.Error("cycle not above leaf")
	}
	if c.Number != 1 {
		t.Errorf("cycle number = %d, want 1", c.Number)
	}
}

func TestThreeNodeCycleWithTail(t *testing.T) {
	g := build([][2]string{
		{"a", "b"}, {"b", "c"}, {"c", "a"}, // 3-cycle
		{"c", "d"}, {"d", "e"}, // tail
		{"root", "a"},
	})
	Analyze(g)
	checkTopoInvariant(t, g)
	if len(g.Cycles) != 1 || len(g.Cycles[0].Members) != 3 {
		t.Fatalf("cycles = %+v, want one 3-member", g.Cycles)
	}
}

func TestTwoDisjointCycles(t *testing.T) {
	g := build([][2]string{
		{"a", "b"}, {"b", "a"},
		{"x", "y"}, {"y", "x"},
		{"main", "a"}, {"main", "x"},
	})
	Analyze(g)
	checkTopoInvariant(t, g)
	if len(g.Cycles) != 2 {
		t.Fatalf("cycles = %d, want 2", len(g.Cycles))
	}
	if g.Cycles[0].Number != 1 || g.Cycles[1].Number != 2 {
		t.Errorf("cycle numbers = %d,%d", g.Cycles[0].Number, g.Cycles[1].Number)
	}
	if g.CycleNum[node(g, "a")] == g.CycleNum[node(g, "x")] {
		t.Error("disjoint cycles merged")
	}
}

func TestNestedCyclesMergeIntoOne(t *testing.T) {
	// a->b->a and b->c->b overlap in b: one SCC {a,b,c}.
	g := build([][2]string{
		{"a", "b"}, {"b", "a"}, {"b", "c"}, {"c", "b"},
	})
	Analyze(g)
	if len(g.Cycles) != 1 || len(g.Cycles[0].Members) != 3 {
		t.Fatalf("cycles = %+v, want one with 3 members", g.Cycles)
	}
}

func TestStaticArcCompletesCycle(t *testing.T) {
	// Dynamic arcs a->b->c; a static (count 0) arc c->a completes the
	// cycle — the reason static construction precedes ordering (§4).
	b := builder([][2]string{{"a", "b"}, {"b", "c"}})
	b.Static("c", "a")
	g := b.Graph()
	Analyze(g)
	if len(g.Cycles) != 1 || len(g.Cycles[0].Members) != 3 {
		t.Fatalf("static arc did not complete the cycle: %+v", g.Cycles)
	}
}

func TestReanalyzeAfterArcRemoval(t *testing.T) {
	g := build([][2]string{{"a", "b"}, {"b", "a"}, {"main", "a"}})
	Analyze(g)
	if len(g.Cycles) != 1 {
		t.Fatalf("want 1 cycle, got %d", len(g.Cycles))
	}
	removed := make([]bool, g.NumArcs())
	for a := range removed {
		removed[a] = g.Caller[a] == node(g, "b") && g.Callee[a] == node(g, "a")
	}
	AnalyzeWithout(g, removed)
	if len(g.Cycles) != 0 {
		t.Errorf("cycle persists after masking its closing arc")
	}
	if g.CycleNum[node(g, "a")] != 0 || g.CycleNum[node(g, "b")] != 0 {
		t.Error("stale cycle membership after re-analysis")
	}

	// The graph built without the arc analyzes the same way.
	b := builder([][2]string{{"a", "b"}, {"b", "a"}, {"main", "a"}})
	b.Remove("b", "a")
	h := b.Graph()
	Analyze(h)
	checkTopoInvariant(t, h)
	if len(h.Cycles) != 0 || !slices.Equal(h.TopoNum, g.TopoNum) {
		t.Errorf("built without b/a: %d cycles, topo %v; masked: topo %v", len(h.Cycles), h.TopoNum, g.TopoNum)
	}
}

func TestSpontaneousArcsIgnored(t *testing.T) {
	var b callgraph.Builder
	b.Arc("", "handler", 3) // spontaneous
	b.Arc("main", "handler", 1)
	g := b.Graph()
	Analyze(g)
	checkTopoInvariant(t, g)
}

func TestTopoOrder(t *testing.T) {
	g := build([][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}})
	Analyze(g)
	order := TopoOrder(g)
	pos := map[string]int{}
	for i, n := range order {
		pos[g.Names[n]] = i
	}
	if !(pos["c"] < pos["b"] && pos["b"] < pos["a"]) {
		t.Errorf("TopoOrder = %v, want callees first", pos)
	}
}

// randomGraph builds a random digraph over n nodes with edge probability
// p, using single-letter-ish names.
func randomGraph(rng *rand.Rand, n int, p float64) *callgraph.Graph {
	var b callgraph.Builder
	names := make([]string, n)
	for i := range names {
		names[i] = "n" + string(rune('A'+i%26)) + string(rune('0'+i/26))
		b.Node(names[i])
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				b.Arc(names[i], names[j], int64(rng.Intn(5)+1))
			}
		}
	}
	return b.Graph()
}

// reaches reports whether from reaches to using only nodes in members.
func reaches(g *callgraph.Graph, from, to int32, members map[int32]bool) bool {
	seen := map[int32]bool{from: true}
	queue := []int32{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == to {
			return true
		}
		for _, a := range g.Out(n) {
			c := g.Callee[a]
			if !members[c] || seen[c] {
				continue
			}
			seen[c] = true
			queue = append(queue, c)
		}
	}
	return false
}

func TestRandomGraphProperties(t *testing.T) {
	f := func(seed int64, nRaw, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%30) + 2
		p := float64(pRaw%40)/100 + 0.02
		g := randomGraph(rng, n, p)
		Analyze(g)

		// (1) topological invariant
		for _, a := range g.Arcs() {
			if g.IsSelf(a) || g.IntraCycle(a) || g.Caller[a] < 0 {
				continue
			}
			if g.TopoNum[g.Caller[a]] <= g.TopoNum[g.Callee[a]] {
				return false
			}
		}
		// (2) cycles are strongly connected within their member set
		for _, c := range g.Cycles {
			members := map[int32]bool{}
			for _, m := range c.Members {
				members[m] = true
			}
			for _, u := range c.Members {
				for _, v := range c.Members {
					if u != v && !reaches(g, u, v, members) {
						return false
					}
				}
			}
		}
		// (3) maximality: any 2-cycle u<->v implies same component
		for _, a := range g.Arcs() {
			if g.IsSelf(a) || g.Caller[a] < 0 {
				continue
			}
			for _, back := range g.Out(g.Callee[a]) {
				if g.Callee[back] == g.Caller[a] && !g.IntraCycle(a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestLargeGraphIterativeTarjan(t *testing.T) {
	// A long chain would blow the stack under a recursive Tarjan; the
	// iterative version must handle it.
	var b callgraph.Builder
	const n = 50000
	prev := "f0"
	b.Node(prev)
	for i := 1; i < n; i++ {
		name := "f" + itoa(i)
		b.Arc(prev, name, 1)
		prev = name
	}
	g := b.Graph()
	Analyze(g)
	if g.TopoNum[node(g, "f0")] != n {
		t.Errorf("root topo = %d, want %d", g.TopoNum[node(g, "f0")], n)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

package callgraph

import (
	"context"
	"slices"
	"testing"

	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/symtab"
)

// node returns the named node's number, or panics.
func node(g *Graph, name string) int32 {
	v := slices.Index(g.Names, name)
	if v < 0 {
		panic("callgraph: no node " + name)
	}
	return int32(v)
}

func TestAddNodeIdempotent(t *testing.T) {
	var b Builder
	x := b.Node("f")
	y := b.Node("f")
	if x != y {
		t.Error("Node created a duplicate")
	}
	if g := b.Graph(); g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestAddArcMerges(t *testing.T) {
	var b Builder
	b.Arc("x", "y", 3)
	b.Arc("x", "y", 4)
	g := b.Graph()
	if g.NumArcs() != 1 {
		t.Fatal("same-pair arcs not merged")
	}
	if g.Count[0] != 7 || g.Sites[0] != 2 {
		t.Errorf("arc = count %d sites %d, want 7/2", g.Count[0], g.Sites[0])
	}
	if len(g.In(node(g, "y"))) != 1 || len(g.Out(node(g, "x"))) != 1 {
		t.Error("duplicate arc entries in adjacency lists")
	}
}

// TestBuilderOrders pins the orders AddArc had, which the listing's
// tie-breaks and the figures depend on: nodes numbered callee before
// caller as names first appear, arcs grouped by callee in the order
// their pairs were first given, and each caller's row in that order.
func TestBuilderOrders(t *testing.T) {
	var b Builder
	b.Arc("m", "q", 1)
	b.Node("lone")
	b.Arc("m", "p", 1)
	b.Arc("", "p", 1)
	b.Arc("p", "q", 1)
	b.Arc("m", "q", 1)
	g := b.Graph()
	if want := []string{"q", "m", "lone", "p"}; !slices.Equal(g.Names, want) {
		t.Errorf("nodes %q, want %q", g.Names, want)
	}
	var arcs []string
	for a := range int32(g.NumArcs()) {
		from := "-"
		if g.Caller[a] >= 0 {
			from = g.Names[g.Caller[a]]
		}
		arcs = append(arcs, from+">"+g.Names[g.Callee[a]])
	}
	if want := []string{"m>q", "p>q", "m>p", "->p"}; !slices.Equal(arcs, want) {
		t.Errorf("arcs %q, want %q", arcs, want)
	}
	if out := g.Out(node(g, "m")); !slices.Equal(out, []int32{0, 2}) {
		t.Errorf("m's row %v, want [0 2]", out)
	}
}

func TestCallsAndSelfCalls(t *testing.T) {
	var b Builder
	b.Arc("a", "f", 4)
	b.Arc("b", "f", 6)
	b.Arc("f", "f", 5)
	b.Arc("", "f", 2) // spontaneous counts as a call
	g := b.Graph()
	f := node(g, "f")
	if g.Calls(f) != 12 {
		t.Errorf("Calls = %d, want 12", g.Calls(f))
	}
	if g.SelfCalls(f) != 5 {
		t.Errorf("SelfCalls = %d, want 5", g.SelfCalls(f))
	}
}

func TestSpontaneousTracking(t *testing.T) {
	var b Builder
	b.Arc("", "h", 1)
	g := b.Graph()
	if g.NumArcs() != 1 || g.Caller[0] != -1 {
		t.Error("arc not spontaneous")
	}
	if sp := g.Spontaneous(); len(sp) != 1 || sp[0] != 0 {
		t.Error("Spontaneous list wrong")
	}
	if len(g.In(node(g, "h"))) != 1 {
		t.Error("spontaneous arc missing from the callee's in-list")
	}
}

func TestArcsSorted(t *testing.T) {
	var b Builder
	b.Arc("z", "a", 1)
	b.Arc("a", "z", 1)
	b.Arc("a", "b", 1)
	b.Arc("", "b", 1)
	g := b.Graph()
	arcs := g.Arcs()
	if len(arcs) != 4 {
		t.Fatalf("arcs = %d", len(arcs))
	}
	// Spontaneous ("" caller) first, then a->b, a->z, z->a.
	if g.Caller[arcs[0]] != -1 {
		t.Error("spontaneous not first")
	}
	if g.Names[g.Callee[arcs[1]]] != "b" || g.Names[g.Callee[arcs[2]]] != "z" || g.Names[g.Caller[arcs[3]]] != "z" {
		t.Errorf("order wrong: %v %v %v", arcs[1], arcs[2], arcs[3])
	}
}

// TestRemoveArc checks the removal set: a named pair's arc is left
// out and counts once however often it is named, and a pair with an
// unknown endpoint or a spontaneous caller removes nothing.
func TestRemoveArc(t *testing.T) {
	var b Builder
	b.Arc("a", "b", 1)
	b.Arc("a", "c", 1)
	b.Arc("", "c", 1)
	b.Remove("a", "b")
	b.Remove("a", "b")
	b.Remove("a", "nosuch")
	b.Remove("ghost", "b")
	b.Remove("", "c")
	g := b.Graph()
	if g.Removed != 1 {
		t.Errorf("Removed = %d, want 1", g.Removed)
	}
	if len(g.Out(node(g, "a"))) != 1 || len(g.In(node(g, "b"))) != 0 || len(g.Spontaneous()) != 1 {
		t.Error("adjacency lists not updated")
	}
}

// TestNumArcsAfterRemove checks that NumArcs counts the arcs left: a
// removal, as -k and the cycle-breaking heuristic make, lowers it by
// one.
func TestNumArcsAfterRemove(t *testing.T) {
	tab, p := buildTestProfile()
	g, err := build(tab, p)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumArcs() != 2 {
		t.Fatalf("NumArcs = %d, want 2", g.NumArcs())
	}
	g, err = BuildWith(context.Background(), tab, p, nil, []ArcID{{Caller: "main", Callee: "leaf"}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumArcs() != 1 || g.Removed != 1 {
		t.Errorf("NumArcs after removal = %d, Removed %d, want 1 and 1", g.NumArcs(), g.Removed)
	}
	var b Builder
	b.Arc("a", "b", 1)
	b.Arc("a", "c", 1)
	b.Arc("a", "b", 1)
	if h := b.Graph(); h.NumArcs() != 2 || len(h.Arcs()) != 2 {
		t.Errorf("hand-built: NumArcs = %d, Arcs = %d, want 2", h.NumArcs(), len(h.Arcs()))
	}
	b.Remove("a", "c")
	b.Remove("a", "c")
	if h := b.Graph(); h.NumArcs() != 1 || h.Removed != 1 {
		t.Errorf("hand-built after removal: NumArcs = %d, Removed %d, want 1 and 1", h.NumArcs(), h.Removed)
	}
}

func buildTestProfile() (*symtab.Table, *gmon.Profile) {
	tab := symtab.FromSyms([]object.Sym{
		{Name: "main", Addr: 100, Size: 10},
		{Name: "leaf", Addr: 110, Size: 10},
		{Name: "cold", Addr: 120, Size: 10},
	})
	p := &gmon.Profile{
		Hist: gmon.Histogram{Low: 100, High: 130, Step: 1, Counts: make([]uint32, 30)},
		Hz:   60,
	}
	p.Hist.Counts[5] = 10  // main
	p.Hist.Counts[15] = 30 // leaf
	p.Arcs = []gmon.Arc{
		{FromPC: 103, SelfPC: 110, Count: 7}, // main -> leaf (site 1)
		{FromPC: 104, SelfPC: 110, Count: 3}, // main -> leaf (site 2)
		{FromPC: gmon.SpontaneousPC, SelfPC: 100, Count: 1},
	}
	return tab, p
}

func TestBuild(t *testing.T) {
	tab, p := buildTestProfile()
	g, err := build(tab, p)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Errorf("nodes = %d, want 3 (cold included)", g.Len())
	}
	if g.Hertz() != 60 {
		t.Errorf("Hz = %d", g.Hertz())
	}
	leaf := node(g, "leaf")
	if g.SelfTicks[leaf] != 30 {
		t.Errorf("leaf self = %v", g.SelfTicks[leaf])
	}
	// Two call sites merged into one arc with count 10.
	if in := g.In(leaf); len(in) != 1 || g.Count[in[0]] != 10 || g.Sites[in[0]] != 2 {
		t.Errorf("leaf's in-list = %v", in)
	}
	main := node(g, "main")
	if g.Calls(main) != 1 { // the spontaneous arc
		t.Errorf("main calls = %d", g.Calls(main))
	}
	if g.TotalTicks != 40 || g.LostTicks != 0 {
		t.Errorf("ticks = %v lost %v", g.TotalTicks, g.LostTicks)
	}
}

func TestBuildRejectsUnknownCallee(t *testing.T) {
	tab, p := buildTestProfile()
	p.Arcs = append(p.Arcs, gmon.Arc{FromPC: 100, SelfPC: 999, Count: 1})
	if _, err := build(tab, p); err == nil {
		t.Error("arc with unknown callee accepted")
	}
}

func TestBuildUnknownCallSiteIsSpontaneous(t *testing.T) {
	tab, p := buildTestProfile()
	p.Arcs = append(p.Arcs, gmon.Arc{FromPC: 999, SelfPC: 110, Count: 2})
	g, err := build(tab, p)
	if err != nil {
		t.Fatal(err)
	}
	var spont int64
	for _, a := range g.In(node(g, "leaf")) {
		if g.Caller[a] < 0 {
			spont += g.Count[a]
		}
	}
	if spont != 2 {
		t.Errorf("spontaneous into leaf = %d, want 2", spont)
	}
}

func TestAddStatic(t *testing.T) {
	tab, p := buildTestProfile()
	static := []object.StaticArc{
		{Caller: "main", Callee: "leaf", Site: 103}, // exists dynamically: no-op
		{Caller: "main", Callee: "cold", Site: 105}, // new: count 0, static
		{Caller: "main", Callee: "cold", Site: 106}, // repeated: still one arc
	}
	g, err := BuildWith(context.Background(), tab, p, static, nil)
	if err != nil {
		t.Fatal(err)
	}
	leaf := g.In(node(g, "leaf"))
	if len(leaf) != 1 || g.Static[leaf[0]] || g.Sites[leaf[0]] != 2 {
		t.Error("existing dynamic arc was disturbed")
	}
	cold := g.In(node(g, "cold"))
	if len(cold) != 1 || !g.Static[cold[0]] || g.Count[cold[0]] != 0 || g.Sites[cold[0]] != 1 {
		t.Errorf("static arc wrong: %v", cold)
	}
	if got := g.NameOrder(); !slices.Equal(got, tab.NameOrder()) {
		t.Errorf("built graph's name order %v, table's %v", got, tab.NameOrder())
	}

	// A removal takes a static arc out like any other.
	g, err = BuildWith(context.Background(), tab, p, static, []ArcID{{Caller: "main", Callee: "cold"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.In(node(g, "cold"))) != 0 || g.Removed != 1 {
		t.Errorf("removed static arc: in-list %v, Removed %d", g.In(node(g, "cold")), g.Removed)
	}

	// A static arc into a routine the table lacks is rejected: the
	// graph's nodes are the table's.
	if _, err := BuildWith(context.Background(), tab, p, []object.StaticArc{{Caller: "main", Callee: "aardvark"}}, nil); err == nil {
		t.Error("static arc into an unknown routine accepted")
	}
}

func TestCycleAccessors(t *testing.T) {
	var b Builder
	b.Arc("out", "p", 2)
	b.Arc("p", "q", 5)
	b.Arc("q", "p", 4)
	b.Arc("p", "p", 3)
	g := b.Graph()
	p, q := node(g, "p"), node(g, "q")
	g.Cycles = []Cycle{{Number: 1, Members: []int32{p, q}}}
	g.CycleNum[p], g.CycleNum[q] = 1, 1
	g.SelfTicks[p], g.SelfTicks[q] = 10, 20
	c := &g.Cycles[0]
	if c.SelfTicks(g) != 30 {
		t.Errorf("cycle self = %v", c.SelfTicks(g))
	}
	if c.ExternalCalls(g) != 2 {
		t.Errorf("external = %d", c.ExternalCalls(g))
	}
	if c.InternalCalls(g) != 9 {
		t.Errorf("internal = %d, want 9 (self-arcs excluded)", c.InternalCalls(g))
	}
}

func TestIntraCycleSelfArcDistinction(t *testing.T) {
	var b Builder
	b.Arc("p", "q", 1)
	b.Arc("q", "p", 1)
	b.Arc("p", "p", 1)
	g := b.Graph()
	p, q := node(g, "p"), node(g, "q")
	g.CycleNum[p], g.CycleNum[q] = 1, 1
	for _, a := range g.Arcs() {
		switch {
		case g.IsSelf(a):
			if !g.IntraCycle(a) {
				// A self-arc inside a cycle is also intra-cycle; both
				// exclusions apply independently.
				t.Error("self-arc in cycle not intra-cycle")
			}
			if slices.Contains(g.In(p), a) || slices.Contains(g.Out(p), a) {
				t.Error("self-arc in an adjacency list")
			}
		case g.Caller[a] == p && g.Callee[a] == q:
			if !g.IntraCycle(a) {
				t.Error("p->q not intra-cycle")
			}
		}
	}
}

func TestHertzDefault(t *testing.T) {
	var b Builder
	if g := b.Graph(); g.Hertz() != gmon.DefaultHz {
		t.Errorf("default Hz = %d", g.Hertz())
	}
}

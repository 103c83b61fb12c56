package callgraph

import (
	"slices"
	"testing"

	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/symtab"
)

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	a := g.AddNode("f")
	b := g.AddNode("f")
	if a != b {
		t.Error("AddNode created a duplicate")
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestAddArcMerges(t *testing.T) {
	g := New()
	a1 := g.AddArc("x", "y", 3)
	a2 := g.AddArc("x", "y", 4)
	if a1 != a2 {
		t.Fatal("same-pair arcs not merged")
	}
	if g.Count[a1] != 7 || g.Sites[a1] != 2 {
		t.Errorf("arc = count %d sites %d, want 7/2", g.Count[a1], g.Sites[a1])
	}
	if len(g.In(g.MustNode("y"))) != 1 || len(g.Out(g.MustNode("x"))) != 1 {
		t.Error("duplicate arc entries in adjacency lists")
	}
}

func TestCallsAndSelfCalls(t *testing.T) {
	g := New()
	g.AddArc("a", "f", 4)
	g.AddArc("b", "f", 6)
	g.AddArc("f", "f", 5)
	g.AddArc("", "f", 2) // spontaneous counts as a call
	f := g.MustNode("f")
	if g.Calls(f) != 12 {
		t.Errorf("Calls = %d, want 12", g.Calls(f))
	}
	if g.SelfCalls(f) != 5 {
		t.Errorf("SelfCalls = %d, want 5", g.SelfCalls(f))
	}
}

func TestSpontaneousTracking(t *testing.T) {
	g := New()
	a := g.AddArc("", "h", 1)
	if g.Caller[a] != -1 {
		t.Error("arc not spontaneous")
	}
	if sp := g.Spontaneous(); len(sp) != 1 || sp[0] != a {
		t.Error("Spontaneous list wrong")
	}
	if len(g.In(g.MustNode("h"))) != 1 {
		t.Error("spontaneous arc missing from the callee's in-list")
	}
}

func TestArcsSorted(t *testing.T) {
	g := New()
	g.AddArc("z", "a", 1)
	g.AddArc("a", "z", 1)
	g.AddArc("a", "b", 1)
	g.AddArc("", "b", 1)
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

func TestRemoveArc(t *testing.T) {
	g := New()
	g.AddArc("a", "b", 1)
	g.AddArc("a", "c", 1)
	if !g.RemoveArc("a", "b") {
		t.Fatal("RemoveArc failed")
	}
	if g.RemoveArc("a", "b") {
		t.Error("second removal succeeded")
	}
	if g.RemoveArc("a", "nosuch") || g.RemoveArc("ghost", "b") {
		t.Error("removal with unknown endpoint succeeded")
	}
	if len(g.Out(g.MustNode("a"))) != 1 || len(g.In(g.MustNode("b"))) != 0 {
		t.Error("adjacency lists not updated")
	}
}

// TestNumArcsAfterRemove checks that NumArcs counts live arcs: removing
// one, as -k and the cycle-breaking heuristic do, lowers it by one.
func TestNumArcsAfterRemove(t *testing.T) {
	tab, p := buildTestProfile()
	g, err := build(tab, p)
	if err != nil {
		t.Fatal(err)
	}
	if g.nodes != nil || g.arcIdx != nil {
		t.Error("Build built the name-keyed indices")
	}
	if g.NumArcs() != 2 {
		t.Fatalf("NumArcs = %d, want 2", g.NumArcs())
	}
	if !g.RemoveArc("main", "leaf") {
		t.Fatal("RemoveArc failed")
	}
	if g.NumArcs() != 1 {
		t.Errorf("NumArcs after removal = %d, want 1", g.NumArcs())
	}
	h := New()
	h.AddArc("a", "b", 1)
	h.AddArc("a", "c", 1)
	h.AddArc("a", "b", 1)
	h.RemoveArc("a", "c")
	h.RemoveArc("a", "c")
	if h.NumArcs() != 1 {
		t.Errorf("hand-built NumArcs = %d, want 1", h.NumArcs())
	}
	h.AddArc("a", "c", 1)
	if h.NumArcs() != 2 || len(h.Arcs()) != 2 {
		t.Errorf("after re-adding: NumArcs = %d, Arcs = %d, want 2", h.NumArcs(), len(h.Arcs()))
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
	leaf := g.MustNode("leaf")
	if g.SelfTicks[leaf] != 30 {
		t.Errorf("leaf self = %v", g.SelfTicks[leaf])
	}
	// Two call sites merged into one arc with count 10.
	if in := g.In(leaf); len(in) != 1 || g.Count[in[0]] != 10 || g.Sites[in[0]] != 2 {
		t.Errorf("leaf's in-list = %v", in)
	}
	main := g.MustNode("main")
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
	for _, a := range g.In(g.MustNode("leaf")) {
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
	g, err := build(tab, p)
	if err != nil {
		t.Fatal(err)
	}
	g.AddStatic([]object.StaticArc{
		{Caller: "main", Callee: "leaf", Site: 103}, // exists dynamically: no-op
		{Caller: "main", Callee: "cold", Site: 105}, // new: count 0, static
	})
	leaf := g.In(g.MustNode("leaf"))
	if len(leaf) != 1 || g.Static[leaf[0]] {
		t.Error("existing dynamic arc was disturbed")
	}
	cold := g.In(g.MustNode("cold"))
	if len(cold) != 1 || !g.Static[cold[0]] || g.Count[cold[0]] != 0 {
		t.Errorf("static arc wrong: %v", cold)
	}

	// A static arc into a routine the table lacks adds a node, and the
	// graph's name order, the table's until then, takes it in.
	if got := g.NameOrder(); !slices.Equal(got, tab.NameOrder()) {
		t.Errorf("built graph's name order %v, table's %v", got, tab.NameOrder())
	}
	g.AddStatic([]object.StaticArc{{Caller: "main", Callee: "aardvark", Site: 105}})
	var names []string
	for _, id := range g.NameOrder() {
		names = append(names, g.Names[id])
	}
	if want := []string{"aardvark", "cold", "leaf", "main"}; !slices.Equal(names, want) {
		t.Errorf("name order after a static arc added a node: %q, want %q", names, want)
	}
}

func TestCycleAccessors(t *testing.T) {
	g := New()
	g.AddArc("out", "p", 2)
	g.AddArc("p", "q", 5)
	g.AddArc("q", "p", 4)
	g.AddArc("p", "p", 3)
	p, q := g.MustNode("p"), g.MustNode("q")
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
	g := New()
	g.AddArc("p", "q", 1)
	g.AddArc("q", "p", 1)
	g.AddArc("p", "p", 1)
	p, q := g.MustNode("p"), g.MustNode("q")
	g.Freeze()
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
	g := New()
	if g.Hertz() != gmon.DefaultHz {
		t.Errorf("default Hz = %d", g.Hertz())
	}
}

func TestMustNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNode did not panic")
		}
	}()
	New().MustNode("ghost")
}

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
	if a1.Count != 7 || a1.Sites != 2 {
		t.Errorf("arc = count %d sites %d, want 7/2", a1.Count, a1.Sites)
	}
	if len(g.MustNode("y").In) != 1 || len(g.MustNode("x").Out) != 1 {
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
	if f.Calls() != 12 {
		t.Errorf("Calls = %d, want 12", f.Calls())
	}
	if f.SelfCalls() != 5 {
		t.Errorf("SelfCalls = %d, want 5", f.SelfCalls())
	}
}

func TestSpontaneousTracking(t *testing.T) {
	g := New()
	a := g.AddArc("", "h", 1)
	if !a.Spontaneous() {
		t.Error("arc not spontaneous")
	}
	if len(g.Spontaneous) != 1 || g.Spontaneous[0] != a {
		t.Error("Spontaneous list wrong")
	}
	if a.String() != "<spontaneous> -> h (1)" {
		t.Errorf("String = %q", a.String())
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
	if !arcs[0].Spontaneous() {
		t.Error("spontaneous not first")
	}
	if arcs[1].Callee.Name != "b" || arcs[2].Callee.Name != "z" || arcs[3].Caller.Name != "z" {
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
	if len(g.MustNode("a").Out) != 1 || len(g.MustNode("b").In) != 0 {
		t.Error("adjacency lists not updated")
	}
}

// TestNumArcsAfterRemove checks that NumArcs counts live arcs: removing
// one, as -k and the cycle-breaking heuristic do, lowers it by one.
func TestNumArcsAfterRemove(t *testing.T) {
	tab, p := buildTestProfile()
	g, err := Build(tab, p)
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
	g, err := Build(tab, p)
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
	if leaf.SelfTicks != 30 {
		t.Errorf("leaf self = %v", leaf.SelfTicks)
	}
	// Two call sites merged into one arc with count 10.
	if len(leaf.In) != 1 || leaf.In[0].Count != 10 || leaf.In[0].Sites != 2 {
		t.Errorf("leaf.In = %+v", leaf.In)
	}
	main := g.MustNode("main")
	if main.Calls() != 1 { // the spontaneous arc
		t.Errorf("main calls = %d", main.Calls())
	}
	if g.TotalTicks != 40 || g.LostTicks != 0 {
		t.Errorf("ticks = %v lost %v", g.TotalTicks, g.LostTicks)
	}
}

func TestBuildRejectsUnknownCallee(t *testing.T) {
	tab, p := buildTestProfile()
	p.Arcs = append(p.Arcs, gmon.Arc{FromPC: 100, SelfPC: 999, Count: 1})
	if _, err := Build(tab, p); err == nil {
		t.Error("arc with unknown callee accepted")
	}
}

func TestBuildUnknownCallSiteIsSpontaneous(t *testing.T) {
	tab, p := buildTestProfile()
	p.Arcs = append(p.Arcs, gmon.Arc{FromPC: 999, SelfPC: 110, Count: 2})
	g, err := Build(tab, p)
	if err != nil {
		t.Fatal(err)
	}
	var spont int64
	for _, a := range g.MustNode("leaf").In {
		if a.Spontaneous() {
			spont += a.Count
		}
	}
	if spont != 2 {
		t.Errorf("spontaneous into leaf = %d, want 2", spont)
	}
}

func TestAddStatic(t *testing.T) {
	tab, p := buildTestProfile()
	g, err := Build(tab, p)
	if err != nil {
		t.Fatal(err)
	}
	g.AddStatic([]object.StaticArc{
		{Caller: "main", Callee: "leaf", Site: 103}, // exists dynamically: no-op
		{Caller: "main", Callee: "cold", Site: 105}, // new: count 0, static
	})
	leaf := g.MustNode("leaf")
	if len(leaf.In) != 1 || leaf.In[0].Static {
		t.Error("existing dynamic arc was disturbed")
	}
	cold := g.MustNode("cold")
	if len(cold.In) != 1 || !cold.In[0].Static || cold.In[0].Count != 0 {
		t.Errorf("static arc wrong: %+v", cold.In)
	}

	// A static arc into a routine the table lacks adds a node, and the
	// graph's name order, the table's until then, takes it in.
	if got := g.NameOrder(); !slices.Equal(got, tab.NameOrder()) {
		t.Errorf("built graph's name order %v, table's %v", got, tab.NameOrder())
	}
	g.AddStatic([]object.StaticArc{{Caller: "main", Callee: "aardvark", Site: 105}})
	var names []string
	for _, id := range g.NameOrder() {
		names = append(names, g.Nodes()[id].Name)
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
	c := &Cycle{Number: 1, Members: []*Node{p, q}}
	p.Cycle, q.Cycle = c, c
	p.SelfTicks, q.SelfTicks = 10, 20
	if c.SelfTicks() != 30 {
		t.Errorf("cycle self = %v", c.SelfTicks())
	}
	if c.ExternalCalls() != 2 {
		t.Errorf("external = %d", c.ExternalCalls())
	}
	if c.InternalCalls() != 9 {
		t.Errorf("internal = %d, want 9 (self-arcs excluded)", c.InternalCalls())
	}
}

func TestIntraCycleSelfArcDistinction(t *testing.T) {
	g := New()
	g.AddArc("p", "q", 1)
	g.AddArc("q", "p", 1)
	g.AddArc("p", "p", 1)
	p, q := g.MustNode("p"), g.MustNode("q")
	c := &Cycle{Members: []*Node{p, q}}
	p.Cycle, q.Cycle = c, c
	for _, a := range g.Arcs() {
		switch {
		case a.Self():
			if !a.IntraCycle() {
				// A self-arc inside a cycle is also intra-cycle; both
				// exclusions apply independently.
				t.Error("self-arc in cycle not intra-cycle")
			}
		case a.Caller.Name == "p" && a.Callee.Name == "q":
			if !a.IntraCycle() {
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

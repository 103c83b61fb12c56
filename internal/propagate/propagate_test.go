package propagate

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/callgraph"
	"repro/internal/scc"
)

const eps = 1e-9

func near(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// TestLinearChain: main -> mid -> leaf, each called once. All of leaf's
// time flows to mid, and leaf+mid's to main.
func TestLinearChain(t *testing.T) {
	g := callgraph.New()
	g.AddArc("main", "mid", 1)
	g.AddArc("mid", "leaf", 1)
	g.SelfTicks[g.MustNode("main")] = 10
	g.SelfTicks[g.MustNode("mid")] = 20
	g.SelfTicks[g.MustNode("leaf")] = 30
	scc.Analyze(g)
	Run(g)
	if !near(g.ChildTicks[g.MustNode("mid")], 30) {
		t.Errorf("mid child = %v, want 30", g.ChildTicks[g.MustNode("mid")])
	}
	if !near(g.ChildTicks[g.MustNode("main")], 50) {
		t.Errorf("main child = %v, want 50", g.ChildTicks[g.MustNode("main")])
	}
	if main := g.MustNode("main"); !near(g.SelfTicks[main]+g.ChildTicks[main], 60) {
		t.Errorf("main total = %v, want 60", g.SelfTicks[main]+g.ChildTicks[main])
	}
	if got := CheckConservation(g); got > eps {
		t.Errorf("conservation error %v", got)
	}
}

// TestProportionalSharing: the paper's core rule. Two callers call
// `shared` 4 and 6 times: they receive 40% and 60% of its total time.
func TestProportionalSharing(t *testing.T) {
	g := callgraph.New()
	g.AddArc("caller1", "shared", 4)
	g.AddArc("caller2", "shared", 6)
	g.SelfTicks[g.MustNode("shared")] = 100
	scc.Analyze(g)
	Run(g)
	if !near(g.ChildTicks[g.MustNode("caller1")], 40) {
		t.Errorf("caller1 = %v, want 40", g.ChildTicks[g.MustNode("caller1")])
	}
	if !near(g.ChildTicks[g.MustNode("caller2")], 60) {
		t.Errorf("caller2 = %v, want 60", g.ChildTicks[g.MustNode("caller2")])
	}
	a1, a2 := mustArc(g, "caller1", "shared"), mustArc(g, "caller2", "shared")
	if !near(g.PropSelf[a1], 40) || !near(g.PropChild[a1], 0) {
		t.Errorf("arc1 prop = %v/%v, want 40/0", g.PropSelf[a1], g.PropChild[a1])
	}
	if !near(g.PropSelf[a2], 60) {
		t.Errorf("arc2 PropSelf = %v", g.PropSelf[a2])
	}
}

// TestDescendantSplit: child time and self time are reported separately
// on arcs (Figure 4's self/descendants columns).
func TestDescendantSplit(t *testing.T) {
	g := callgraph.New()
	g.AddArc("top", "mid", 2)
	g.AddArc("mid", "leaf", 1)
	g.SelfTicks[g.MustNode("mid")] = 10
	g.SelfTicks[g.MustNode("leaf")] = 40
	scc.Analyze(g)
	Run(g)
	arc := mustArc(g, "top", "mid")
	if !near(g.PropSelf[arc], 10) {
		t.Errorf("PropSelf = %v, want 10 (mid's own time)", g.PropSelf[arc])
	}
	if !near(g.PropChild[arc], 40) {
		t.Errorf("PropChild = %v, want 40 (leaf's time through mid)", g.PropChild[arc])
	}
}

// TestSelfRecursionExcluded: self-arcs are listed but "do not participate
// in time propagation" — a self-recursive routine's time goes entirely to
// its external callers.
func TestSelfRecursionExcluded(t *testing.T) {
	g := callgraph.New()
	g.AddArc("main", "fact", 1)
	g.AddArc("fact", "fact", 9)
	g.SelfTicks[g.MustNode("fact")] = 100
	scc.Analyze(g)
	Run(g)
	if !near(g.ChildTicks[g.MustNode("main")], 100) {
		t.Errorf("main child = %v, want all 100 despite 9 self-calls",
			g.ChildTicks[g.MustNode("main")])
	}
	if got := CheckConservation(g); got > eps {
		t.Errorf("conservation error %v", got)
	}
}

// TestCycleAsSingleEntity: mutual recursion p<->q. Members' self times
// sum; the whole flows to the external caller; intra-cycle arcs get no
// propagation.
func TestCycleAsSingleEntity(t *testing.T) {
	g := callgraph.New()
	g.AddArc("main", "p", 2)
	g.AddArc("p", "q", 50)
	g.AddArc("q", "p", 49)
	g.AddArc("q", "leaf", 10)
	g.SelfTicks[g.MustNode("p")] = 30
	g.SelfTicks[g.MustNode("q")] = 20
	g.SelfTicks[g.MustNode("leaf")] = 5
	scc.Analyze(g)
	Run(g)
	c := &g.Cycles[0]
	if !near(c.SelfTicks(g), 50) {
		t.Errorf("cycle self = %v, want 50", c.SelfTicks(g))
	}
	// leaf's 5 flows into the cycle (q is its only caller).
	if !near(c.ChildTicks, 5) {
		t.Errorf("cycle child = %v, want 5", c.ChildTicks)
	}
	// main receives the cycle's whole 55 (sole external caller).
	if !near(g.ChildTicks[g.MustNode("main")], 55) {
		t.Errorf("main child = %v, want 55", g.ChildTicks[g.MustNode("main")])
	}
	pq, qp := mustArc(g, "p", "q"), mustArc(g, "q", "p")
	if g.PropSelf[pq] != 0 || g.PropChild[pq] != 0 || g.PropSelf[qp] != 0 {
		t.Error("intra-cycle arcs carry propagated time")
	}
	if c.ExternalCalls(g) != 2 {
		t.Errorf("external calls = %d, want 2", c.ExternalCalls(g))
	}
	if c.InternalCalls(g) != 99 {
		t.Errorf("internal calls = %d, want 99", c.InternalCalls(g))
	}
	if got := CheckConservation(g); got > eps {
		t.Errorf("conservation error %v", got)
	}
}

// TestCycleSharedByCallers: two external callers of a cycle share its
// total in proportion to their call counts into any member.
func TestCycleSharedByCallers(t *testing.T) {
	g := callgraph.New()
	g.AddArc("a", "p", 1) // into member p
	g.AddArc("b", "q", 3) // into member q
	g.AddArc("p", "q", 10)
	g.AddArc("q", "p", 10)
	g.SelfTicks[g.MustNode("p")] = 60
	g.SelfTicks[g.MustNode("q")] = 20
	scc.Analyze(g)
	Run(g)
	if !near(g.ChildTicks[g.MustNode("a")], 20) {
		t.Errorf("a = %v, want 80*1/4 = 20", g.ChildTicks[g.MustNode("a")])
	}
	if !near(g.ChildTicks[g.MustNode("b")], 60) {
		t.Errorf("b = %v, want 80*3/4 = 60", g.ChildTicks[g.MustNode("b")])
	}
}

// TestStaticArcNoPropagation: an arc with count zero affects structure
// but never carries time (§4).
func TestStaticArcNoPropagation(t *testing.T) {
	g := callgraph.New()
	g.AddArc("main", "used", 5)
	g.Static[g.AddArc("other", "used", 0)] = true
	g.SelfTicks[g.MustNode("used")] = 50
	scc.Analyze(g)
	Run(g)
	if g.ChildTicks[g.MustNode("other")] != 0 {
		t.Errorf("static arc propagated %v ticks", g.ChildTicks[g.MustNode("other")])
	}
	if !near(g.ChildTicks[g.MustNode("main")], 50) {
		t.Errorf("main = %v, want 50 (denominator excludes count-0 arcs)",
			g.ChildTicks[g.MustNode("main")])
	}
}

// TestSpontaneousShareVanishes: time attributed to an unidentifiable
// caller is computed for display but flows to no node.
func TestSpontaneousShareVanishes(t *testing.T) {
	g := callgraph.New()
	g.AddArc("main", "handler", 3)
	g.AddArc("", "handler", 1) // spontaneous
	g.SelfTicks[g.MustNode("handler")] = 40
	scc.Analyze(g)
	Run(g)
	if !near(g.ChildTicks[g.MustNode("main")], 30) {
		t.Errorf("main = %v, want 30 (3 of 4 calls)", g.ChildTicks[g.MustNode("main")])
	}
	sp := g.Spontaneous()[0]
	if !near(g.PropSelf[sp], 10) {
		t.Errorf("spontaneous share = %v, want 10", g.PropSelf[sp])
	}
	if got := CheckConservation(g); got > eps {
		t.Errorf("conservation error %v", got)
	}
}

// TestFigure4Numbers reproduces the paper's Figure 4 arithmetic: EXAMPLE
// with parents CALLER1 (4/10) and CALLER2 (6/10), self-recursion (+4),
// children SUB1<cycle1> (20/40), SUB2 (1/5), SUB3 (0/5). The paper's
// entry shows EXAMPLE self 0.50, descendants 3.00; CALLER1 receives
// 0.20/1.20, CALLER2 0.30/1.80; SUB1's cycle passes 1.50/1.00, SUB2
// passes 0.00/0.50.
func TestFigure4Numbers(t *testing.T) {
	g := figure4Graph()
	scc.Analyze(g)
	Run(g)

	ex := g.MustNode("EXAMPLE")
	if !near(g.SelfTicks[ex], 0.50) {
		t.Errorf("EXAMPLE self = %v, want 0.50", g.SelfTicks[ex])
	}
	if !near(g.ChildTicks[ex], 3.00) {
		t.Errorf("EXAMPLE descendants = %v, want 3.00", g.ChildTicks[ex])
	}
	if g.Calls(ex) != 10 || g.SelfCalls(ex) != 4 {
		t.Errorf("EXAMPLE called %d+%d, want 10+4", g.Calls(ex), g.SelfCalls(ex))
	}

	prop := func(from, to string) (float64, float64) {
		a := mustArc(g, from, to)
		return g.PropSelf[a], g.PropChild[a]
	}
	if s, c := prop("CALLER1", "EXAMPLE"); !near(s, 0.20) || !near(c, 1.20) {
		t.Errorf("CALLER1 gets %.2f/%.2f, want 0.20/1.20", s, c)
	}
	if s, c := prop("CALLER2", "EXAMPLE"); !near(s, 0.30) || !near(c, 1.80) {
		t.Errorf("CALLER2 gets %.2f/%.2f, want 0.30/1.80", s, c)
	}
	if s, c := prop("EXAMPLE", "SUB1"); !near(s, 1.50) || !near(c, 1.00) {
		t.Errorf("SUB1 passes %.2f/%.2f, want 1.50/1.00", s, c)
	}
	if s, c := prop("EXAMPLE", "SUB2"); !near(s, 0.00) || !near(c, 0.50) {
		t.Errorf("SUB2 passes %.2f/%.2f, want 0.00/0.50", s, c)
	}
	if s, c := prop("EXAMPLE", "SUB3"); s != 0 || c != 0 {
		t.Error("never-traversed SUB3 arc propagated time")
	}
	if got := CheckConservation(g); got > eps {
		t.Errorf("conservation error %v", got)
	}
}

// mustArc returns the caller→callee arc's number in the analyzed graph.
func mustArc(g *callgraph.Graph, caller, callee string) int32 {
	a, ok := g.Arc(caller, callee)
	if !ok {
		panic("no arc " + caller + "->" + callee)
	}
	return a
}

// figure4Graph builds the call-graph fragment of the paper's Figure 4,
// with tick values chosen (in seconds, Hz=1) to reproduce the published
// numbers exactly. Shared with the report golden test via the figures
// harness, which reconstructs the same shape.
func figure4Graph() *callgraph.Graph {
	g := callgraph.New()
	// Parents: 4 and 6 calls; EXAMPLE also calls itself 4 times.
	g.AddArc("CALLER1", "EXAMPLE", 4)
	g.AddArc("CALLER2", "EXAMPLE", 6)
	g.AddArc("EXAMPLE", "EXAMPLE", 4)
	// Children: SUB1 is in cycle1 with PARTNER; EXAMPLE's 20 calls are
	// half the cycle's 40 external calls (the rest come from elsewhere).
	g.AddArc("EXAMPLE", "SUB1", 20)
	g.AddArc("OTHER", "SUB1", 20)
	g.AddArc("SUB1", "PARTNER", 7)
	g.AddArc("PARTNER", "SUB1", 7)
	// SUB2: EXAMPLE's 1 call of 5 total.
	g.AddArc("EXAMPLE", "SUB2", 1)
	g.AddArc("OTHER", "SUB2", 4)
	// SUB3: arc exists but never traversed (static), 0 of 5 calls.
	g.Static[g.AddArc("EXAMPLE", "SUB3", 0)] = true
	g.AddArc("OTHER", "SUB3", 5)

	// Self times (seconds at Hz=1):
	// EXAMPLE's own time.
	g.SelfTicks[g.MustNode("EXAMPLE")] = 0.50
	// cycle1 members: self sums to 3.00; their descendants (DEEP)
	// contribute 2.00, so the cycle passes (3.00+2.00)*20/40 = 2.50 to
	// EXAMPLE, split 1.50 self / 1.00 descendants.
	g.SelfTicks[g.MustNode("SUB1")] = 2.00
	g.SelfTicks[g.MustNode("PARTNER")] = 1.00
	g.AddArc("SUB1", "DEEP", 8)
	g.SelfTicks[g.MustNode("DEEP")] = 2.00
	// SUB2: no self time; descendants only. 5 calls total, EXAMPLE's 1
	// call earns 20%: 0.00 self, 0.50 descendants => SUB2's child time
	// must be 2.50.
	g.SelfTicks[g.MustNode("SUB2")] = 0.00
	g.AddArc("SUB2", "SUB2LEAF", 3)
	g.SelfTicks[g.MustNode("SUB2LEAF")] = 2.50
	// SUB3 has some time of its own; none reaches EXAMPLE.
	g.SelfTicks[g.MustNode("SUB3")] = 0.75
	return g
}

// TestConservationRandom: on random DAG-ish graphs with random self
// times, propagated time is conserved: retained-at-roots plus vanished
// spontaneous shares equals the sum of self times.
func TestConservationRandom(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%25) + 2
		g := callgraph.New()
		names := make([]string, n)
		for i := range names {
			names[i] = "f" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			g.AddNode(names[i])
			g.SelfTicks[g.MustNode(names[i])] = float64(rng.Intn(100))
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.15 {
					g.AddArc(names[i], names[j], int64(rng.Intn(6)+1))
				}
			}
		}
		// Sprinkle self-arcs and a spontaneous arc.
		if n > 2 {
			g.AddArc(names[0], names[0], int64(rng.Intn(3)+1))
			g.AddArc("", names[1], int64(rng.Intn(3)+1))
		}
		scc.Analyze(g)
		Run(g)
		return CheckConservation(g) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIdempotent: running propagation twice gives the same results.
func TestIdempotent(t *testing.T) {
	g := figure4Graph()
	scc.Analyze(g)
	Run(g)
	first := g.ChildTicks[g.MustNode("EXAMPLE")]
	Run(g)
	if got := g.ChildTicks[g.MustNode("EXAMPLE")]; got != first {
		t.Errorf("second run changed ChildTicks: %v -> %v", first, got)
	}
}

// TestRecurrenceEquation verifies T_r = S_r + sum(T_e * C_e^r / C_e)
// directly on an acyclic graph, node by node.
func TestRecurrenceEquation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := callgraph.New()
	const n = 12
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a' + i))
		g.AddNode(names[i])
		g.SelfTicks[g.MustNode(names[i])] = float64(rng.Intn(50) + 1)
	}
	// Edges only i -> j with i < j: guaranteed acyclic.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				g.AddArc(names[i], names[j], int64(rng.Intn(5)+1))
			}
		}
	}
	scc.Analyze(g)
	Run(g)
	total := func(v int32) float64 { return g.SelfTicks[v] + g.ChildTicks[v] }
	for r := range int32(g.Len()) {
		want := g.SelfTicks[r]
		for _, a := range g.Out(r) {
			e := g.Callee[a]
			want += total(e) * float64(g.Count[a]) / float64(g.Calls(e))
		}
		if !near(total(r), want) {
			t.Errorf("node %s: T = %v, recurrence gives %v", g.Names[r], total(r), want)
		}
	}
}

// randomCyclicGraph builds a graph with enough arcs that cycles and
// shared callees appear.
func randomCyclicGraph(n int, degree float64, seed int64) *callgraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := callgraph.New()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
		g.AddNode(names[i])
		g.SelfTicks[g.MustNode(names[i])] = float64(rng.Intn(100))
	}
	for i := 0; i < int(float64(n)*degree); i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from != to {
			g.AddArc(names[from], names[to], int64(rng.Intn(20)+1))
		}
	}
	return g
}

func TestRunCtxCancellation(t *testing.T) {
	g := randomCyclicGraph(50, 2, 5)
	scc.Analyze(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := RunCtx(ctx, g, 4); err == nil {
		t.Error("canceled context not honored")
	}
}

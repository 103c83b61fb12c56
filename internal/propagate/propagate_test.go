package propagate

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	var b callgraph.Builder
	b.Arc("main", "mid", 1)
	b.Arc("mid", "leaf", 1)
	g := b.Graph()
	g.SelfTicks[node(g, "main")] = 10
	g.SelfTicks[node(g, "mid")] = 20
	g.SelfTicks[node(g, "leaf")] = 30
	scc.Analyze(g)
	Run(g)
	if !near(g.ChildTicks[node(g, "mid")], 30) {
		t.Errorf("mid child = %v, want 30", g.ChildTicks[node(g, "mid")])
	}
	if !near(g.ChildTicks[node(g, "main")], 50) {
		t.Errorf("main child = %v, want 50", g.ChildTicks[node(g, "main")])
	}
	if main := node(g, "main"); !near(g.SelfTicks[main]+g.ChildTicks[main], 60) {
		t.Errorf("main total = %v, want 60", g.SelfTicks[main]+g.ChildTicks[main])
	}
	if got := CheckConservation(g); got > eps {
		t.Errorf("conservation error %v", got)
	}
}

// TestProportionalSharing: the paper's core rule. Two callers call
// `shared` 4 and 6 times: they receive 40% and 60% of its total time.
func TestProportionalSharing(t *testing.T) {
	var b callgraph.Builder
	b.Arc("caller1", "shared", 4)
	b.Arc("caller2", "shared", 6)
	g := b.Graph()
	g.SelfTicks[node(g, "shared")] = 100
	scc.Analyze(g)
	Run(g)
	if !near(g.ChildTicks[node(g, "caller1")], 40) {
		t.Errorf("caller1 = %v, want 40", g.ChildTicks[node(g, "caller1")])
	}
	if !near(g.ChildTicks[node(g, "caller2")], 60) {
		t.Errorf("caller2 = %v, want 60", g.ChildTicks[node(g, "caller2")])
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
	var b callgraph.Builder
	b.Arc("top", "mid", 2)
	b.Arc("mid", "leaf", 1)
	g := b.Graph()
	g.SelfTicks[node(g, "mid")] = 10
	g.SelfTicks[node(g, "leaf")] = 40
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
	var b callgraph.Builder
	b.Arc("main", "fact", 1)
	b.Arc("fact", "fact", 9)
	g := b.Graph()
	g.SelfTicks[node(g, "fact")] = 100
	scc.Analyze(g)
	Run(g)
	if !near(g.ChildTicks[node(g, "main")], 100) {
		t.Errorf("main child = %v, want all 100 despite 9 self-calls",
			g.ChildTicks[node(g, "main")])
	}
	if got := CheckConservation(g); got > eps {
		t.Errorf("conservation error %v", got)
	}
}

// TestCycleAsSingleEntity: mutual recursion p<->q. Members' self times
// sum; the whole flows to the external caller; intra-cycle arcs get no
// propagation.
func TestCycleAsSingleEntity(t *testing.T) {
	var b callgraph.Builder
	b.Arc("main", "p", 2)
	b.Arc("p", "q", 50)
	b.Arc("q", "p", 49)
	b.Arc("q", "leaf", 10)
	g := b.Graph()
	g.SelfTicks[node(g, "p")] = 30
	g.SelfTicks[node(g, "q")] = 20
	g.SelfTicks[node(g, "leaf")] = 5
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
	if !near(g.ChildTicks[node(g, "main")], 55) {
		t.Errorf("main child = %v, want 55", g.ChildTicks[node(g, "main")])
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
	var b callgraph.Builder
	b.Arc("a", "p", 1) // into member p
	b.Arc("b", "q", 3) // into member q
	b.Arc("p", "q", 10)
	b.Arc("q", "p", 10)
	g := b.Graph()
	g.SelfTicks[node(g, "p")] = 60
	g.SelfTicks[node(g, "q")] = 20
	scc.Analyze(g)
	Run(g)
	if !near(g.ChildTicks[node(g, "a")], 20) {
		t.Errorf("a = %v, want 80*1/4 = 20", g.ChildTicks[node(g, "a")])
	}
	if !near(g.ChildTicks[node(g, "b")], 60) {
		t.Errorf("b = %v, want 80*3/4 = 60", g.ChildTicks[node(g, "b")])
	}
}

// TestStaticArcNoPropagation: an arc with count zero affects structure
// but never carries time (§4).
func TestStaticArcNoPropagation(t *testing.T) {
	var b callgraph.Builder
	b.Arc("main", "used", 5)
	b.Static("other", "used")
	g := b.Graph()
	g.SelfTicks[node(g, "used")] = 50
	scc.Analyze(g)
	Run(g)
	if g.ChildTicks[node(g, "other")] != 0 {
		t.Errorf("static arc propagated %v ticks", g.ChildTicks[node(g, "other")])
	}
	if !near(g.ChildTicks[node(g, "main")], 50) {
		t.Errorf("main = %v, want 50 (denominator excludes count-0 arcs)",
			g.ChildTicks[node(g, "main")])
	}
}

// TestSpontaneousShareVanishes: time attributed to an unidentifiable
// caller is computed for display but flows to no node.
func TestSpontaneousShareVanishes(t *testing.T) {
	var b callgraph.Builder
	b.Arc("main", "handler", 3)
	b.Arc("", "handler", 1) // spontaneous
	g := b.Graph()
	g.SelfTicks[node(g, "handler")] = 40
	scc.Analyze(g)
	Run(g)
	if !near(g.ChildTicks[node(g, "main")], 30) {
		t.Errorf("main = %v, want 30 (3 of 4 calls)", g.ChildTicks[node(g, "main")])
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

	ex := node(g, "EXAMPLE")
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

// node returns the named node's number, or panics.
func node(g *callgraph.Graph, name string) int32 {
	v := slices.Index(g.Names, name)
	if v < 0 {
		panic("no node " + name)
	}
	return int32(v)
}

// mustArc returns the caller→callee arc's number in the analyzed graph.
func mustArc(g *callgraph.Graph, caller, callee string) int32 {
	from, to := node(g, caller), node(g, callee)
	for a := range int32(g.NumArcs()) {
		if g.Caller[a] == from && g.Callee[a] == to {
			return a
		}
	}
	panic("no arc " + caller + "->" + callee)
}

// figure4Graph builds the call-graph fragment of the paper's Figure 4,
// with tick values chosen (in seconds, Hz=1) to reproduce the published
// numbers exactly. Shared with the report golden test via the figures
// harness, which reconstructs the same shape.
func figure4Graph() *callgraph.Graph {
	var b callgraph.Builder
	// Parents: 4 and 6 calls; EXAMPLE also calls itself 4 times.
	b.Arc("CALLER1", "EXAMPLE", 4)
	b.Arc("CALLER2", "EXAMPLE", 6)
	b.Arc("EXAMPLE", "EXAMPLE", 4)
	// Children: SUB1 is in cycle1 with PARTNER; EXAMPLE's 20 calls are
	// half the cycle's 40 external calls (the rest come from elsewhere).
	b.Arc("EXAMPLE", "SUB1", 20)
	b.Arc("OTHER", "SUB1", 20)
	b.Arc("SUB1", "PARTNER", 7)
	b.Arc("PARTNER", "SUB1", 7)
	// SUB2: EXAMPLE's 1 call of 5 total.
	b.Arc("EXAMPLE", "SUB2", 1)
	b.Arc("OTHER", "SUB2", 4)
	// SUB3: arc exists but never traversed (static), 0 of 5 calls.
	b.Static("EXAMPLE", "SUB3")
	b.Arc("OTHER", "SUB3", 5)
	b.Arc("SUB1", "DEEP", 8)
	b.Arc("SUB2", "SUB2LEAF", 3)
	g := b.Graph()

	// Self times (seconds at Hz=1):
	// EXAMPLE's own time.
	g.SelfTicks[node(g, "EXAMPLE")] = 0.50
	// cycle1 members: self sums to 3.00; their descendants (DEEP)
	// contribute 2.00, so the cycle passes (3.00+2.00)*20/40 = 2.50 to
	// EXAMPLE, split 1.50 self / 1.00 descendants.
	g.SelfTicks[node(g, "SUB1")] = 2.00
	g.SelfTicks[node(g, "PARTNER")] = 1.00
	g.SelfTicks[node(g, "DEEP")] = 2.00
	// SUB2: no self time; descendants only. 5 calls total, EXAMPLE's 1
	// call earns 20%: 0.00 self, 0.50 descendants => SUB2's child time
	// must be 2.50.
	g.SelfTicks[node(g, "SUB2")] = 0.00
	g.SelfTicks[node(g, "SUB2LEAF")] = 2.50
	// SUB3 has some time of its own; none reaches EXAMPLE.
	g.SelfTicks[node(g, "SUB3")] = 0.75
	return g
}

// TestConservationRandom: on random DAG-ish graphs with random self
// times, propagated time is conserved: retained-at-roots plus vanished
// spontaneous shares equals the sum of self times.
func TestConservationRandom(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%25) + 2
		var b callgraph.Builder
		names := make([]string, n)
		self := make([]float64, n)
		for i := range names {
			names[i] = "f" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			b.Node(names[i])
			self[i] = float64(rng.Intn(100))
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.15 {
					b.Arc(names[i], names[j], int64(rng.Intn(6)+1))
				}
			}
		}
		// Sprinkle self-arcs and a spontaneous arc.
		if n > 2 {
			b.Arc(names[0], names[0], int64(rng.Intn(3)+1))
			b.Arc("", names[1], int64(rng.Intn(3)+1))
		}
		g := b.Graph()
		copy(g.SelfTicks, self)
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
	first := g.ChildTicks[node(g, "EXAMPLE")]
	Run(g)
	if got := g.ChildTicks[node(g, "EXAMPLE")]; got != first {
		t.Errorf("second run changed ChildTicks: %v -> %v", first, got)
	}
}

// TestRecurrenceEquation verifies T_r = S_r + sum(T_e * C_e^r / C_e)
// directly on an acyclic graph, node by node.
func TestRecurrenceEquation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var b callgraph.Builder
	const n = 12
	names := make([]string, n)
	self := make([]float64, n)
	for i := range names {
		names[i] = string(rune('a' + i))
		b.Node(names[i])
		self[i] = float64(rng.Intn(50) + 1)
	}
	// Edges only i -> j with i < j: guaranteed acyclic.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				b.Arc(names[i], names[j], int64(rng.Intn(5)+1))
			}
		}
	}
	g := b.Graph()
	copy(g.SelfTicks, self)
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
	var b callgraph.Builder
	names := make([]string, n)
	self := make([]float64, n)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
		b.Node(names[i])
		self[i] = float64(rng.Intn(100))
	}
	for i := 0; i < int(float64(n)*degree); i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from != to {
			b.Arc(names[from], names[to], int64(rng.Intn(20)+1))
		}
	}
	g := b.Graph()
	copy(g.SelfTicks, self)
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

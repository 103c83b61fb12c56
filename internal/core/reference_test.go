package core

import (
	"context"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/cyclebreak"
	"repro/internal/object"
	"repro/internal/synth"
)

// This file keeps the pointer call graph that callgraph.Graph's columns
// replaced, with the component analysis, propagation, listing numbers
// and cycle-breaking heuristic that ran on it, as the oracle the
// column analysis is compared with. Each node and arc is a heap object,
// each node holds its incoming and outgoing arcs (self arcs included),
// and every count is re-summed from the arcs where it is read.

type refNode struct {
	name    string
	id      int
	self    float64
	child   float64
	in, out []*refArc
	cycle   *refCycle
	topo    int
	index   int
}

type refArc struct {
	caller, callee *refNode // caller nil when spontaneous
	count          int64
	static         bool
	propSelf       float64
	propChild      float64
}

type refCycle struct {
	number  int
	members []*refNode
	child   float64
	index   int
}

type refGraph struct {
	nodes  []*refNode
	byName map[string]*refNode
	cycles []*refCycle
}

func newRefGraph() *refGraph { return &refGraph{byName: map[string]*refNode{}} }

func (g *refGraph) node(name string) *refNode {
	if n := g.byName[name]; n != nil {
		return n
	}
	n := &refNode{name: name, id: len(g.nodes)}
	g.nodes = append(g.nodes, n)
	g.byName[name] = n
	return n
}

func (g *refGraph) find(from, to *refNode) *refArc {
	for _, a := range to.in {
		if a.caller == from {
			return a
		}
	}
	return nil
}

func (g *refGraph) addArc(caller, callee string, count int64) *refArc {
	to := g.node(callee)
	var from *refNode
	if caller != "" {
		from = g.node(caller)
	}
	if a := g.find(from, to); a != nil {
		a.count += count
		return a
	}
	a := &refArc{caller: from, callee: to, count: count}
	to.in = append(to.in, a)
	if from != nil {
		from.out = append(from.out, a)
	}
	return a
}

func (g *refGraph) addStatic(arcs []object.StaticArc) {
	for _, sa := range arcs {
		from, to := g.byName[sa.Caller], g.byName[sa.Callee]
		if from != nil && to != nil && g.find(from, to) != nil {
			continue
		}
		g.addArc(sa.Caller, sa.Callee, 0).static = true
	}
}

func (g *refGraph) removeArc(caller, callee string) bool {
	from, to := g.byName[caller], g.byName[callee]
	if from == nil || to == nil {
		return false
	}
	a := g.find(from, to)
	if a == nil {
		return false
	}
	drop := func(arcs []*refArc) []*refArc {
		return slices.DeleteFunc(arcs, func(x *refArc) bool { return x == a })
	}
	to.in, from.out = drop(to.in), drop(from.out)
	return true
}

func (a *refArc) self() bool { return a.caller != nil && a.caller == a.callee }

func (a *refArc) intraCycle() bool {
	return a.caller != nil && a.caller.cycle != nil && a.caller.cycle == a.callee.cycle
}

func (n *refNode) callCount() int64 {
	var c int64
	for _, a := range n.in {
		if !a.self() {
			c += a.count
		}
	}
	return c
}

func (c *refCycle) selfTicks() float64 {
	var t float64
	for _, m := range c.members {
		t += m.self
	}
	return t
}

func (c *refCycle) externalCalls() int64 {
	var n int64
	for _, m := range c.members {
		for _, a := range m.in {
			if !a.intraCycle() && !a.self() {
				n += a.count
			}
		}
	}
	return n
}

// refAnalyze is Tarjan's algorithm, recursive, over the nodes' Out
// lists in node order, numbering components as they complete.
func refAnalyze(g *refGraph) {
	g.cycles = nil
	for _, n := range g.nodes {
		n.cycle, n.topo = nil, 0
	}
	idx := make([]int, len(g.nodes))
	low := make([]int, len(g.nodes))
	onStack := make([]bool, len(g.nodes))
	var stack []*refNode
	counter, topo := 0, 0
	var visit func(v *refNode)
	visit = func(v *refNode) {
		counter++
		idx[v.id], low[v.id] = counter, counter
		stack = append(stack, v)
		onStack[v.id] = true
		for _, a := range v.out {
			if a.self() {
				continue
			}
			w := a.callee
			if idx[w.id] == 0 {
				visit(w)
				low[v.id] = min(low[v.id], low[w.id])
			} else if onStack[w.id] {
				low[v.id] = min(low[v.id], idx[w.id])
			}
		}
		if low[v.id] != idx[v.id] {
			return
		}
		topo++
		var members []*refNode
		for {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[w.id] = false
			w.topo = topo
			members = append(members, w)
			if w == v {
				break
			}
		}
		if len(members) > 1 {
			slices.Reverse(members)
			c := &refCycle{number: len(g.cycles) + 1, members: members}
			for _, m := range members {
				m.cycle = c
			}
			g.cycles = append(g.cycles, c)
		}
	}
	for _, n := range g.nodes {
		if idx[n.id] == 0 {
			visit(n)
		}
	}
}

// refPropagate visits the nodes by ascending topological number, ties
// in node order, sharing each unit's time among its callers.
func refPropagate(g *refGraph) {
	for _, n := range g.nodes {
		n.child = 0
		for _, a := range n.in {
			a.propSelf, a.propChild = 0, 0
		}
	}
	for _, c := range g.cycles {
		c.child = 0
	}
	order := slices.Clone(g.nodes)
	slices.SortStableFunc(order, func(a, b *refNode) int { return a.topo - b.topo })
	share := func(members []*refNode, calls int64, self, child float64) {
		if calls <= 0 {
			return
		}
		for _, m := range members {
			for _, a := range m.in {
				if a.intraCycle() || a.self() || a.count <= 0 {
					continue
				}
				frac := float64(a.count) / float64(calls)
				a.propSelf = self * frac
				a.propChild = child * frac
				switch {
				case a.caller == nil:
				case a.caller.cycle != nil:
					a.caller.cycle.child += a.propSelf + a.propChild
				default:
					a.caller.child += a.propSelf + a.propChild
				}
			}
		}
	}
	done := map[*refCycle]bool{}
	for _, n := range order {
		if c := n.cycle; c != nil {
			if !done[c] {
				done[c] = true
				share(c.members, c.externalCalls(), c.selfTicks(), c.child)
			}
			continue
		}
		share([]*refNode{n}, n.callCount(), n.self, n.child)
	}
}

// refAssignIndexes numbers the listing with stable sorts: units by
// decreasing total time, then name, a routine before a cycle of the
// same name, and each cycle's members by decreasing self time.
func refAssignIndexes(g *refGraph) {
	type unit struct {
		node  *refNode
		cycle *refCycle
		total float64
		name  string
	}
	var units []unit
	for _, n := range g.nodes {
		if n.cycle == nil {
			units = append(units, unit{node: n, total: n.self + n.child, name: n.name})
		}
	}
	for _, c := range g.cycles {
		units = append(units, unit{cycle: c, total: c.selfTicks() + c.child, name: "<cycle " + strconv.Itoa(c.number) + " as a whole>"})
	}
	slices.SortStableFunc(units, func(a, b unit) int {
		switch {
		case a.total > b.total:
			return -1
		case a.total < b.total:
			return 1
		}
		return strings.Compare(a.name, b.name)
	})
	idx := 1
	for _, u := range units {
		if u.node != nil {
			u.node.index = idx
			idx++
			continue
		}
		u.cycle.index = idx
		idx++
		members := slices.Clone(u.cycle.members)
		slices.SortStableFunc(members, func(a, b *refNode) int {
			switch {
			case a.self > b.self:
				return -1
			case a.self < b.self:
				return 1
			}
			return 0
		})
		for _, m := range members {
			m.index = idx
			idx++
		}
	}
}

// refSuggest is the greedy heuristic on a name-by-name copy of g:
// remove the lowest-count intra-cycle arc, ties by caller and callee
// name, and analyze again, until no cycle is left or the bound is met.
func refSuggest(g *refGraph, maxArcs int) cyclebreak.Suggestion {
	if maxArcs <= 0 {
		maxArcs = cyclebreak.DefaultMaxArcs
	}
	shadow := newRefGraph()
	for _, n := range g.nodes {
		shadow.node(n.name)
	}
	for _, n := range g.nodes {
		for _, a := range n.in {
			if a.caller != nil {
				shadow.addArc(a.caller.name, a.callee.name, a.count)
			}
		}
	}
	var sug cyclebreak.Suggestion
	for len(sug.Arcs) < maxArcs {
		refAnalyze(shadow)
		var best *refArc
		for _, n := range shadow.nodes {
			for _, a := range n.in {
				if a.self() || !a.intraCycle() {
					continue
				}
				if best == nil || a.count < best.count ||
					a.count == best.count && (a.caller.name < best.caller.name ||
						a.caller.name == best.caller.name && a.callee.name < best.callee.name) {
					best = a
				}
			}
		}
		if best == nil {
			sug.Complete = true
			return sug
		}
		sug.Arcs = append(sug.Arcs, cyclebreak.ArcID{Caller: best.caller.name, Callee: best.callee.name})
		sug.Counts = append(sug.Counts, best.count)
		shadow.removeArc(best.caller.name, best.callee.name)
	}
	refAnalyze(shadow)
	sug.Complete = len(shadow.cycles) == 0
	return sug
}

// refRun is finish on the reference graph: the arcs to remove, the
// component analysis, the heuristic, propagation and the listing
// numbers.
func refRun(g *refGraph, opt Options) (removed int, sug *cyclebreak.Suggestion) {
	for _, id := range opt.RemoveArcs {
		if g.removeArc(id.Caller, id.Callee) {
			removed++
		}
	}
	refAnalyze(g)
	if opt.AutoBreak {
		s := refSuggest(g, opt.MaxBreakArcs)
		sug = &s
		for _, id := range s.Arcs {
			if g.removeArc(id.Caller, id.Callee) {
				removed++
			}
		}
		refAnalyze(g)
	}
	refPropagate(g)
	refAssignIndexes(g)
	return removed, sug
}

// arcIndex maps each (caller, callee) name pair of g to its arc; a
// spontaneous caller is "".
func arcIndex(g *callgraph.Graph) map[[2]string]int32 {
	idx := make(map[[2]string]int32, g.NumArcs())
	for a := range int32(g.NumArcs()) {
		caller := ""
		if f := g.Caller[a]; f >= 0 {
			caller = g.Names[f]
		}
		idx[[2]string{caller, g.Names[g.Callee[a]]}] = a
	}
	return idx
}

// checkSameAnalysis runs the graph's build, analyzeCycles and
// analyzeValues, as run does, and refRun on ref, built alike, and
// compares every result of the analysis: topological numbers, cycles
// with their members in order, listing indices, call counts, and the
// propagated times bit for bit.
func checkSameAnalysis(t *testing.T, build func([]cyclebreak.ArcID) (*callgraph.Graph, error), ref *refGraph, opt Options) {
	t.Helper()
	g, err := build(opt.RemoveArcs)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{opt: opt}
	if g, err = analyzeCycles(context.Background(), g, res, build); err != nil {
		t.Fatal(err)
	}
	if err := analyzeValues(context.Background(), g, res); err != nil {
		t.Fatal(err)
	}
	removed, sug := refRun(ref, opt)
	if g.Removed != removed {
		t.Fatalf("removed %d arcs, reference %d", g.Removed, removed)
	}
	if (res.Suggestion == nil) != (sug == nil) ||
		sug != nil && (!slices.Equal(res.Suggestion.Arcs, sug.Arcs) || !slices.Equal(res.Suggestion.Counts, sug.Counts) || res.Suggestion.Complete != sug.Complete) {
		t.Fatalf("suggestion %+v, reference %+v", res.Suggestion, sug)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if g.Len() != len(ref.nodes) {
		t.Fatalf("%d nodes, reference %d", g.Len(), len(ref.nodes))
	}
	for v, r := range ref.nodes {
		cyc := int32(0)
		if r.cycle != nil {
			cyc = int32(r.cycle.number)
		}
		if g.Names[v] != r.name || g.TopoNum[v] != int32(r.topo) || g.CycleNum[v] != cyc || g.Index[v] != int32(r.index) {
			t.Fatalf("node %d %s: topo %d cycle %d index %d, reference %s: %d %d %d",
				v, g.Names[v], g.TopoNum[v], g.CycleNum[v], g.Index[v], r.name, r.topo, cyc, r.index)
		}
		if g.Calls(int32(v)) != r.callCount() {
			t.Fatalf("%s: %d calls, reference %d", r.name, g.Calls(int32(v)), r.callCount())
		}
		if !same(g.ChildTicks[v], r.child) {
			t.Fatalf("%s: child ticks %v, reference %v", r.name, g.ChildTicks[v], r.child)
		}
	}
	if len(g.Cycles) != len(ref.cycles) {
		t.Fatalf("%d cycles, reference %d", len(g.Cycles), len(ref.cycles))
	}
	for i, rc := range ref.cycles {
		c := &g.Cycles[i]
		var members []string
		for _, m := range c.Members {
			members = append(members, g.Names[m])
		}
		var want []string
		for _, m := range rc.members {
			want = append(want, m.name)
		}
		if c.Number != rc.number || c.Index != rc.index || !slices.Equal(members, want) || !same(c.ChildTicks, rc.child) {
			t.Fatalf("cycle %d: members %q index %d child %v, reference %d: %q %d %v",
				c.Number, members, c.Index, c.ChildTicks, rc.number, want, rc.index, rc.child)
		}
	}
	arcs := 0
	idx := arcIndex(g)
	for _, r := range ref.nodes {
		for _, ra := range r.in {
			arcs++
			caller := ""
			if ra.caller != nil {
				caller = ra.caller.name
			}
			a, ok := idx[[2]string{caller, ra.callee.name}]
			if !ok {
				t.Fatalf("arc %s->%s missing", caller, ra.callee.name)
			}
			if g.Count[a] != ra.count || g.Static[a] != ra.static || !same(g.PropSelf[a], ra.propSelf) || !same(g.PropChild[a], ra.propChild) {
				t.Fatalf("arc %s->%s: count %d static %v prop %v/%v, reference %d %v %v/%v", caller, ra.callee.name,
					g.Count[a], g.Static[a], g.PropSelf[a], g.PropChild[a], ra.count, ra.static, ra.propSelf, ra.propChild)
			}
		}
	}
	if g.NumArcs() != arcs {
		t.Fatalf("%d arcs, reference %d", g.NumArcs(), arcs)
	}
}

// FuzzAnalyze checks the column analysis against the pointer reference
// on small hand-built graphs: cycles, self arcs, spontaneous arcs,
// count-zero and static arcs, arcs removed by name, and the
// cycle-breaking heuristic with its bound.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 0, 2, 3, 1, 3, 4, 2, 4, 2, 1, 2, 2, 6, 0, 1, 5, 1, 2, 1, 3, 0, 3})
	f.Add([]byte{8, 7, 6, 5, 4, 3, 2, 1, 9, 3, 0, 1, 4, 1, 2, 5, 2, 0, 1, 3, 3, 9, 4, 4, 2, 2, 7, 6, 2, 1, 1, 2, 3, 1, 4, 5, 6, 2, 7, 0, 3})
	f.Add([]byte{3, 0, 0, 0, 255, 0, 1, 1, 1, 0, 0, 2, 1, 2, 3, 2, 0, 1, 7, 1, 0, 0})
	ticks := []float64{0, 1, 2, 0.1, 0.2, 0.3, 1.0 / 3, 2.5, 7, 1e-3}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var b callgraph.Builder
		ref := newRefGraph()
		n := 1 + next()%10
		names := make([]string, n)
		self := make([]float64, n)
		var total float64
		for i := range names {
			names[i] = string(rune('a' + (i*7)%n))
			v := b.Node(names[i])
			ref.node(names[i])
			self[v] = ticks[next()%len(ticks)]
			ref.nodes[v].self = self[v]
		}
		for _, s := range self {
			total += s
		}
		name := func(b int) string { return names[b%n] }
		caller := func(b int) string {
			if b%(n+1) == n {
				return ""
			}
			return name(b)
		}
		for k := next() % 24; k > 0; k-- {
			from, to, count := caller(next()), name(next()), int64(next()%6)
			b.Arc(from, to, count)
			ref.addArc(from, to, count)
		}
		var static []object.StaticArc
		for k := next() % 4; k > 0; k-- {
			static = append(static, object.StaticArc{Caller: name(next()), Callee: name(next())})
		}
		for _, sa := range static {
			b.Static(sa.Caller, sa.Callee)
		}
		ref.addStatic(static)
		var opt Options
		for k := next() % 3; k > 0; k-- {
			opt.RemoveArcs = append(opt.RemoveArcs, cyclebreak.ArcID{Caller: name(next()), Callee: name(next())})
		}
		if b := next(); b%2 == 1 {
			opt.AutoBreak, opt.MaxBreakArcs = true, b/2%4
		}
		build := func(remove []cyclebreak.ArcID) (*callgraph.Graph, error) {
			rb := b
			for _, id := range remove {
				rb.Remove(id.Caller, id.Callee)
			}
			g := rb.Graph()
			copy(g.SelfTicks, self)
			g.TotalTicks = total
			return g, nil
		}
		checkSameAnalysis(t, build, ref, opt)
	})
}

// TestAnalyzeMatchesReference checks the column analysis against the
// pointer reference on a synthetic program's graph as BuildCtx lays it
// out, its cycles broken by the heuristic and not.
func TestAnalyzeMatchesReference(t *testing.T) {
	w := synth.Generate(synth.Tier(3000, 1))
	build := func(remove []cyclebreak.ArcID) (*callgraph.Graph, error) {
		return callgraph.BuildWith(context.Background(), w.Table(), w.Prof, nil, remove)
	}
	for _, auto := range []bool{false, true} {
		g, err := build(nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefGraph()
		for v, name := range g.Names {
			ref.node(name).self = g.SelfTicks[v]
		}
		for a := range int32(g.NumArcs()) {
			caller := ""
			if f := g.Caller[a]; f >= 0 {
				caller = g.Names[f]
			}
			ref.addArc(caller, g.Names[g.Callee[a]], g.Count[a])
		}
		// The reference's out lists must be in the graph's first-record
		// order, not the callee order the loop above adds arcs in.
		idx := arcIndex(g)
		for v, r := range ref.nodes {
			out := g.Out(int32(v))
			slices.SortFunc(r.out, func(x, y *refArc) int {
				xa, ya := idx[[2]string{r.name, x.callee.name}], idx[[2]string{r.name, y.callee.name}]
				return slices.Index(out, xa) - slices.Index(out, ya)
			})
		}
		checkSameAnalysis(t, build, ref, Options{AutoBreak: auto})
	}
}

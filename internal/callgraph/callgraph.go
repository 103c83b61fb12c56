// Package callgraph builds the dynamic call graph of a profiled
// execution: nodes are routines, directed arcs represent calls from
// call sites to routines (paper §2).
//
// The graph is assembled from four inputs, all given before it is
// laid out:
//
//   - the symbol table contributes one node per routine, so routines that
//     were never called still appear (the flat profile lists them, §5.1);
//   - the profile's arc records contribute dynamic arcs with traversal
//     counts, summed over call sites within the same caller;
//   - the static call graph recovered from the executable contributes
//     arcs with a traversal count of zero, which "are never responsible
//     for any time propagation" but "may affect the structure of the
//     graph" by completing strongly-connected components (§4);
//   - the retrospective's "set of arcs to be removed from the analysis"
//     leaves the arcs it names out.
//
// Arcs whose caller could not be identified are "spontaneous": their
// Caller is -1, they contribute to the callee's call count, and they
// propagate time to no one.
//
// The graph is struct-of-arrays. Nodes are numbered 0..Len()-1 and
// arcs 0..NumArcs()-1, and every per-node and per-arc fact is a column
// indexed by that number: the analysis is integers and floats keyed by
// routine (§4), and the passes that compute them (scc, propagate,
// model) walk the columns and one int32 compressed-row adjacency in
// each direction. The structure (nodes, arcs, adjacency) is fixed when
// the graph is built and never edited; only the analysis passes write
// their own columns.
package callgraph

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/symtab"
)

// Graph is a dynamic call graph, optionally augmented with static arcs
// and with a set of arcs removed.
//
// Arcs are kept in listing order: grouped by callee in node order, and
// each callee's arcs in the order they were first recorded (first
// record for BuildCtx, static arcs after every record; first Arc or
// Static call for a Builder). That is the order the model lists them
// in, so an arc's number is its position in model.Profile.Arcs.
type Graph struct {
	// Node columns, indexed by node number: creation order, which is
	// the symbol table's node order (address order) for a graph
	// BuildCtx made.

	// Names holds each routine's name; names are unique.
	Names []string
	// SelfTicks is each routine's own sampled time, in clock ticks,
	// attributed from the histogram (possibly fractional under coarse
	// granularity).
	SelfTicks []float64
	// ChildTicks is the time propagated to each routine from its
	// descendants, in ticks. Assigned by package propagate.
	ChildTicks []float64
	// TopoNum is the topological number assigned during cycle
	// discovery: every arc not inside a cycle goes from a
	// higher-numbered node to a lower-numbered one. Assigned by
	// package scc.
	TopoNum []int32
	// CycleNum is the Number of the cycle containing each routine when
	// that cycle has more than one member, and 0 otherwise; the cycle
	// is Cycles[CycleNum-1]. Assigned by package scc.
	CycleNum []int32
	// Index is each routine's entry number in the call-graph profile
	// listing. Assigned by AssignIndexes.
	Index []int32

	// Arc columns, indexed by arc number.

	// Caller and Callee are the arc's endpoints; Caller is -1 for a
	// spontaneous arc.
	Caller []int32
	Callee []int32
	// Count is the arc's traversal count.
	Count []int64
	// Sites is the number of distinct call sites merged into the arc.
	Sites []int32
	// Static marks arcs added from the static call graph; their Count
	// is zero and they never propagate time.
	Static []bool
	// PropSelf and PropChild are the portions of the callee's self and
	// descendant time propagated along the arc to the caller, in
	// ticks. Assigned by package propagate.
	PropSelf  []float64
	PropChild []float64

	// Cycles lists the multi-member strongly-connected components in
	// discovery order. Assigned by package scc.
	Cycles []Cycle

	// TotalTicks is the histogram's total tick count, including ticks
	// that fell outside every routine.
	TotalTicks float64
	// LostTicks is the portion of TotalTicks not attributable to any
	// routine.
	LostTicks float64
	// Hz is the clock rate: ticks/Hz = seconds.
	Hz int64
	// Removed is the number of arcs the removal set left out: each
	// named pair that had an arc counts once.
	Removed int

	// Laid out by place. Node v's incoming arcs are
	// in[inStart[v]:inStart[v+1]]. Outgoing arcs are keyed by caller
	// plus one: row 0 holds the spontaneous arcs and row v+1 node v's
	// arcs, out[outStart[r]:outStart[r+1]], each row in the order its
	// arcs were first recorded. Self arcs are in neither direction.
	// calls and selfCalls are each node's incoming non-self and self
	// traversal counts.
	in, inStart      []int32
	out, outStart    []int32
	calls, selfCalls []int64

	// recArc ties a graph BuildCtx made to the profile's arc records:
	// the arc record r's count sums into, or -1 when the removal set
	// took that arc out. A graph built by hand has none.
	recArc []int32

	// byName is the nodes' name order (see NameOrder): the symbol
	// table's for a graph BuildCtx made, sorted by Builder.Graph for
	// one built by hand.
	byName []int32
}

// Cycle is a collapsed strongly-connected component with more than one
// member, treated as a single entity for time propagation (§4).
type Cycle struct {
	Number int // 1-based, for "<cycle N>" display
	// Members are the member node numbers in discovery order.
	Members []int32

	// ChildTicks is the descendant time propagated into the cycle as a
	// whole. Assigned by package propagate.
	ChildTicks float64

	// Index is the cycle's entry number in the call-graph profile
	// listing. Assigned by AssignIndexes.
	Index int
}

// SelfTicks sums the members' self time: "our solution collects all
// members of a cycle together, summing the time and call counts for all
// members" (§4).
func (c *Cycle) SelfTicks(g *Graph) float64 {
	var t float64
	for _, m := range c.Members {
		t += g.SelfTicks[m]
	}
	return t
}

// TotalTicks returns the cycle's self plus descendant time.
func (c *Cycle) TotalTicks(g *Graph) float64 { return c.SelfTicks(g) + c.ChildTicks }

// ExternalCalls counts calls into the cycle from outside it ("not
// counting calls among members of the cycle").
func (c *Cycle) ExternalCalls(g *Graph) int64 { return c.calls(g, false) }

// InternalCalls counts calls among members (excluding self-recursion).
func (c *Cycle) InternalCalls(g *Graph) int64 { return c.calls(g, true) }

// calls sums the counts on the members' incoming arcs that are, or are
// not, intra-cycle.
func (c *Cycle) calls(g *Graph, intra bool) int64 {
	var n int64
	for _, m := range c.Members {
		for _, a := range g.In(m) {
			if g.IntraCycle(a) == intra {
				n += g.Count[a]
			}
		}
	}
	return n
}

// arcKey identifies an arc by its endpoint node numbers; the caller half
// is biased by one so a spontaneous caller keys as zero.
type arcKey uint64

func arcKeyOf(from, to int32) arcKey {
	return arcKey(uint64(uint32(from+1))<<32 | uint64(uint32(to)))
}

// Hertz returns the effective clock rate.
func (g *Graph) Hertz() int64 {
	if g.Hz > 0 {
		return g.Hz
	}
	return gmon.DefaultHz
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.Names) }

// NumArcs returns the number of distinct arcs (merged by endpoint
// pair), including spontaneous, self and static arcs.
func (g *Graph) NumArcs() int { return len(g.Callee) }

// In returns node v's incoming arcs, self arcs left out, in the order
// they were first recorded. The caller must not modify the result.
func (g *Graph) In(v int32) []int32 { return g.in[g.inStart[v]:g.inStart[v+1]] }

// Out returns node v's outgoing arcs, self arcs left out, in the order
// they were first recorded. The caller must not modify the result.
func (g *Graph) Out(v int32) []int32 { return g.out[g.outStart[v+1]:g.outStart[v+2]] }

// Spontaneous returns the arcs with unidentifiable callers, in the
// order they were first recorded. The caller must not modify the
// result.
func (g *Graph) Spontaneous() []int32 { return g.out[g.outStart[0]:g.outStart[1]] }

// Adjacency returns the compressed-row layout In and Out read: node
// v's incoming arcs are in[inStart[v]:inStart[v+1]] and its outgoing
// arcs out[outStart[v]:outStart[v+1]]. The slices are never written
// after the build, so they may be shared; the caller must not modify
// them.
func (g *Graph) Adjacency() (in, inStart, out, outStart []int32) {
	return g.in, g.inStart, g.out, g.outStart[1:]
}

// Calls returns the number of times routine v was called, excluding
// self-recursive calls: the sum of the counts on incoming non-self
// arcs (§3.1: "call counts for routines can be determined by summing
// the counts on arcs directed into that routine").
func (g *Graph) Calls(v int32) int64 { return g.calls[v] }

// SelfCalls returns routine v's count of self-recursive calls.
func (g *Graph) SelfCalls(v int32) int64 { return g.selfCalls[v] }

// IsSelf reports whether arc a is self-recursive.
func (g *Graph) IsSelf(a int32) bool { return g.Caller[a] == g.Callee[a] }

// IntraCycle reports whether both endpoints of arc a are members of the
// same multi-node cycle. Such arcs are listed in the profile but "do
// not propagate any time" (§4).
func (g *Graph) IntraCycle(a int32) bool {
	f := g.Caller[a]
	return f >= 0 && g.CycleNum[f] != 0 && g.CycleNum[f] == g.CycleNum[g.Callee[a]]
}

// NameOrder returns the node numbers sorted by name, then by number:
// the order every listing breaks its ties in. A graph built from a
// symbol table shares the table's order. The caller must not modify
// the result.
func (g *Graph) NameOrder() []int32 { return g.byName }

// lookup returns the node named name: a binary search over the name
// order, so resolving k names costs O(k log n) and allocates nothing.
func (g *Graph) lookup(name string) (int32, bool) {
	i, ok := slices.BinarySearchFunc(g.byName, name, func(v int32, name string) int {
		return strings.Compare(g.Names[v], name)
	})
	if !ok {
		return -1, false
	}
	return g.byName[i], true
}

// Arcs returns every arc exactly once, ordered by (caller, callee) name
// with spontaneous arcs first.
func (g *Graph) Arcs() []int32 {
	name := func(v int32) string {
		if v < 0 {
			return ""
		}
		return g.Names[v]
	}
	arcs := make([]int32, g.NumArcs())
	for a := range arcs {
		arcs[a] = int32(a)
	}
	slices.SortFunc(arcs, func(a, b int32) int {
		return cmp.Or(strings.Compare(name(g.Caller[a]), name(g.Caller[b])), strings.Compare(name(g.Callee[a]), name(g.Callee[b])))
	})
	return arcs
}

// ArcID names one arc by its endpoints' names.
type ArcID struct {
	Caller string
	Callee string
}

func (a ArcID) String() string { return a.Caller + "/" + a.Callee }

// removalSet resolves the named arcs through node to the removal set
// place reads, or nil when none resolves. A spontaneous arc is never
// removed, and a name no node has removes nothing.
func removalSet(remove []ArcID, node func(string) (int32, bool)) map[arcKey]bool {
	var set map[arcKey]bool
	for _, id := range remove {
		if id.Caller == "" {
			continue
		}
		f, okf := node(id.Caller)
		t, okt := node(id.Callee)
		if okf && okt {
			if set == nil {
				set = make(map[arcKey]bool, len(remove))
			}
			set[arcKeyOf(f, t)] = false
		}
	}
	return set
}

// Builder makes a graph by hand from (caller, callee, count) triples,
// for the paper's figures and for tests. Nodes are numbered as their
// names first appear: at Node, and for an arc its callee before its
// caller. Graph lays the arcs out through the same placement pass as
// BuildCtx, so each callee's arcs and each caller's row keep the order
// their pairs were first given, and a repeated pair merges into one arc
// whose Count sums and whose Sites grows by one.
type Builder struct {
	names  []string
	node   map[string]int32
	from   []int32 // caller node + 1, or 0 when spontaneous
	to     []int32
	count  []int64
	static []bool
	remove []ArcID
}

// Node declares the named node, if it is new, and returns its number
// in the graph Graph builds.
func (b *Builder) Node(name string) int32 {
	if v, ok := b.node[name]; ok {
		return v
	}
	if b.node == nil {
		b.node = make(map[string]int32)
	}
	v := int32(len(b.names))
	b.node[name] = v
	b.names = append(b.names, name)
	return v
}

// Arc records count traversals of caller→callee; a caller of ""
// records a spontaneous arc.
func (b *Builder) Arc(caller, callee string, count int64) { b.add(caller, callee, count, false) }

// Static records an arc of the static call graph: a new pair becomes
// an arc with count zero, marked Static, and a pair that already has
// an arc is left untouched (§4).
func (b *Builder) Static(caller, callee string) { b.add(caller, callee, 0, true) }

// Remove puts caller→callee in the removal set: Graph leaves the arc
// out, if there is one.
func (b *Builder) Remove(caller, callee string) {
	b.remove = append(b.remove, ArcID{Caller: caller, Callee: callee})
}

func (b *Builder) add(caller, callee string, count int64, static bool) {
	t := b.Node(callee)
	f := int32(0)
	if caller != "" {
		f = b.Node(caller) + 1
	}
	b.from = append(b.from, f)
	b.to = append(b.to, t)
	b.count = append(b.count, count)
	b.static = append(b.static, static)
}

// Graph builds the graph. Its value columns are zero but for Count;
// the caller sets SelfTicks, TotalTicks and Hz as it needs them.
func (b *Builder) Graph() *Graph {
	n := len(b.names)
	g := &Graph{
		Names:      slices.Clone(b.names),
		SelfTicks:  make([]float64, n),
		ChildTicks: make([]float64, n),
		TopoNum:    make([]int32, n),
		CycleNum:   make([]int32, n),
		Index:      make([]int32, n),
		byName:     order.ByName(b.names),
	}
	recArc := g.place(slices.Clone(b.from), slices.Clone(b.to), b.static, removalSet(b.remove, g.lookup))
	g.Count = make([]int64, g.NumArcs())
	g.PropSelf = make([]float64, g.NumArcs())
	g.PropChild = make([]float64, g.NumArcs())
	for r, a := range recArc {
		if a >= 0 {
			g.Count[a] += b.count[r]
		}
	}
	g.sumCalls()
	return g
}

// prefixSum turns counts into running totals in place.
func prefixSum(s []int32) {
	for i := 1; i < len(s); i++ {
		s[i] += s[i-1]
	}
}

// deriveIn lays out each node's incoming non-self arcs, from arcs in
// listing order with node v's arcs at arcStart[v]:arcStart[v+1].
func (g *Graph) deriveIn(arcStart []int32) {
	n := len(g.Names)
	g.inStart = make([]int32, n+1)
	g.in = make([]int32, 0, len(g.Callee))
	for v := 0; v < n; v++ {
		g.inStart[v] = int32(len(g.in))
		for a := arcStart[v]; a < arcStart[v+1]; a++ {
			if g.Caller[a] != int32(v) {
				g.in = append(g.in, a)
			}
		}
	}
	g.inStart[n] = int32(len(g.in))
}

// sumCalls sums each node's incoming non-self and self traversal
// counts.
func (g *Graph) sumCalls() {
	g.calls = make([]int64, len(g.Names))
	g.selfCalls = make([]int64, len(g.Names))
	for a, t := range g.Callee {
		if g.Caller[a] == t {
			g.selfCalls[t] += g.Count[a]
		} else {
			g.calls[t] += g.Count[a]
		}
	}
}

// BuildCtx assembles the dynamic call graph for a profile against a
// symbol table. Every routine in the table becomes a node; histogram
// ticks are attributed to node self-times; arc records become graph
// arcs, with the call-site address mapped to the calling routine and
// the callee prologue address mapped to the called routine.
//
// Arc records whose callee address falls outside every routine are
// rejected (the profile does not match the symbol table). Call sites
// outside every routine are treated as spontaneous. ctx cancels the
// build between its passes. jobs is unused: histogram attribution is
// one address-order scan and arc linking is order-sensitive, so both
// run serially and the graph is identical at any width. The parameter
// stays for callers that pass one width to every stage.
//
// BuildCtx is BuildWith with no static arcs and no removals.
func BuildCtx(ctx context.Context, tab *symtab.Table, p *gmon.Profile, jobs int) (*Graph, error) {
	return BuildWith(ctx, tab, p, nil, nil)
}

// BuildWith is BuildCtx with the profile's static call graph and the
// retrospective's removal set, the two other inputs that fix a graph's
// structure. A static arc is one more record, placed after the
// profile's, with count zero: it adds an arc, marked Static, only for a
// pair no record or earlier static arc has. Every record of a pair in
// remove is left out, static ones included; a spontaneous pair is
// never removed, and each pair that had an arc counts once in Removed.
// Static arcs must name routines of the table; a removal that names no
// routine removes nothing.
//
// BuildWith builds the graph's structure from the records' addresses
// (newShape) and then fills its values from the counts and the
// histogram (Shape.Fill), the one path by which every graph of a
// profile is made. Construction is linear, and maps only a non-empty
// removal set:
//
//   - one node per distinct routine name, in the table's node order
//     (symtab.Table.NodeIndex), so a node's number is the routine's
//     node index and, with unique names, its symbol index, and the
//     table's name order is the graph's;
//   - histogram ticks attributed by table index and summed per node;
//   - each arc record resolved to a caller node (or spontaneous) and a
//     callee node through the table's O(1) address lookup, and each
//     static arc's and removed pair's names by binary search over the
//     table's name order;
//   - records grouped by caller with a stable counting sort, and
//     repeated (caller, callee) pairs within a group merged through a
//     per-callee marker, so counts and Sites sum as call sites merge;
//   - arcs placed in listing order and linked in increasing
//     first-record index, so every callee's arcs and every caller's row
//     are in first-occurrence record order, whatever order the records
//     arrive in.
func BuildWith(ctx context.Context, tab *symtab.Table, p *gmon.Profile, static []object.StaticArc, remove []ArcID) (*Graph, error) {
	s, err := newShape(ctx, tab, p, static, remove)
	if err != nil {
		return nil, err
	}
	return s.Fill(ctx, tab, p)
}

// Shape is the structural half of a graph BuildWith made: everything
// that depends on which arc records the profile holds and in what
// order, but not on their counts or on the histogram. It holds the
// records' keys, the arc each record sums into, the nodes' names and
// name order, the arcs' endpoints, Sites and Static columns, the in
// and out adjacency, and the TopoNum and CycleNum columns and cycle
// members scc assigned. A Shape is never written once made, so any
// number of graphs, on any number of goroutines, may share it.
type Shape struct {
	// g holds the structural columns; its value columns are nil.
	g Graph
	// keys are the records' (FromPC, SelfPC), in record order.
	keys []recKey
}

// recKey is an arc record's key: the call site and the callee.
type recKey struct{ from, self int64 }

// Shape returns g's structure, sharing its structural columns and
// copying the keys of p's records, for Fill to build further graphs
// on. g must be one BuildWith made from p and analyzed since only by
// scc, and its structure must not change afterwards. It returns nil
// for a graph built by hand.
func (g *Graph) Shape(p *gmon.Profile) *Shape {
	if g.recArc == nil || len(g.recArc) != len(p.Arcs) {
		return nil
	}
	s := &Shape{g: *g, keys: make([]recKey, len(p.Arcs))}
	for r := range p.Arcs {
		s.keys[r] = recKey{p.Arcs[r].FromPC, p.Arcs[r].SelfPC}
	}
	s.g.SelfTicks, s.g.ChildTicks, s.g.Index = nil, nil, nil
	s.g.Count, s.g.PropSelf, s.g.PropChild = nil, nil, nil
	s.g.calls, s.g.selfCalls = nil, nil
	s.g.Cycles = make([]Cycle, len(g.Cycles))
	for i, c := range g.Cycles {
		s.g.Cycles[i] = Cycle{Number: c.Number, Members: c.Members}
	}
	return s
}

// Matches reports whether p's arc records have exactly the keys, in
// the same order, that s was built from: then s is the structure of
// p's graph, whatever p's counts and histogram.
func (s *Shape) Matches(p *gmon.Profile) bool {
	if len(p.Arcs) != len(s.keys) {
		return false
	}
	for r := range p.Arcs {
		if k := s.keys[r]; p.Arcs[r].FromPC != k.from || p.Arcs[r].SelfPC != k.self {
			return false
		}
	}
	return true
}

// Fill returns a graph with s's structure and p's values: self ticks
// attributed from p's histogram through tab, the table s was built
// against, and arc counts summed from p's records, which must match s
// (Matches). The graph shares s's columns and owns fresh value
// columns and its own copy of the cycles, so analyzing it (propagate,
// model.Build) writes nothing s holds.
func (s *Shape) Fill(ctx context.Context, tab *symtab.Table, p *gmon.Profile) (*Graph, error) {
	if len(p.Arcs) != len(s.g.recArc) {
		return nil, fmt.Errorf("callgraph: %d arc records, the shape has %d", len(p.Arcs), len(s.g.recArc))
	}
	tr := obs.FromContext(ctx)
	g := s.g
	nn, na := len(g.Names), len(g.Callee)
	g.Hz = p.ClockHz()
	g.SelfTicks = make([]float64, nn)
	g.ChildTicks = make([]float64, nn)
	g.Index = make([]int32, nn)
	g.Count = make([]int64, na)
	g.PropSelf = make([]float64, na)
	g.PropChild = make([]float64, na)
	g.Cycles = slices.Clone(s.g.Cycles)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	attrSpan := tr.Span("attribute")
	ticks, lost := tab.AttributeHistIdx(&p.Hist)
	for i, t := range ticks {
		if t != 0 {
			g.SelfTicks[tab.NodeIndex(i)] += t
		}
	}
	g.LostTicks = lost
	attrSpan.End()
	g.TotalTicks = float64(p.Hist.TotalTicks())
	for r, a := range s.g.recArc {
		if a >= 0 {
			g.Count[a] += p.Arcs[r].Count
		}
	}
	g.sumCalls()
	return &g, nil
}

// newShape builds the structure of p's graph against tab, with the
// static arcs and the removal set, leaving TopoNum and CycleNum zero
// for scc to assign. It copies no record key: only Graph.Shape does,
// for a caller that keeps the structure.
func newShape(ctx context.Context, tab *symtab.Table, p *gmon.Profile, static []object.StaticArc, remove []ArcID) (*Shape, error) {
	nn := tab.NumNodes()
	s := &Shape{g: Graph{
		byName:   tab.NameOrder(),
		Names:    make([]string, nn),
		TopoNum:  make([]int32, nn),
		CycleNum: make([]int32, nn),
	}}
	g := &s.g
	for i, sym := range tab.Syms() {
		g.Names[tab.NodeIndex(i)] = sym.Name
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Resolve every record, then every static arc, to (caller node + 1,
	// callee node); 0 marks a spontaneous caller, so a record's from is
	// its caller's row.
	recs := p.Arcs
	if n := len(recs) + len(static); n > math.MaxInt32/2 {
		return nil, fmt.Errorf("callgraph: %d arc records, more than %d", n, math.MaxInt32/2)
	}
	from := make([]int32, len(recs)+len(static))
	to := make([]int32, len(recs)+len(static))
	for r := range recs {
		ci, ok := tab.FindIndex(recs[r].SelfPC)
		if !ok {
			return nil, fmt.Errorf("callgraph: arc callee pc %#x is not in any routine", recs[r].SelfPC)
		}
		to[r] = int32(tab.NodeIndex(ci))
		if pc := recs[r].FromPC; pc >= 0 {
			if fi, ok := tab.FindIndex(pc); ok {
				from[r] = int32(tab.NodeIndex(fi)) + 1
			}
		}
	}
	var isStatic []bool
	if len(static) > 0 {
		isStatic = make([]bool, len(from))
	}
	for i, sa := range static {
		r := len(recs) + i
		t, ok := g.lookup(sa.Callee)
		f := int32(-1)
		if ok && sa.Caller != "" {
			f, ok = g.lookup(sa.Caller)
		}
		if !ok {
			return nil, fmt.Errorf("callgraph: static arc %s/%s names a routine not in the symbol table", sa.Caller, sa.Callee)
		}
		from[r], to[r], isStatic[r] = f+1, t, true
	}
	recArc := g.place(from, to, isStatic, removalSet(remove, g.lookup))
	g.recArc = recArc[:len(recs):len(recs)]
	return s, nil
}

// place is the one placement pass every graph's structure comes from.
// Record r is a call of node to[r] from node from[r]-1, or a
// spontaneous one when from[r] is 0; static[r], when static is not
// nil, marks it static. Records of one (caller, callee) pair merge into
// one arc: the pair's first record is its leader, which gives the arc
// its place and its Static mark, and each later record adds a call site
// unless it is static. The records of a pair in removed make no arc;
// removed's value for each such pair is set, and Removed counts them.
//
// place sets the endpoint, Sites and Static columns and the adjacency,
// and returns each record's arc, or -1 for a removed one. It
// overwrites from and to.
func (g *Graph) place(from, to []int32, static []bool, removed map[arcKey]bool) []int32 {
	nn := len(g.Names)

	// Stable counting sort of record indices by caller.
	head := make([]int32, nn+2)
	for _, f := range from {
		head[f+1]++
	}
	prefixSum(head)
	byCaller := make([]int32, len(from))
	for r, f := range from {
		byCaller[head[f]] = int32(r)
		head[f]++
	}

	// Merge repeated (caller, callee) pairs. Within a caller's group
	// records visit in increasing index, so a pair's first visit is its
	// first record, the leader. mark[t] holds one plus the group
	// position of the latest leader into callee t; a position before
	// the group's start is another caller's, so marks never need
	// clearing. A follower's from becomes -(leader+1), and a removed
	// leader's to becomes -1. arcStart counts each callee's arcs and
	// outStart each row's non-self arcs.
	arcStart := make([]int32, nn+1)
	g.outStart = head[:nn+2]
	clear(g.outStart)
	mark := make([]int32, nn)
	numArcs := 0
	caller, start := int32(-1), int32(0)
	for j, r := range byCaller {
		f, t := from[r], to[r]
		if f != caller {
			caller, start = f, int32(j)
		}
		if m := mark[t] - 1; m >= start {
			from[r] = -byCaller[m] - 1
			continue
		}
		mark[t] = int32(j) + 1
		if len(removed) > 0 {
			k := arcKeyOf(f-1, t)
			if hit, ok := removed[k]; ok {
				if !hit {
					removed[k] = true
					g.Removed++
				}
				to[r] = -1
				continue
			}
		}
		numArcs++
		arcStart[t+1]++
		if f-1 != t {
			g.outStart[f+1]++
		}
	}
	prefixSum(arcStart)
	prefixSum(g.outStart)

	// Place the arcs in increasing leader index: each at its callee's
	// next slot and, unless it is a self arc, at its caller row's next
	// slot. A follower's leader comes before it, so its arc already
	// exists. recArc (reusing byCaller) maps each record to its arc, a
	// leader's before any follower reads it. inCur and outCur are the
	// write cursors.
	g.Caller = make([]int32, numArcs)
	g.Callee = make([]int32, numArcs)
	g.Sites = make([]int32, numArcs)
	g.Static = make([]bool, numArcs)
	g.out = make([]int32, g.outStart[nn+1])
	inCur := append([]int32(nil), arcStart[:nn]...)
	outCur := append([]int32(nil), g.outStart[:nn+1]...)
	recArc := byCaller
	for r, f := range from {
		if f < 0 {
			a := recArc[-f-1]
			recArc[r] = a
			if a >= 0 && (static == nil || !static[r]) {
				g.Sites[a]++
			}
			continue
		}
		t := to[r]
		if t < 0 {
			recArc[r] = -1
			continue
		}
		a := inCur[t]
		inCur[t]++
		recArc[r] = a
		g.Caller[a], g.Callee[a] = f-1, t
		g.Sites[a] = 1
		g.Static[a] = static != nil && static[r]
		if f-1 != t {
			g.out[outCur[f]] = a
			outCur[f]++
		}
	}
	g.deriveIn(arcStart)
	return recArc
}

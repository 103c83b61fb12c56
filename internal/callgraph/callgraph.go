// Package callgraph builds and manipulates the dynamic call graph of a
// profiled execution: nodes are routines, directed arcs represent calls
// from call sites to routines (paper §2).
//
// The graph is assembled from three sources:
//
//   - the symbol table contributes one node per routine, so routines that
//     were never called still appear (the flat profile lists them, §5.1);
//   - the profile's arc records contribute dynamic arcs with traversal
//     counts, summed over call sites within the same caller;
//   - the static call graph recovered from the executable contributes
//     arcs with a traversal count of zero, which "are never responsible
//     for any time propagation" but "may affect the structure of the
//     graph" by completing strongly-connected components (§4).
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
// each direction.
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

// Graph is a dynamic call graph, optionally augmented with static arcs.
//
// Arcs are kept in listing order: grouped by callee in node order, and
// each callee's arcs in the order they were first recorded (first
// record for BuildCtx, first AddArc for a graph built by hand). That is
// the order the model lists them in, so an arc's number is its
// position in model.Profile.Arcs.
//
// An edit (AddNode, AddArc, AddStatic, RemoveArc, DeleteArc) appends to
// or marks the columns and leaves the graph unfrozen; Freeze, which
// every analysis pass and every adjacency accessor calls first, puts
// the arcs back in listing order and re-derives the adjacency. Arc
// numbers an edit returns are valid until that freeze.
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
	// spontaneous arc, and Callee is -1 for an arc removed since the
	// last freeze.
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

	// Derived by freeze. Node v's incoming arcs are
	// in[inStart[v]:inStart[v+1]]. Outgoing arcs are keyed by caller
	// plus one: row 0 holds the spontaneous arcs and row v+1 node v's
	// arcs, out[outStart[r]:outStart[r+1]], each row in the order its
	// arcs were first recorded. Self arcs are in neither direction.
	// calls and selfCalls are each node's incoming non-self and self
	// traversal counts.
	in, inStart      []int32
	out, outStart    []int32
	calls, selfCalls []int64

	// frozen is the number of arcs in listing order at the last freeze;
	// arcs from it on were appended since. dead counts arcs removed
	// since, and dirty is set by any edit.
	frozen int
	dead   int
	dirty  bool

	// recArc ties a graph BuildCtx made to the profile's arc records:
	// the arc record r's count sums into, or -1 once that arc is
	// removed. A freeze renumbers it with the arcs. A graph built by
	// hand has none.
	recArc []int32

	// nodes and arcIdx are the name-keyed API's indices: nodes by name,
	// and arcs by endpoint pair, so that merging a repeated pair is
	// O(1). BuildCtx does not need them, so each is built on the first
	// name-keyed call that does, and a graph that is only analyzed
	// never holds them. A freeze renumbers the arcs and drops arcIdx.
	nodes  map[string]int32
	arcIdx map[arcKey]int32

	// byName is the nodes' name order (see NameOrder): the symbol
	// table's for a graph BuildCtx made, sorted on first use for one
	// built by hand, and dropped by AddNode.
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

// New creates an empty graph.
func New() *Graph { return &Graph{} }

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
func (g *Graph) NumArcs() int { return len(g.Callee) - g.dead }

// In returns node v's incoming arcs, self arcs left out, in the order
// they were first recorded. The caller must not modify the result.
func (g *Graph) In(v int32) []int32 {
	g.Freeze()
	return g.in[g.inStart[v]:g.inStart[v+1]]
}

// Out returns node v's outgoing arcs, self arcs left out, in the order
// they were first recorded. The caller must not modify the result.
func (g *Graph) Out(v int32) []int32 {
	g.Freeze()
	return g.out[g.outStart[v+1]:g.outStart[v+2]]
}

// Spontaneous returns the arcs with unidentifiable callers, in the
// order they were first recorded. The caller must not modify the
// result.
func (g *Graph) Spontaneous() []int32 {
	g.Freeze()
	return g.out[g.outStart[0]:g.outStart[1]]
}

// Adjacency returns the compressed-row layout In and Out read: node
// v's incoming arcs are in[inStart[v]:inStart[v+1]] and its outgoing
// arcs out[outStart[v]:outStart[v+1]]. The slices are never written
// after a freeze, so they may be shared; the caller must not modify
// them.
func (g *Graph) Adjacency() (in, inStart, out, outStart []int32) {
	g.Freeze()
	return g.in, g.inStart, g.out, g.outStart[1:]
}

// Calls returns the number of times routine v was called, excluding
// self-recursive calls: the sum of the counts on incoming non-self
// arcs (§3.1: "call counts for routines can be determined by summing
// the counts on arcs directed into that routine").
func (g *Graph) Calls(v int32) int64 {
	g.Freeze()
	return g.calls[v]
}

// SelfCalls returns routine v's count of self-recursive calls.
func (g *Graph) SelfCalls(v int32) int64 {
	g.Freeze()
	return g.selfCalls[v]
}

// IsSelf reports whether arc a is self-recursive.
func (g *Graph) IsSelf(a int32) bool { return g.Caller[a] == g.Callee[a] }

// IntraCycle reports whether both endpoints of arc a are members of the
// same multi-node cycle. Such arcs are listed in the profile but "do
// not propagate any time" (§4).
func (g *Graph) IntraCycle(a int32) bool {
	f := g.Caller[a]
	return f >= 0 && g.CycleNum[f] != 0 && g.CycleNum[f] == g.CycleNum[g.Callee[a]]
}

// Node returns the named node, if present. The first call to any
// name-keyed method builds the name index, so even Node must not run
// concurrently with another call on the same graph.
func (g *Graph) Node(name string) (int32, bool) {
	if g.nodes == nil {
		g.nodes = make(map[string]int32, len(g.Names))
		for i, n := range g.Names {
			g.nodes[n] = int32(i)
		}
	}
	v, ok := g.nodes[name]
	return v, ok
}

// MustNode returns the named node or panics; for tests.
func (g *Graph) MustNode(name string) int32 {
	v, ok := g.Node(name)
	if !ok {
		panic("callgraph: no node " + name)
	}
	return v
}

// Arc returns the caller→callee arc, if present; a caller name of ""
// names a spontaneous arc.
func (g *Graph) Arc(caller, callee string) (int32, bool) {
	to, ok := g.Node(callee)
	if !ok {
		return 0, false
	}
	from := int32(-1)
	if caller != "" {
		if from, ok = g.Node(caller); !ok {
			return 0, false
		}
	}
	a, ok := g.arcIndex()[arcKeyOf(from, to)]
	return a, ok
}

// arcIndex returns the endpoint-pair index, building it over the live
// arcs if a freeze dropped it.
func (g *Graph) arcIndex() map[arcKey]int32 {
	if g.arcIdx == nil {
		g.arcIdx = make(map[arcKey]int32, g.NumArcs())
		for a, t := range g.Callee {
			if t >= 0 {
				g.arcIdx[arcKeyOf(g.Caller[a], t)] = int32(a)
			}
		}
	}
	return g.arcIdx
}

// NameOrder returns the node numbers sorted by name, then by number:
// the order every listing breaks its ties in. A graph built from a
// symbol table shares the table's order; one built by hand sorts its
// names at the first call after a node was added. The caller must not
// modify the result.
func (g *Graph) NameOrder() []int32 {
	if g.byName == nil {
		g.byName = order.ByName(g.Names)
	}
	return g.byName
}

// AddNode creates (or returns) the node for name.
func (g *Graph) AddNode(name string) int32 {
	if v, ok := g.Node(name); ok {
		return v
	}
	v := int32(len(g.Names))
	g.nodes[name] = v
	g.Names = append(g.Names, name)
	g.SelfTicks = append(g.SelfTicks, 0)
	g.ChildTicks = append(g.ChildTicks, 0)
	g.TopoNum = append(g.TopoNum, 0)
	g.CycleNum = append(g.CycleNum, 0)
	g.Index = append(g.Index, 0)
	g.byName = nil
	g.dirty = true
	return v
}

// AddArc records count traversals of caller→callee, merging with an
// existing arc for the pair if present. A caller name of "" records a
// spontaneous arc. It returns the arc's number, valid until the next
// freeze.
func (g *Graph) AddArc(caller, callee string, count int64) int32 {
	to := g.AddNode(callee)
	from := int32(-1)
	if caller != "" {
		from = g.AddNode(caller)
	}
	g.dirty = true
	k := arcKeyOf(from, to)
	idx := g.arcIndex()
	if a, ok := idx[k]; ok {
		g.Count[a] += count
		g.Sites[a]++
		return a
	}
	a := int32(len(g.Callee))
	idx[k] = a
	g.Caller = append(g.Caller, from)
	g.Callee = append(g.Callee, to)
	g.Count = append(g.Count, count)
	g.Sites = append(g.Sites, 1)
	g.Static = append(g.Static, false)
	g.PropSelf = append(g.PropSelf, 0)
	g.PropChild = append(g.PropChild, 0)
	return a
}

// AddStatic merges statically discovered arcs into the graph: an arc
// already present dynamically is left untouched ("no action is
// required"); a new one is added with count zero, marked Static (§4).
func (g *Graph) AddStatic(arcs []object.StaticArc) {
	for _, sa := range arcs {
		if _, ok := g.Arc(sa.Caller, sa.Callee); ok {
			continue
		}
		g.Static[g.AddArc(sa.Caller, sa.Callee, 0)] = true
	}
}

// RemoveArc deletes the caller→callee arc if present, returning whether
// it was removed. This implements the retrospective's "option to specify
// a set of arcs to be removed from the analysis" for separating
// abstractions trapped in a cycle.
func (g *Graph) RemoveArc(caller, callee string) bool {
	if caller == "" {
		return false
	}
	a, ok := g.Arc(caller, callee)
	if ok {
		g.DeleteArc(a)
	}
	return ok
}

// DeleteArc removes arc a, a live arc's number.
func (g *Graph) DeleteArc(a int32) {
	if g.arcIdx != nil {
		delete(g.arcIdx, arcKeyOf(g.Caller[a], g.Callee[a]))
	}
	g.Callee[a] = -1
	g.dead++
	g.dirty = true
}

// Arcs returns every arc exactly once, ordered by (caller, callee) name
// with spontaneous arcs first.
func (g *Graph) Arcs() []int32 {
	g.Freeze()
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

// Clone returns a copy of g whose columns can be edited and analyzed
// without touching g. Cycle member lists are shared, since nothing
// writes one in place.
func (g *Graph) Clone() *Graph {
	g.Freeze()
	c := *g
	c.Names, c.SelfTicks, c.ChildTicks = slices.Clone(g.Names), slices.Clone(g.SelfTicks), slices.Clone(g.ChildTicks)
	c.TopoNum, c.CycleNum, c.Index = slices.Clone(g.TopoNum), slices.Clone(g.CycleNum), slices.Clone(g.Index)
	c.Caller, c.Callee, c.Count = slices.Clone(g.Caller), slices.Clone(g.Callee), slices.Clone(g.Count)
	c.Sites, c.Static = slices.Clone(g.Sites), slices.Clone(g.Static)
	c.PropSelf, c.PropChild = slices.Clone(g.PropSelf), slices.Clone(g.PropChild)
	c.Cycles = slices.Clone(g.Cycles)
	c.nodes, c.arcIdx = nil, nil
	return &c
}

// Freeze puts the arcs in listing order and derives the adjacency and
// call totals, if an edit has left the graph unfrozen. Arcs keep their
// callee's order, arcs added since the last freeze coming after the
// older ones in the order they were added, and removed arcs are
// dropped. Each caller's row keeps its order the same way. Freeze
// allocates every derived slice afresh, so a slice Adjacency returned
// before stays as it was.
func (g *Graph) Freeze() {
	if g.dirty {
		g.freeze()
	}
}

func (g *Graph) freeze() {
	n, na := len(g.Names), len(g.Callee)
	live := na - g.dead

	// A stable counting sort of the live arcs by callee: pos maps an
	// old arc number to its new one, or -1 for a removed arc.
	arcStart := make([]int32, n+1)
	for _, t := range g.Callee {
		if t >= 0 {
			arcStart[t+1]++
		}
	}
	prefixSum(arcStart)
	cursor := append([]int32(nil), arcStart[:n]...)
	pos := make([]int32, na)
	for a, t := range g.Callee {
		pos[a] = -1
		if t >= 0 {
			pos[a] = cursor[t]
			cursor[t]++
		}
	}
	oldOut, oldOutStart := g.out, g.outStart
	oldCaller := g.Caller
	g.Caller = permute(g.Caller, pos, live)
	g.Callee = permute(g.Callee, pos, live)
	g.Count = permute(g.Count, pos, live)
	g.Sites = permute(g.Sites, pos, live)
	g.Static = permute(g.Static, pos, live)
	g.PropSelf = permute(g.PropSelf, pos, live)
	g.PropChild = permute(g.PropChild, pos, live)

	// Each caller's row: the arcs it had at the last freeze, in their
	// order, then the ones appended since, in theirs.
	g.outStart = make([]int32, n+2)
	for a, f := range g.Caller {
		if f != g.Callee[a] {
			g.outStart[f+2]++
		}
	}
	prefixSum(g.outStart)
	g.out = make([]int32, g.outStart[n+1])
	fill := append([]int32(nil), g.outStart[:n+1]...)
	place := func(old int) {
		if a := pos[old]; a >= 0 {
			f := oldCaller[old] + 1
			g.out[fill[f]] = a
			fill[f]++
		}
	}
	for r := 0; r+1 < len(oldOutStart); r++ {
		for _, a := range oldOut[oldOutStart[r]:oldOutStart[r+1]] {
			place(int(a))
		}
	}
	for a := g.frozen; a < na; a++ {
		if p := pos[a]; p >= 0 && g.Caller[p] != g.Callee[p] {
			place(a)
		}
	}
	g.deriveIn(arcStart)
	g.sumCalls()
	if g.recArc != nil {
		recArc := make([]int32, len(g.recArc))
		for r, a := range g.recArc {
			recArc[r] = -1
			if a >= 0 {
				recArc[r] = pos[a]
			}
		}
		g.recArc = recArc
	}
	g.frozen, g.dead, g.dirty = live, 0, false
	g.arcIdx = nil
}

// prefixSum turns counts into running totals in place.
func prefixSum(s []int32) {
	for i := 1; i < len(s); i++ {
		s[i] += s[i-1]
	}
}

// permute returns col's live elements at their new positions.
func permute[T any](col []T, pos []int32, live int) []T {
	out := make([]T, live)
	for a, p := range pos {
		if p >= 0 {
			out[p] = col[a]
		}
	}
	return out
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
// BuildCtx builds the graph's structure from the records' addresses
// (newShape) and then fills its values from the counts and the
// histogram (Shape.Fill), the one path by which every graph of a
// profile is made. Construction is linear with no map, for every
// input:
//
//   - one node per distinct routine name, in the table's node order
//     (symtab.Table.NodeIndex), so a node's number is the routine's
//     node index and, with unique names, its symbol index, and the
//     table's name order is the graph's;
//   - histogram ticks attributed by table index and summed per node;
//   - each arc record resolved to a caller node (or spontaneous) and a
//     callee node through the table's O(1) address lookup;
//   - records grouped by caller with a stable counting sort, and
//     repeated (caller, callee) pairs within a group merged through a
//     per-callee marker, so counts and Sites sum as call sites merge;
//   - arcs placed in listing order and linked in increasing
//     first-record index, so every callee's arcs and every caller's row
//     are in first-occurrence record order, whatever order the records
//     arrive in.
//
// The graph comes back frozen; the name-keyed indices (Node, AddArc,
// ...) are built on first use.
func BuildCtx(ctx context.Context, tab *symtab.Table, p *gmon.Profile, jobs int) (*Graph, error) {
	s, err := newShape(ctx, tab, p)
	if err != nil {
		return nil, err
	}
	return s.Fill(ctx, tab, p)
}

// Shape is the structural half of a graph BuildCtx made: everything
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
// on. g must be one BuildCtx made from p, edited since only by
// AddStatic, RemoveArc, DeleteArc and scc, so that every count is a
// record's, and neither g's structure nor its edits may change
// afterwards. It returns nil for a graph built by hand.
func (g *Graph) Shape(p *gmon.Profile) *Shape {
	if g.recArc == nil || len(g.recArc) != len(p.Arcs) {
		return nil
	}
	g.Freeze()
	s := &Shape{g: *g, keys: make([]recKey, len(p.Arcs))}
	for r := range p.Arcs {
		s.keys[r] = recKey{p.Arcs[r].FromPC, p.Arcs[r].SelfPC}
	}
	s.g.SelfTicks, s.g.ChildTicks, s.g.Index = nil, nil, nil
	s.g.Count, s.g.PropSelf, s.g.PropChild = nil, nil, nil
	s.g.calls, s.g.selfCalls = nil, nil
	s.g.nodes, s.g.arcIdx = nil, nil
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
// model.Build) writes nothing s holds; editing its structure is not
// allowed.
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
	tr.Counter("graph.arc_records").Add(int64(len(p.Arcs)))
	for r, a := range s.g.recArc {
		if a >= 0 {
			g.Count[a] += p.Arcs[r].Count
		}
	}
	g.sumCalls()
	return &g, nil
}

// newShape builds the structure of p's graph against tab, leaving
// TopoNum and CycleNum zero for scc to assign. It copies no record
// key: only Graph.Shape does, for a caller that keeps the structure.
func newShape(ctx context.Context, tab *symtab.Table, p *gmon.Profile) (*Shape, error) {
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

	// Resolve every record to (caller node + 1, callee node); 0 marks a
	// spontaneous caller, so a record's from is its caller's row.
	recs := p.Arcs
	if len(recs) > math.MaxInt32/2 {
		return nil, fmt.Errorf("callgraph: %d arc records, more than %d", len(recs), math.MaxInt32/2)
	}
	from := make([]int32, len(recs))
	to := make([]int32, len(recs))
	head := make([]int32, nn+2)
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
		head[from[r]+1]++
	}

	// Stable counting sort of record indices by caller.
	prefixSum(head)
	byCaller := make([]int32, len(recs))
	for r, f := range from {
		byCaller[head[f]] = int32(r)
		head[f]++
	}

	// Merge repeated (caller, callee) pairs. Within a caller's group
	// records visit in increasing index, so a pair's first visit is its
	// first record, the leader. mark[t] holds one plus the group
	// position of the latest leader into callee t; a position before
	// the group's start is another caller's, so marks never need
	// clearing. A follower's from becomes -(leader+1). arcStart counts
	// each callee's arcs and outStart each row's non-self arcs.
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
	g.recArc = byCaller
	for r, f := range from {
		if f < 0 {
			a := g.recArc[-f-1]
			g.recArc[r] = a
			g.Sites[a]++
			continue
		}
		t := to[r]
		a := inCur[t]
		inCur[t]++
		g.recArc[r] = a
		g.Caller[a], g.Callee[a] = f-1, t
		g.Sites[a] = 1
		if f-1 != t {
			g.out[outCur[f]] = a
			outCur[f]++
		}
	}
	g.deriveIn(arcStart)
	g.frozen = numArcs
	return s, nil
}

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
// Arcs whose caller could not be identified are "spontaneous": they have
// a nil Caller, contribute to the callee's call count, and propagate time
// to no one.
package callgraph

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/symtab"
)

// Node is one routine in the call graph.
type Node struct {
	Name string

	// ID is the node's creation index: Graph.Nodes()[n.ID] == n. For
	// graphs built from a symbol table with unique routine names it
	// equals the routine's symbol-table index. The analysis passes (scc,
	// propagate, model) key their per-node scratch arrays on it instead
	// of rebuilding map[*Node]int indices on every call.
	ID int

	// SelfTicks is the routine's own sampled time, in clock ticks,
	// attributed from the histogram (possibly fractional under coarse
	// granularity).
	SelfTicks float64

	// In and Out are the incoming and outgoing arcs. Self-arcs appear in
	// both. Spontaneous arcs appear only in In.
	In  []*Arc
	Out []*Arc

	// Cycle is the strongly-connected component containing this node
	// when that component has more than one member; nil otherwise.
	// Assigned by package scc.
	Cycle *Cycle

	// TopoNum is the topological number assigned during cycle discovery:
	// every arc not inside a cycle goes from a higher-numbered node to a
	// lower-numbered one. Assigned by package scc.
	TopoNum int

	// ChildTicks is the time propagated to this routine from its
	// descendants, in ticks. Assigned by package propagate.
	ChildTicks float64

	// Index is the entry number in the call-graph profile listing.
	// Assigned by package report.
	Index int
}

// Calls returns the number of times the routine was called, excluding
// self-recursive calls: the sum of the counts on incoming non-self arcs
// (§3.1: "call counts for routines can be determined by summing the
// counts on arcs directed into that routine").
func (n *Node) Calls() int64 {
	var c int64
	for _, a := range n.In {
		if !a.Self() {
			c += a.Count
		}
	}
	return c
}

// SelfCalls returns the count of self-recursive calls.
func (n *Node) SelfCalls() int64 {
	var c int64
	for _, a := range n.In {
		if a.Self() {
			c += a.Count
		}
	}
	return c
}

// TotalTicks returns self plus propagated descendant time.
func (n *Node) TotalTicks() float64 { return n.SelfTicks + n.ChildTicks }

// InCycle reports whether the node belongs to a multi-member cycle.
func (n *Node) InCycle() bool { return n.Cycle != nil }

// Arc is a (caller, callee) pair with its traversal count. A nil Caller
// marks a spontaneous arc.
type Arc struct {
	Caller *Node
	Callee *Node
	Count  int64
	// Static marks arcs added from the static call graph; their Count is
	// zero and they never propagate time.
	Static bool
	// Sites is the number of distinct call sites merged into this arc.
	Sites int

	// PropSelf and PropChild are the portions of the callee's self and
	// descendant time propagated along this arc to the caller, in ticks.
	// Assigned by package propagate.
	PropSelf  float64
	PropChild float64
}

// Self reports whether the arc is self-recursive.
func (a *Arc) Self() bool { return a.Caller != nil && a.Caller == a.Callee }

// Spontaneous reports whether the arc's caller is unidentifiable.
func (a *Arc) Spontaneous() bool { return a.Caller == nil }

// IntraCycle reports whether both endpoints are members of the same
// multi-node cycle. Such arcs are listed in the profile but "do not
// propagate any time" (§4).
func (a *Arc) IntraCycle() bool {
	return a.Caller != nil && a.Caller.Cycle != nil && a.Caller.Cycle == a.Callee.Cycle
}

func (a *Arc) String() string {
	from := "<spontaneous>"
	if a.Caller != nil {
		from = a.Caller.Name
	}
	return fmt.Sprintf("%s -> %s (%d)", from, a.Callee.Name, a.Count)
}

// Cycle is a collapsed strongly-connected component with more than one
// member, treated as a single entity for time propagation (§4).
type Cycle struct {
	Number  int // 1-based, for "<cycle N>" display
	Members []*Node

	// ChildTicks is the descendant time propagated into the cycle as a
	// whole. Assigned by package propagate.
	ChildTicks float64

	// Index is the cycle's entry number in the call-graph profile
	// listing. Assigned by package report.
	Index int
}

// SelfTicks sums the members' self time: "our solution collects all
// members of a cycle together, summing the time and call counts for all
// members" (§4).
func (c *Cycle) SelfTicks() float64 {
	var t float64
	for _, m := range c.Members {
		t += m.SelfTicks
	}
	return t
}

// TotalTicks returns the cycle's self plus descendant time.
func (c *Cycle) TotalTicks() float64 { return c.SelfTicks() + c.ChildTicks }

// ExternalCalls counts calls into the cycle from outside it ("not
// counting calls among members of the cycle").
func (c *Cycle) ExternalCalls() int64 {
	var n int64
	for _, m := range c.Members {
		for _, a := range m.In {
			if !a.IntraCycle() && !a.Self() {
				n += a.Count
			}
		}
	}
	return n
}

// InternalCalls counts calls among members (excluding self-recursion).
func (c *Cycle) InternalCalls() int64 {
	var n int64
	for _, m := range c.Members {
		for _, a := range m.In {
			if a.IntraCycle() && !a.Self() {
				n += a.Count
			}
		}
	}
	return n
}

// arena hands out pointer-stable slots from contiguous blocks. Nodes
// and arcs of a graph live in a handful of large slabs instead of one
// heap object each: construction makes O(1) allocations per block
// rather than per element, and traversals walk memory the hardware
// prefetcher understands. Blocks are never reallocated, so every
// pointer handed out stays valid for the life of the graph.
type arena[T any] struct {
	blocks [][]T
}

// arenaBlock is the first slab's size; later slabs double, up to 1<<17
// slots, so a small hand-built graph stays small. A block from take is
// exactly the requested size instead.
const arenaBlock = 64

func (ar *arena[T]) alloc() *T {
	if len(ar.blocks) == 0 {
		ar.blocks = append(ar.blocks, make([]T, 0, arenaBlock))
	}
	cur := ar.blocks[len(ar.blocks)-1]
	if len(cur) == cap(cur) {
		size := 2 * cap(cur)
		if size > 1<<17 {
			size = 1 << 17
		}
		cur = make([]T, 0, size)
		ar.blocks = append(ar.blocks, cur)
	}
	cur = cur[:len(cur)+1]
	ar.blocks[len(ar.blocks)-1] = cur
	return &cur[len(cur)-1]
}

// take hands out the next n slots as one block.
func (ar *arena[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	blk := make([]T, n)
	ar.blocks = append(ar.blocks, blk)
	return blk
}

// arcKey identifies an arc by its endpoint node IDs; the caller half is
// biased by one so a spontaneous (nil) caller keys as zero.
type arcKey uint64

func arcKeyOf(from, to *Node) arcKey {
	f := 0
	if from != nil {
		f = from.ID + 1
	}
	return arcKey(uint64(f)<<32 | uint64(uint32(to.ID)))
}

// Graph is a dynamic call graph, optionally augmented with static arcs.
type Graph struct {
	order  []*Node // creation order: address order for image-built graphs
	Cycles []*Cycle
	arcs   int // live distinct arcs

	// nodes and arcIdx are the name-keyed API's indices: nodes by name,
	// and arcs by endpoint pair so that merging a repeated pair is O(1).
	// BuildCtx does not need them, so they are built from order and In
	// on the first name-keyed call (see index), and a graph that is
	// only analyzed never holds them.
	nodes  map[string]*Node
	arcIdx map[arcKey]*Arc

	nodeArena arena[Node]
	arcArena  arena[Arc]

	// byName is the nodes' name order (see NameOrder): the symbol
	// table's for a graph BuildCtx made, sorted on first use for one
	// built by hand, and dropped by AddNode.
	byName []int32

	// TotalTicks is the histogram's total tick count, including ticks
	// that fell outside every routine.
	TotalTicks float64
	// LostTicks is the portion of TotalTicks not attributable to any
	// routine.
	LostTicks float64
	// Hz is the clock rate: ticks/Hz = seconds.
	Hz int64

	// Spontaneous lists arcs with unidentifiable callers.
	Spontaneous []*Arc
}

// Hertz returns the effective clock rate.
func (g *Graph) Hertz() int64 {
	if g.Hz > 0 {
		return g.Hz
	}
	return gmon.DefaultHz
}

// index builds the name and endpoint-pair indices from the graph's
// nodes and incoming arcs, once.
func (g *Graph) index() {
	if g.nodes != nil {
		return
	}
	g.nodes = make(map[string]*Node, len(g.order))
	g.arcIdx = make(map[arcKey]*Arc, g.arcs)
	for _, n := range g.order {
		g.nodes[n.Name] = n
		for _, a := range n.In {
			g.arcIdx[arcKeyOf(a.Caller, a.Callee)] = a
		}
	}
}

// Node returns the named node, if present. The first call to any
// name-keyed method builds the indices, so even Node must not run
// concurrently with another call on the same graph.
func (g *Graph) Node(name string) (*Node, bool) {
	g.index()
	n, ok := g.nodes[name]
	return n, ok
}

// MustNode returns the named node or panics; for tests.
func (g *Graph) MustNode(name string) *Node {
	n, ok := g.Node(name)
	if !ok {
		panic("callgraph: no node " + name)
	}
	return n
}

// Nodes returns all nodes in creation (address) order. The caller must
// not modify the slice.
func (g *Graph) Nodes() []*Node { return g.order }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.order) }

// NameOrder returns the node IDs sorted by name, then by ID: the order
// every listing breaks its ties in. A graph built from a symbol table
// shares the table's order; one built by hand sorts its names at the
// first call after a node was added. The caller must not modify the
// result.
func (g *Graph) NameOrder() []int32 {
	if g.byName == nil {
		names := make([]string, len(g.order))
		for i, n := range g.order {
			names[i] = n.Name
		}
		g.byName = order.ByName(names)
	}
	return g.byName
}

// NumArcs returns the number of distinct arcs (merged by endpoint
// pair), including spontaneous and static arcs.
func (g *Graph) NumArcs() int { return g.arcs }

// AddNode creates (or returns) the node for name.
func (g *Graph) AddNode(name string) *Node {
	if n, ok := g.Node(name); ok {
		return n
	}
	n := g.nodeArena.alloc()
	n.Name = name
	n.ID = len(g.order)
	g.nodes[name] = n
	g.order = append(g.order, n)
	g.byName = nil
	return n
}

// AddArc records count traversals of caller→callee, merging with an
// existing arc for the pair if present. A nil caller name ("") records a
// spontaneous arc. It returns the arc.
func (g *Graph) AddArc(caller, callee string, count int64) *Arc {
	to := g.AddNode(callee)
	var from *Node
	if caller != "" {
		from = g.AddNode(caller)
	}
	return g.addArc(from, to, count)
}

// addArc is AddArc after name resolution, with the indices built.
func (g *Graph) addArc(from, to *Node, count int64) *Arc {
	k := arcKeyOf(from, to)
	if a := g.arcIdx[k]; a != nil {
		a.Count += count
		a.Sites++
		return a
	}
	a := g.arcArena.alloc()
	*a = Arc{Caller: from, Callee: to, Count: count, Sites: 1}
	g.arcIdx[k] = a
	g.arcs++
	to.In = append(to.In, a)
	if from != nil {
		from.Out = append(from.Out, a)
	} else {
		g.Spontaneous = append(g.Spontaneous, a)
	}
	return a
}

func (g *Graph) findArc(from, to *Node) *Arc {
	return g.arcIdx[arcKeyOf(from, to)]
}

// Arcs returns every arc exactly once, ordered by (caller, callee) name
// with spontaneous arcs first.
func (g *Graph) Arcs() []*Arc {
	arcs := make([]*Arc, 0, g.NumArcs())
	for _, n := range g.order {
		arcs = append(arcs, n.In...)
	}
	sort.Slice(arcs, func(i, j int) bool {
		ci, cj := arcCallerName(arcs[i]), arcCallerName(arcs[j])
		if ci != cj {
			return ci < cj
		}
		return arcs[i].Callee.Name < arcs[j].Callee.Name
	})
	return arcs
}

func arcCallerName(a *Arc) string {
	if a.Caller == nil {
		return ""
	}
	return a.Caller.Name
}

// New creates an empty graph.
func New() *Graph { return &Graph{} }

// Build assembles the dynamic call graph for a profile against a symbol
// table. Every routine in the table becomes a node; histogram ticks are
// attributed to node self-times; arc records become graph arcs, with the
// call-site address mapped to the calling routine and the callee prologue
// address mapped to the called routine.
//
// Arc records whose callee address falls outside every routine are
// rejected (the profile does not match the symbol table). Call sites
// outside every routine are treated as spontaneous.
func Build(tab *symtab.Table, p *gmon.Profile) (*Graph, error) {
	return BuildCtx(context.Background(), tab, p, 1)
}

// BuildCtx is Build with cancellation. jobs is unused: histogram
// attribution is one address-order scan and arc linking is
// order-sensitive, so both run serially and the graph is identical at
// any width. The parameter stays for callers that pass one width to
// every stage.
//
// Construction is one linear pass with no map, for every input:
//
//   - one node per distinct routine name, in the table's node order
//     (symtab.Table.NodeIndex), so Node.ID is the routine's node index
//     and, with unique names, its symbol index, and the table's name
//     order is the graph's;
//   - histogram ticks attributed by table index and summed per node;
//   - each arc record resolved to a caller node (or spontaneous) and a
//     callee node through the table's O(1) address lookup;
//   - records grouped by caller with a stable counting sort, and
//     repeated (caller, callee) pairs within a group merged through a
//     per-callee marker, so counts and Sites sum as call sites merge;
//   - arcs allocated and linked in increasing first-record index, so
//     every In, Out and Spontaneous list is in first-occurrence record
//     order, whatever order the records arrive in.
//
// The name-keyed indices (Node, AddArc, ...) are built on first use.
func BuildCtx(ctx context.Context, tab *symtab.Table, p *gmon.Profile, jobs int) (*Graph, error) {
	tr := obs.FromContext(ctx)
	g := &Graph{Hz: p.ClockHz(), byName: tab.NameOrder()}
	nn := tab.NumNodes()
	nodes := g.nodeArena.take(nn)
	g.order = make([]*Node, nn)
	for i, s := range tab.Syms() {
		if k := tab.NodeIndex(i); g.order[k] == nil {
			nodes[k] = Node{Name: s.Name, ID: k}
			g.order[k] = &nodes[k]
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	attrSpan := tr.Span("attribute")
	ticks, lost := tab.AttributeHistIdx(&p.Hist)
	for i, t := range ticks {
		if t != 0 {
			nodes[tab.NodeIndex(i)].SelfTicks += t
		}
	}
	g.LostTicks = lost
	attrSpan.End()
	g.TotalTicks = float64(p.Hist.TotalTicks())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr.Counter("graph.arc_records").Add(int64(len(p.Arcs)))

	// Resolve every record to (caller node + 1, callee node); 0 marks a
	// spontaneous caller.
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
	for k := 1; k < len(head); k++ {
		head[k] += head[k-1]
	}
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
	// clearing. A follower's from becomes -(leader+1).
	inDeg, outDeg := make([]int32, nn), head[:nn]
	clear(outDeg)
	mark := make([]int32, nn)
	numArcs, spont := 0, 0
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
		inDeg[t]++
		if f == 0 {
			spont++
		} else {
			outDeg[f-1]++
		}
	}

	// Lay every node's In and then Out list out back to back in one
	// slab, sized exactly; inDeg and outDeg become each list's write
	// cursor. Then allocate and link the arcs in increasing leader
	// index: a follower's leader comes before it, so its arc already
	// exists, and rank (reusing byCaller) maps a leader to its arc.
	// Linking writes through the cursors and never touches a Node.
	slab := make([]*Arc, 2*numArcs-spont)
	off := int32(0)
	for i := range nodes {
		in := inDeg[i]
		inDeg[i] = off
		off += in
		out := outDeg[i]
		outDeg[i] = off
		off += out
	}
	if spont > 0 {
		g.Spontaneous = make([]*Arc, 0, spont)
	}
	arcs := g.arcArena.take(numArcs)
	rank := byCaller
	k := int32(0)
	for r, f := range from {
		if f < 0 {
			a := &arcs[rank[-f-1]]
			a.Count += recs[r].Count
			a.Sites++
			continue
		}
		rank[r] = k
		a := &arcs[k]
		k++
		t := to[r]
		*a = Arc{Callee: &nodes[t], Count: recs[r].Count, Sites: 1}
		slab[inDeg[t]] = a
		inDeg[t]++
		if f == 0 {
			g.Spontaneous = append(g.Spontaneous, a)
		} else {
			a.Caller = &nodes[f-1]
			slab[outDeg[f-1]] = a
			outDeg[f-1]++
		}
	}
	off = 0
	for i := range nodes {
		n := &nodes[i]
		if in := inDeg[i]; in > off {
			n.In = slab[off:in:in]
		}
		if out := outDeg[i]; out > inDeg[i] {
			n.Out = slab[inDeg[i]:out:out]
		}
		off = outDeg[i]
	}
	g.arcs = numArcs
	return g, nil
}

// AddStatic merges statically discovered arcs into the graph: an arc
// already present dynamically is left untouched ("no action is
// required"); a new one is added with count zero, marked Static (§4).
func (g *Graph) AddStatic(arcs []object.StaticArc) {
	for _, sa := range arcs {
		from, okF := g.Node(sa.Caller)
		to, okT := g.Node(sa.Callee)
		if okF && okT {
			if a := g.findArc(from, to); a != nil {
				continue
			}
		}
		a := g.AddArc(sa.Caller, sa.Callee, 0)
		a.Static = true
	}
}

// RemoveArc deletes the caller→callee arc if present, returning whether
// it was removed. This implements the retrospective's "option to specify
// a set of arcs to be removed from the analysis" for separating
// abstractions trapped in a cycle.
func (g *Graph) RemoveArc(caller, callee string) bool {
	from, okF := g.Node(caller)
	to, okT := g.Node(callee)
	if !okF || !okT {
		return false
	}
	a := g.findArc(from, to)
	if a == nil {
		return false
	}
	delete(g.arcIdx, arcKeyOf(from, to))
	g.arcs--
	to.In = removeArc(to.In, a)
	from.Out = removeArc(from.Out, a)
	return true
}

func removeArc(arcs []*Arc, a *Arc) []*Arc {
	out := arcs[:0]
	for _, x := range arcs {
		if x != a {
			out = append(out, x)
		}
	}
	return out
}

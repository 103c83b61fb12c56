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
	"sort"

	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/obs"
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
	n      int // total slots handed out
}

// arenaBlock is the default slab size; the first block of a presized
// arena is exactly the requested capacity instead.
const arenaBlock = 8192

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
	ar.n++
	return &cur[len(cur)-1]
}

// reserve sizes the arena's first block for n upcoming slots.
func (ar *arena[T]) reserve(n int) {
	if len(ar.blocks) == 0 && n > 0 {
		ar.blocks = append(ar.blocks, make([]T, 0, n))
	}
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
	nodes  map[string]*Node
	order  []*Node // creation order: address order for image-built graphs
	Cycles []*Cycle

	// arcIdx maps endpoint pairs to their arc, so merging a repeated
	// (caller, callee) pair is O(1) instead of a scan of the callee's
	// incoming arcs — the difference between linear and quadratic graph
	// construction on million-arc profiles.
	arcIdx map[arcKey]*Arc

	nodeArena arena[Node]
	arcArena  arena[Arc]

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

// Node returns the named node, if present.
func (g *Graph) Node(name string) (*Node, bool) {
	n, ok := g.nodes[name]
	return n, ok
}

// MustNode returns the named node or panics; for tests.
func (g *Graph) MustNode(name string) *Node {
	n, ok := g.nodes[name]
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

// NumArcs returns the number of distinct arcs (merged by endpoint
// pair), including spontaneous and static arcs.
func (g *Graph) NumArcs() int { return g.arcArena.n }

// AddNode creates (or returns) the node for name.
func (g *Graph) AddNode(name string) *Node {
	if n, ok := g.nodes[name]; ok {
		return n
	}
	n := g.nodeArena.alloc()
	n.Name = name
	n.ID = len(g.order)
	g.nodes[name] = n
	g.order = append(g.order, n)
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

// addArc is AddArc after name resolution: the index-based fast path
// BuildCtx uses for every profile arc record.
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
func New() *Graph {
	return NewSized(0, 0)
}

// NewSized creates an empty graph with storage reserved for the given
// node and arc counts: the node and arc arenas allocate one block each
// and the lookup indices start at their final size. Callers that know
// the scale up front (BuildCtx knows both exactly) construct the graph
// without rehashing or slab growth.
func NewSized(nodes, arcs int) *Graph {
	g := &Graph{
		nodes:  make(map[string]*Node, nodes),
		arcIdx: make(map[arcKey]*Arc, arcs),
	}
	if nodes > 0 {
		g.order = make([]*Node, 0, nodes)
		g.nodeArena.reserve(nodes)
	}
	g.arcArena.reserve(arcs)
	return g
}

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
// attribution is one address-order scan and arc insertion is
// order-sensitive, so both run serially and the graph is identical at
// any width. The parameter stays for callers that pass one width to
// every stage.
//
// The construction is index-based end to end: nodes are added in
// symbol-table order (so Node.ID equals the symbol index), histogram
// ticks come back as a slice indexed the same way, and each arc record
// resolves its endpoint PCs to symbol indices once, so a million-arc
// profile builds without a string lookup per record. When routine
// names collide (two symbols share a name and collapse into one node)
// the slower name-keyed path preserves the historic merge semantics.
func BuildCtx(ctx context.Context, tab *symtab.Table, p *gmon.Profile, jobs int) (*Graph, error) {
	tr := obs.FromContext(ctx)
	g := NewSized(tab.Len(), len(p.Arcs))
	g.Hz = p.ClockHz()
	for _, s := range tab.Syms() {
		g.AddNode(s.Name)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	byIndex := g.Len() == tab.Len() // false only on duplicate routine names
	endAttr := tr.Span("attribute")
	if byIndex {
		ticks, lost := tab.AttributeHistIdx(&p.Hist)
		for i, t := range ticks {
			if t != 0 {
				g.order[i].SelfTicks = t
			}
		}
		g.LostTicks = lost
	} else {
		ticks, lost := tab.AttributeHist(&p.Hist)
		for name, t := range ticks {
			g.MustNode(name).SelfTicks = t
		}
		g.LostTicks = lost
	}
	endAttr()
	g.TotalTicks = float64(p.Hist.TotalTicks())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr.Counter("graph.arc_records").Add(int64(len(p.Arcs)))
	if byIndex {
		// Resolve every record to table indices first, then size each
		// node's adjacency exactly before linking: one allocation per
		// node side instead of an append-doubling chain per node,
		// which at millions of arcs is the difference between
		// memory-speed linking and GC churn. Merged duplicate records
		// make the counts an upper bound; that only over-reserves.
		type endpoints struct{ from, to int32 }
		res := make([]endpoints, len(p.Arcs))
		inDeg := make([]int32, g.Len())
		outDeg := make([]int32, g.Len())
		spont := 0
		for i, rec := range p.Arcs {
			calleeIdx, ok := tab.FindIndex(rec.SelfPC)
			if !ok {
				return nil, fmt.Errorf("callgraph: arc callee pc %#x is not in any routine", rec.SelfPC)
			}
			fi := int32(-1)
			if rec.FromPC >= 0 {
				if ci, ok := tab.FindIndex(rec.FromPC); ok {
					fi = int32(ci)
					outDeg[ci]++
				}
			}
			if fi < 0 {
				spont++
			}
			res[i] = endpoints{from: fi, to: int32(calleeIdx)}
			inDeg[calleeIdx]++
		}
		for i, n := range g.order {
			if inDeg[i] > 0 {
				n.In = make([]*Arc, 0, inDeg[i])
			}
			if outDeg[i] > 0 {
				n.Out = make([]*Arc, 0, outDeg[i])
			}
		}
		if spont > 0 && g.Spontaneous == nil {
			g.Spontaneous = make([]*Arc, 0, spont)
		}
		for i, rec := range p.Arcs {
			var from *Node
			if res[i].from >= 0 {
				from = g.order[res[i].from]
			}
			g.addArc(from, g.order[res[i].to], rec.Count)
		}
		return g, nil
	}
	for _, rec := range p.Arcs {
		calleeIdx, ok := tab.FindIndex(rec.SelfPC)
		if !ok {
			return nil, fmt.Errorf("callgraph: arc callee pc %#x is not in any routine", rec.SelfPC)
		}
		var from *Node
		if rec.FromPC >= 0 {
			if ci, ok := tab.FindIndex(rec.FromPC); ok {
				from = g.MustNode(tab.Syms()[ci].Name)
			}
		}
		g.addArc(from, g.MustNode(tab.Syms()[calleeIdx].Name), rec.Count)
	}
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

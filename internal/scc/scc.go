// Package scc discovers strongly-connected components in the call graph
// and assigns topological numbers, implementing the paper's §4:
//
//	"we discover strongly-connected components in the call graph, treat
//	each such component as a single node, and then sort the resulting
//	graph. We use a variation of Tarjan's strongly-connected components
//	algorithm that discovers strongly-connected components as it is
//	assigning topological order numbers."
//
// Tarjan's algorithm completes components in reverse topological order of
// the condensation graph — a component is finished only after everything
// it calls has finished — so numbering components in completion order
// yields exactly the paper's invariant: every arc that is not internal to
// a cycle goes from a higher-numbered node to a lower-numbered node
// (Figure 1, and Figure 3 after cycle collapsing).
//
// Only components with more than one member become Cycles. A
// self-recursive routine is "a trivial cycle in the call graph" whose
// self-arcs are listed but excluded from propagation; it needs no
// collapsing.
//
// The traversal is iterative (an explicit frame stack, so million-node
// chains cannot overflow the goroutine stack) and allocation-light: it
// walks the graph's own int32 adjacency, and all per-run arrays come
// from a pooled scratch. cyclebreak re-analyzes one graph after each
// arc it picks, with that arc masked out rather than deleted
// (AnalyzeWithout); each re-run costs no steady-state allocations
// beyond the cycles it discovers.
package scc

import (
	"sync"

	"repro/internal/callgraph"
)

// scratch is the reusable working set of one Analyze call. All slices
// are sized to the graph's nodes and recycled through scratchPool; only
// Cycle values and their member slices survive a run.
type scratch struct {
	idx     []int32 // Tarjan discovery numbers; 0 = unvisited
	low     []int32
	onStack []bool
	stack   []int32
	frames  []frame
}

// frame is one suspended DFS visit: node v, resuming at position ai in
// the graph's outgoing adjacency.
type frame struct {
	v  int32
	ai int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow readies the scratch for n nodes, reusing prior capacity.
// idx/low/onStack must start zeroed; stack and frames are
// length-managed by the traversal.
func (sc *scratch) grow(n int) {
	sc.idx = growInt32(sc.idx, n)
	sc.low = growInt32(sc.low, n)
	clear(sc.idx)
	if cap(sc.onStack) < n {
		sc.onStack = make([]bool, n)
	} else {
		sc.onStack = sc.onStack[:n]
		clear(sc.onStack)
	}
	sc.stack = sc.stack[:0]
	sc.frames = sc.frames[:0]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Analyze finds strongly-connected components among the graph's nodes,
// records multi-member components as cycles (setting the CycleNum
// column and Graph.Cycles), and assigns the TopoNum column. Static
// (count-zero) arcs participate: they "may complete strongly connected
// components" (§4). Self-arcs do not.
func Analyze(g *callgraph.Graph) { AnalyzeWithout(g, nil) }

// AnalyzeWithout is Analyze as if every arc a with removed[a] set were
// not in the graph; a nil removed masks nothing. It clears previous
// results first, and a repeat run reuses pooled scratch, so analyzing
// one graph under a growing mask is allocation-light.
func AnalyzeWithout(g *callgraph.Graph, removed []bool) {
	_, _, out, outStart := g.Adjacency()
	callee := g.Callee
	n := g.Len()
	g.Cycles = nil
	clear(g.CycleNum)
	clear(g.TopoNum)

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.grow(n)

	var (
		counter int32
		topo    int32
	)
	visit := func(v int32) {
		counter++
		sc.idx[v], sc.low[v] = counter, counter
		sc.stack = append(sc.stack, v)
		sc.onStack[v] = true
		sc.frames = append(sc.frames, frame{v: v, ai: outStart[v]})
	}

	for s := 0; s < n; s++ {
		if sc.idx[s] != 0 {
			continue
		}
		visit(int32(s))
		for len(sc.frames) > 0 {
			f := &sc.frames[len(sc.frames)-1]
			v := f.v
			descended := false
			for f.ai < outStart[v+1] {
				a := out[f.ai]
				f.ai++
				if removed != nil && removed[a] {
					continue
				}
				w := callee[a]
				if sc.idx[w] == 0 {
					visit(w)
					descended = true
					break
				}
				if sc.onStack[w] && sc.idx[w] < sc.low[v] {
					sc.low[v] = sc.idx[w]
				}
			}
			if descended {
				continue
			}
			sc.frames = sc.frames[:len(sc.frames)-1]
			if len(sc.frames) > 0 {
				p := sc.frames[len(sc.frames)-1].v
				if sc.low[v] < sc.low[p] {
					sc.low[p] = sc.low[v]
				}
			}
			if sc.low[v] != sc.idx[v] {
				continue
			}
			// v is the root of a component; everything above it on the
			// stack is a member. Components complete callee-first, so
			// this numbering gives callers higher numbers.
			topo++
			var members []int32
			for {
				w := sc.stack[len(sc.stack)-1]
				sc.stack = sc.stack[:len(sc.stack)-1]
				sc.onStack[w] = false
				g.TopoNum[w] = topo
				if w == v && members == nil {
					// Single-member component: the overwhelmingly common
					// case allocates nothing.
					break
				}
				members = append(members, w)
				if w == v {
					break
				}
			}
			if len(members) > 1 {
				// Reverse to discovery order for determinism.
				for i, j := 0, len(members)-1; i < j; i, j = i+1, j-1 {
					members[i], members[j] = members[j], members[i]
				}
				num := int32(len(g.Cycles) + 1)
				for _, m := range members {
					g.CycleNum[m] = num
				}
				g.Cycles = append(g.Cycles, callgraph.Cycle{Number: int(num), Members: members})
			}
		}
	}
}

// TopoOrder returns the graph's node numbers sorted by ascending
// topological number (callees before callers), the order in which time
// propagation must visit them. Members of a cycle share a number and
// stay adjacent in creation (address) order: a stable counting sort
// over the dense component numbers, O(n).
func TopoOrder(g *callgraph.Graph) []int32 {
	maxNum := int32(0)
	for _, t := range g.TopoNum {
		maxNum = max(maxNum, t)
	}
	// starts[t] = where number t's run begins; +2 keeps the unanalyzed
	// TopoNum 0 addressable.
	starts := make([]int32, maxNum+2)
	for _, t := range g.TopoNum {
		starts[t+1]++
	}
	for t := 1; t < len(starts); t++ {
		starts[t] += starts[t-1]
	}
	out := make([]int32, g.Len())
	for v, t := range g.TopoNum {
		out[starts[t]] = int32(v)
		starts[t]++
	}
	return out
}

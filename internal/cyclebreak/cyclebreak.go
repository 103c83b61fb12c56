// Package cyclebreak chooses call-graph arcs to delete so that large
// cycles break apart and the abstractions trapped inside them can be
// timed separately.
//
// The retrospective describes the feature: profiling the BSD kernel
// produced "several large cycles", closed by "just a few arcs — with low
// traversal counts". gprof grew an option to remove a user-specified arc
// set, and, for users unable to find one, "a heuristic to help choose
// arcs to remove. The underlying problem is NP-complete, so we added a
// bound on the number of arcs the tool would attempt to remove."
//
// The underlying problem is minimum feedback arc set. The heuristic here
// is greedy: while any multi-member cycle remains and the bound is not
// exhausted, mask out the lowest-count dynamic arc internal to a cycle
// (ties broken lexicographically), then re-run the component analysis
// without it. The caller builds the final graph with the chosen arcs in
// its removal set.
// Deleting low-count arcs loses the least information, matching the
// retrospective's observation that "the information lost by omitting
// these arcs was far less than the information gained by separating the
// abstractions formerly contained in the cycle".
package cyclebreak

import (
	"fmt"
	"strings"

	"repro/internal/callgraph"
	"repro/internal/scc"
)

// ArcID names one arc by its endpoints.
type ArcID = callgraph.ArcID

// ParseArcID parses "caller/callee" (the gprof -k option's syntax).
func ParseArcID(s string) (ArcID, error) {
	i := strings.IndexByte(s, '/')
	if i <= 0 || i == len(s)-1 {
		return ArcID{}, fmt.Errorf("cyclebreak: bad arc %q (want caller/callee)", s)
	}
	return ArcID{Caller: s[:i], Callee: s[i+1:]}, nil
}

// DefaultMaxArcs is the bound on the number of arcs the heuristic will
// attempt to remove when Options.MaxArcs is zero.
const DefaultMaxArcs = 10

// Options controls the heuristic.
type Options struct {
	// MaxArcs bounds how many arcs Suggest may propose; 0 means
	// DefaultMaxArcs.
	MaxArcs int
}

// Suggestion is the heuristic's result.
type Suggestion struct {
	// Arcs to remove, in removal order.
	Arcs []ArcID
	// Counts holds each removed arc's traversal count (the information
	// lost by deleting it).
	Counts []int64
	// Complete reports whether removing Arcs leaves the graph free of
	// multi-member cycles; false means the bound was exhausted first.
	Complete bool
}

// Suggest computes a set of arcs whose removal breaks every multi-member
// cycle, without modifying g: it masks arcs out of g's structure and
// analyzes the components into its own TopoNum, CycleNum and Cycles.
func Suggest(g *callgraph.Graph, opt Options) Suggestion {
	max := opt.MaxArcs
	if max <= 0 {
		max = DefaultMaxArcs
	}
	shadow := *g
	shadow.TopoNum = make([]int32, g.Len())
	shadow.CycleNum = make([]int32, g.Len())
	removed := make([]bool, g.NumArcs())
	var sug Suggestion
	for len(sug.Arcs) < max {
		scc.AnalyzeWithout(&shadow, removed)
		victim, ok := pickVictim(&shadow, removed)
		if !ok {
			sug.Complete = true
			return sug
		}
		sug.Arcs = append(sug.Arcs, ArcID{Caller: g.Names[g.Caller[victim]], Callee: g.Names[g.Callee[victim]]})
		sug.Counts = append(sug.Counts, g.Count[victim])
		removed[victim] = true
	}
	scc.AnalyzeWithout(&shadow, removed)
	sug.Complete = len(shadow.Cycles) == 0
	return sug
}

// pickVictim returns the cheapest intra-cycle arc not yet removed, or
// false when the graph is acyclic: the lowest count, then the lowest
// caller and callee names. Static (count-zero) arcs are the cheapest of
// all: they carry no dynamic information.
func pickVictim(g *callgraph.Graph, removed []bool) (int32, bool) {
	best := int32(-1)
	for a := range int32(g.NumArcs()) {
		if removed[a] || g.IsSelf(a) || !g.IntraCycle(a) {
			continue
		}
		if best < 0 || less(g, a, best) {
			best = a
		}
	}
	return best, best >= 0
}

func less(g *callgraph.Graph, a, b int32) bool {
	if g.Count[a] != g.Count[b] {
		return g.Count[a] < g.Count[b]
	}
	if ca, cb := g.Names[g.Caller[a]], g.Names[g.Caller[b]]; ca != cb {
		return ca < cb
	}
	return g.Names[g.Callee[a]] < g.Names[g.Callee[b]]
}

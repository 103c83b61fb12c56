// Package propagate implements the paper's time-propagation scheme (§4):
// starting from each routine's sampled self time, execution time flows
// from descendants to ancestors along the call graph's arcs,
//
//	T_r = S_r + Σ_{r CALLS e} T_e × C_e^r / C_e
//
// where C_e is the number of calls to e and C_e^r the calls from r to e:
// each caller is accountable for its share of the callee's total time, in
// proportion to how often it called.
//
// Nodes are visited in the topological order assigned by package scc
// (callees before callers), so "execution time can be propagated from
// descendants to ancestors after a single traversal of each arc".
//
// Cycles found by scc are treated as single entities: member self times
// sum, calls into the cycle share the cycle's total, intra-cycle arcs are
// listed but propagate nothing, and self-recursive arcs never propagate
// (§4: "time is not propagated from one member of a cycle to another").
// Static arcs carry count zero and therefore propagate nothing. Time
// attributed to a spontaneous caller is computed (for display) but flows
// to no one.
package propagate

import (
	"context"
	"math"

	"repro/internal/callgraph"
	"repro/internal/scc"
)

// Run performs propagation over an analyzed graph (scc.Analyze must have
// been called). It fills in the ChildTicks, PropSelf and PropChild
// columns and Cycle.ChildTicks. Run is idempotent.
func Run(g *callgraph.Graph) {
	_ = RunCtx(context.Background(), g, 1)
}

// RunCtx is Run with cancellation. jobs is unused: propagation is one
// serial walk at every width, so the floating-point additions happen
// in the same order whatever -jobs says. Scheduling the condensation
// DAG by depth level was slower on deep call graphs, which leave only
// a handful of units per level (DESIGN.md §16). The parameter stays
// for callers that pass one width to every stage.
func RunCtx(ctx context.Context, g *callgraph.Graph, jobs int) error {
	clear(g.ChildTicks)
	clear(g.PropSelf)
	clear(g.PropChild)
	for i := range g.Cycles {
		g.Cycles[i].ChildTicks = 0
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	doneCycle := make([]bool, len(g.Cycles)+1)
	for _, v := range scc.TopoOrder(g) {
		if c := g.CycleNum[v]; c != 0 {
			if doneCycle[c] {
				continue
			}
			doneCycle[c] = true
			cy := &g.Cycles[c-1]
			distribute(g, cy.Members, cy.ExternalCalls(g), cy.SelfTicks(g), cy.ChildTicks)
			continue
		}
		distribute(g, []int32{v}, g.Calls(v), g.SelfTicks[v], g.ChildTicks[v])
	}
	return nil
}

// distribute shares a unit's self and child time among the arcs
// entering it from outside, in proportion to their counts, accumulating
// into each caller's unit (or nowhere, for spontaneous arcs). A unit is
// a node, or a collapsed cycle whose members' summed time is shared
// among the arcs entering the cycle; calls is the unit's count of such
// calls.
func distribute(g *callgraph.Graph, members []int32, calls int64, self, child float64) {
	if calls <= 0 {
		return
	}
	for _, m := range members {
		for _, a := range g.In(m) {
			if g.Count[a] <= 0 || g.IntraCycle(a) {
				continue // static arcs and arcs inside a cycle never propagate
			}
			frac := float64(g.Count[a]) / float64(calls)
			g.PropSelf[a] = self * frac
			g.PropChild[a] = child * frac
			f := g.Caller[a]
			if f < 0 {
				continue // spontaneous: computed for display, flows nowhere
			}
			if pc := g.CycleNum[f]; pc != 0 {
				g.Cycles[pc-1].ChildTicks += g.PropSelf[a] + g.PropChild[a]
			} else {
				g.ChildTicks[f] += g.PropSelf[a] + g.PropChild[a]
			}
		}
	}
}

// CheckConservation verifies the propagation invariant: every unit's
// total time is either retained (units nothing calls) or fully
// distributed to parents and spontaneous shares. It returns the absolute
// discrepancy between (retained + spontaneous) and total self time; a
// correct run returns a value within floating-point noise of zero. Used
// by core's check on every analysis, and by the tests.
func CheckConservation(g *callgraph.Graph) float64 {
	var retained, selfSum, spont float64
	seen := make([]bool, len(g.Cycles)+1)
	for v := range int32(g.Len()) {
		if c := g.CycleNum[v]; c != 0 {
			if seen[c] {
				continue
			}
			seen[c] = true
			cy := &g.Cycles[c-1]
			selfSum += cy.SelfTicks(g)
			if cy.ExternalCalls(g) == 0 {
				retained += cy.TotalTicks(g)
			}
			continue
		}
		selfSum += g.SelfTicks[v]
		if g.Calls(v) == 0 {
			retained += g.SelfTicks[v] + g.ChildTicks[v]
		}
	}
	for _, a := range g.Spontaneous() {
		spont += g.PropSelf[a] + g.PropChild[a]
	}
	return math.Abs(retained + spont - selfSum)
}

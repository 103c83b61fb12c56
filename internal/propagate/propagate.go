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
// been called). It fills in Node.ChildTicks, Cycle.ChildTicks, and the
// per-arc PropSelf/PropChild fields. Run is idempotent.
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
	for _, n := range g.Nodes() {
		n.ChildTicks = 0
		for _, a := range n.In {
			a.PropSelf, a.PropChild = 0, 0
		}
	}
	for _, c := range g.Cycles {
		c.ChildTicks = 0
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	doneCycle := make([]bool, len(g.Cycles)+1)
	for _, n := range scc.TopoOrder(g) {
		if c := n.Cycle; c != nil {
			if doneCycle[c.Number] {
				continue
			}
			doneCycle[c.Number] = true
			distributeCycle(c)
			continue
		}
		distributeNode(n)
	}
	return nil
}

// distributeNode shares a node's self+child time among its incoming
// arcs in proportion to their counts, accumulating into each caller's
// unit (or nowhere, for spontaneous arcs).
func distributeNode(n *callgraph.Node) {
	calls := n.Calls()
	if calls <= 0 {
		return
	}
	self, child := n.SelfTicks, n.ChildTicks
	for _, a := range n.In {
		if a.Self() || a.Count <= 0 {
			continue // self-recursion and static arcs never propagate
		}
		frac := float64(a.Count) / float64(calls)
		a.PropSelf = self * frac
		a.PropChild = child * frac
		if a.Caller == nil {
			continue // spontaneous: computed for display, flows nowhere
		}
		if pc := a.Caller.Cycle; pc != nil {
			pc.ChildTicks += a.PropSelf + a.PropChild
		} else {
			a.Caller.ChildTicks += a.PropSelf + a.PropChild
		}
	}
}

// distributeCycle is distributeNode for a collapsed cycle: the members'
// summed time is shared among the arcs entering the cycle from outside.
func distributeCycle(c *callgraph.Cycle) {
	calls := c.ExternalCalls()
	if calls <= 0 {
		return
	}
	self, child := c.SelfTicks(), c.ChildTicks
	for _, m := range c.Members {
		for _, a := range m.In {
			if a.IntraCycle() || a.Self() || a.Count <= 0 {
				continue
			}
			frac := float64(a.Count) / float64(calls)
			a.PropSelf = self * frac
			a.PropChild = child * frac
			if a.Caller == nil {
				continue
			}
			if pc := a.Caller.Cycle; pc != nil {
				pc.ChildTicks += a.PropSelf + a.PropChild
			} else {
				a.Caller.ChildTicks += a.PropSelf + a.PropChild
			}
		}
	}
}

// CheckConservation verifies the propagation invariant: every unit's
// total time is either retained (units nothing calls) or fully
// distributed to parents and spontaneous shares. It returns the absolute
// discrepancy between (retained + spontaneous) and total self time; a
// correct run returns a value within floating-point noise of zero. Used
// by tests and the experiment harness.
func CheckConservation(g *callgraph.Graph) float64 {
	var retained, selfSum, spont float64
	seen := make(map[*callgraph.Cycle]bool)
	for _, n := range g.Nodes() {
		if c := n.Cycle; c != nil {
			if seen[c] {
				continue
			}
			seen[c] = true
			selfSum += c.SelfTicks()
			if c.ExternalCalls() == 0 {
				retained += c.TotalTicks()
			}
			continue
		}
		selfSum += n.SelfTicks
		if n.Calls() == 0 {
			retained += n.TotalTicks()
		}
	}
	for _, a := range g.Spontaneous {
		spont += a.PropSelf + a.PropChild
	}
	return math.Abs(retained + spont - selfSum)
}

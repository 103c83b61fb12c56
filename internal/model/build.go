package model

import (
	"repro/internal/callgraph"
	"repro/internal/order"
)

// Build condenses an analyzed call graph into the serializable profile
// model. The graph must already have cycles discovered (scc.Analyze)
// and time propagated (propagate.Run*); Build assigns the listing
// indices (callgraph.AssignIndexes) as its first step, so it also
// fixes Node.Index / Cycle.Index on the graph.
//
// Every ordering a renderer depends on is baked in here:
//
//   - Routines in graph node order (address order for image graphs);
//   - Cycles in discovery order, members in discovery order;
//   - Arcs grouped by callee in routine order, each callee's incoming
//     arcs in insertion order (the order the pointer-based renderers
//     walked n.In, which the listing's stable sorts tie-break on);
//   - Flat rows pre-sorted in presentation order;
//   - Links: the arcs' in and out adjacency and the cycles' members,
//     by routine position, and the graph's name order.
//
// Build runs in O(nodes + arcs): call counts and per-cycle totals are
// computed in one pass each rather than through the graph's
// per-query accessors, which rescan incoming arcs on every call.
func Build(g *callgraph.Graph) *Profile {
	callgraph.AssignIndexes(g)

	p := &Profile{
		Schema:       Schema,
		Hz:           g.Hertz(),
		TotalTicks:   g.TotalTicks,
		LostTicks:    g.LostTicks,
		TotalSeconds: g.TotalTicks / float64(g.Hertz()),
	}

	nodes := g.Nodes()
	// One pass over each node's incoming arcs for its call counts; the
	// accessor pair (Calls, SelfCalls) would make two. Node.ID is the
	// position in the creation-ordered node list, so a flat slice
	// replaces the pointer-keyed map.
	type counts struct{ calls, selfCalls int64 }
	callsOf := make([]counts, len(nodes))
	for i, n := range nodes {
		var c counts
		for _, a := range n.In {
			if a.Self() {
				c.selfCalls += a.Count
			} else {
				c.calls += a.Count
			}
		}
		callsOf[i] = c
	}

	p.Routines = make([]Routine, 0, len(nodes))
	for _, n := range nodes {
		c := callsOf[n.ID]
		r := Routine{
			Name:         n.Name,
			Index:        n.Index,
			SelfTicks:    n.SelfTicks,
			ChildTicks:   n.ChildTicks,
			SelfSeconds:  p.Seconds(n.SelfTicks),
			ChildSeconds: p.Seconds(n.ChildTicks),
			Calls:        c.calls,
			SelfCalls:    c.selfCalls,
		}
		if n.InCycle() {
			r.Cycle = n.Cycle.Number
		}
		p.Routines = append(p.Routines, r)
	}

	// Per-cycle totals once per cycle, not once per arc. Cycle numbers
	// are dense and 1-based.
	extCalls := make([]int64, len(g.Cycles)+1)
	for _, c := range g.Cycles {
		ext := c.ExternalCalls()
		extCalls[c.Number] = ext
		mc := Cycle{
			Number:        c.Number,
			Index:         c.Index,
			Members:       make([]string, 0, len(c.Members)),
			SelfTicks:     c.SelfTicks(),
			ChildTicks:    c.ChildTicks,
			ExternalCalls: ext,
			InternalCalls: c.InternalCalls(),
		}
		for _, m := range c.Members {
			mc.Members = append(mc.Members, m.Name)
		}
		p.Cycles = append(p.Cycles, mc)
	}

	p.Arcs = make([]Arc, 0, g.NumArcs())
	for _, n := range nodes {
		for _, a := range n.In {
			row := Arc{
				From:           -1,
				To:             int32(n.ID),
				Count:          a.Count,
				Sites:          a.Sites,
				Static:         a.Static,
				PropSelfTicks:  a.PropSelf,
				PropChildTicks: a.PropChild,
			}
			if a.Caller != nil {
				row.From = int32(a.Caller.ID)
			}
			// The calls/total denominator: calls into the callee, or
			// into its whole cycle when it is a member.
			if n.InCycle() {
				row.TotalCalls = extCalls[n.Cycle.Number]
			} else {
				row.TotalCalls = callsOf[n.ID].calls
			}
			p.Arcs = append(p.Arcs, row)
		}
	}
	p.links = newLinks(p, func(c, j int) int32 { return int32(g.Cycles[c].Members[j].ID) }, g.NameOrder())
	p.buildFlat()
	return p
}

// buildFlat computes the flat profile rows (§5.1) and the never-called
// list from the routines. Both walk the name order: the never-called
// routines are the unexercised ones in that order, and the exercised
// ones are stably sorted by decreasing calls and then by decreasing
// self ticks, so rows order by self time, then calls, then name.
func (p *Profile) buildFlat() {
	keys := make([]order.Keyed, 0, len(p.Routines))
	for _, i := range p.links.ByName() {
		r := &p.Routines[i]
		calls := r.Calls + r.SelfCalls
		if calls == 0 && r.SelfTicks == 0 {
			p.NeverCalled = append(p.NeverCalled, r.Name)
			continue
		}
		keys = append(keys, order.Keyed{Key: order.DescInt(calls), Pos: i})
	}
	order.SortStable(keys)
	for k := range keys {
		keys[k].Key = order.DescFloat(p.Routines[keys[k].Pos].SelfTicks)
	}
	order.SortStable(keys)

	p.Flat = make([]FlatRow, 0, len(keys))
	var cum float64
	for _, k := range keys {
		r := &p.Routines[k.Pos]
		calls := r.Calls + r.SelfCalls
		selfSecs := p.Seconds(r.SelfTicks)
		cum += selfSecs
		fr := FlatRow{
			Name:              r.Name,
			Cycle:             r.Cycle,
			Percent:           p.Percent(r.SelfTicks),
			CumulativeSeconds: cum,
			SelfSeconds:       selfSecs,
			Calls:             calls,
		}
		if calls > 0 {
			fr.SelfMsPerCall = selfSecs * 1000 / float64(calls)
			if r.Cycle == 0 {
				fr.TotalMsPerCall = p.Seconds(r.TotalTicks()) * 1000 / float64(calls)
			}
		}
		p.Flat = append(p.Flat, fr)
	}
}

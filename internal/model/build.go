package model

import (
	"repro/internal/callgraph"
	"repro/internal/order"
)

// Build condenses an analyzed call graph into the serializable profile
// model. The graph must already have cycles discovered (scc.Analyze)
// and time propagated (propagate.Run*); Build assigns the listing
// indices (callgraph.AssignIndexes) as its first step, so it also
// fixes the graph's Index column and Cycle.Index.
//
// Every ordering a renderer depends on is baked in here:
//
//   - Routines in graph node order (address order for image graphs);
//   - Cycles in discovery order, members in discovery order;
//   - Arcs in the graph's arc order: grouped by callee in routine
//     order, each callee's arcs in the order they were first recorded,
//     which the listing's stable sorts tie-break on;
//   - Flat rows pre-sorted in presentation order;
//   - Links: the graph's own in and out adjacency, whose arc numbers
//     are positions in Arcs, the cycles' members, by routine position,
//     and the graph's name order.
//
// Build runs in O(nodes + arcs): it copies the graph's columns, and
// computes each cycle's totals once.
func Build(g *callgraph.Graph) *Profile {
	callgraph.AssignIndexes(g)

	p := &Profile{
		Schema:       Schema,
		Hz:           g.Hertz(),
		TotalTicks:   g.TotalTicks,
		LostTicks:    g.LostTicks,
		TotalSeconds: g.TotalTicks / float64(g.Hertz()),
	}

	p.Routines = make([]Routine, g.Len())
	for v := range int32(g.Len()) {
		p.Routines[v] = Routine{
			Name:         g.Names[v],
			Index:        int(g.Index[v]),
			Cycle:        int(g.CycleNum[v]),
			SelfTicks:    g.SelfTicks[v],
			ChildTicks:   g.ChildTicks[v],
			SelfSeconds:  p.Seconds(g.SelfTicks[v]),
			ChildSeconds: p.Seconds(g.ChildTicks[v]),
			Calls:        g.Calls(v),
			SelfCalls:    g.SelfCalls(v),
		}
	}

	in, inStart, out, outStart := g.Adjacency()
	l := &Links{in: in, inStart: inStart, out: out, outStart: outStart,
		memberStart: make([]int32, len(g.Cycles)+1), byName: g.NameOrder()}

	// Per-cycle totals once per cycle, not once per arc. Cycle numbers
	// are dense and 1-based.
	extCalls := make([]int64, len(g.Cycles)+1)
	if len(g.Cycles) > 0 {
		p.Cycles = make([]Cycle, len(g.Cycles))
	}
	for i := range g.Cycles {
		c := &g.Cycles[i]
		extCalls[c.Number] = c.ExternalCalls(g)
		mc := Cycle{
			Number:        c.Number,
			Index:         c.Index,
			Members:       make([]string, len(c.Members)),
			SelfTicks:     c.SelfTicks(g),
			ChildTicks:    c.ChildTicks,
			ExternalCalls: extCalls[c.Number],
			InternalCalls: c.InternalCalls(g),
		}
		for j, m := range c.Members {
			mc.Members[j] = g.Names[m]
		}
		p.Cycles[i] = mc
		l.members = append(l.members, c.Members...)
		l.memberStart[i+1] = int32(len(l.members))
	}

	p.Arcs = make([]Arc, g.NumArcs())
	for a := range p.Arcs {
		to := g.Callee[a]
		// The calls/total denominator: calls into the callee, or into
		// its whole cycle when it is a member.
		total := g.Calls(to)
		if c := g.CycleNum[to]; c != 0 {
			total = extCalls[c]
		}
		p.Arcs[a] = Arc{
			From:           g.Caller[a],
			To:             to,
			Count:          g.Count[a],
			TotalCalls:     total,
			Sites:          int(g.Sites[a]),
			Static:         g.Static[a],
			PropSelfTicks:  g.PropSelf[a],
			PropChildTicks: g.PropChild[a],
		}
	}
	p.links = l
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

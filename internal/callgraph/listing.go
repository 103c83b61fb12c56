package callgraph

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
)

// AssignIndexes orders profile entries by decreasing total time and
// numbers them (paper §5.2: entries "sorted by total time"), recording
// each entry's number in Node.Index / Cycle.Index. Cycle members
// receive indices immediately after their cycle's entry, ordered by
// decreasing self time. Presentation layers build on the result via
// model.Build.
func AssignIndexes(g *Graph) {
	idx := 1
	for _, u := range sortedUnits(g) {
		if int(u.pos) < len(g.order) {
			g.order[u.pos].Index = idx
			idx++
			continue
		}
		c := g.Cycles[int(u.pos)-len(g.order)]
		c.Index = idx
		idx++
		members := append([]*Node(nil), c.Members...)
		slices.SortStableFunc(members, func(a, b *Node) int {
			switch {
			case a.SelfTicks > b.SelfTicks:
				return -1
			case a.SelfTicks < b.SelfTicks:
				return 1
			}
			return 0
		})
		for _, m := range members {
			m.Index = idx
			idx++
		}
	}
}

// unit is the sort key of a listing unit: a free node, at pos in the
// node order, or a whole cycle, at pos-len(order) in Cycles. The keys
// are computed once, since the comparator runs O(n log n) times.
type unit struct {
	total float64
	name  string
	pos   int32
}

// compareUnits orders units by decreasing total time, then by name,
// then by position. Position makes the order total, so an unstable
// sort gives exactly the permutation a stable sort by time and name
// would: free nodes in node order, then cycles in discovery order.
func compareUnits(a, b unit) int {
	if a.total != b.total {
		if a.total > b.total {
			return -1
		}
		return 1
	}
	if c := strings.Compare(a.name, b.name); c != 0 {
		return c
	}
	return cmp.Compare(a.pos, b.pos)
}

// sortedUnits collects the listing units (free nodes and cycles) in
// listing order.
func sortedUnits(g *Graph) []unit {
	units := make([]unit, 0, len(g.order)+len(g.Cycles))
	for i, n := range g.order {
		if !n.InCycle() {
			units = append(units, unit{n.TotalTicks(), n.Name, int32(i)})
		}
	}
	for i, c := range g.Cycles {
		name := "<cycle " + strconv.Itoa(c.Number) + " as a whole>"
		units = append(units, unit{c.TotalTicks(), name, int32(len(g.order) + i)})
	}
	slices.SortFunc(units, compareUnits)
	return units
}

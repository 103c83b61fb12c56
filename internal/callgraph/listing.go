package callgraph

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/order"
)

// AssignIndexes orders profile entries by decreasing total time and
// numbers them (paper §5.2: entries "sorted by total time"), recording
// each entry's number in the Index column and Cycle.Index. Entries of
// equal total time are listed by name, and a routine before a cycle of
// the same name. Cycle members receive indices immediately after their
// cycle's entry, ordered by decreasing self time. Presentation layers
// build on the result via model.Build.
//
// The units (free nodes and whole cycles) are put in name order by
// merging the few cycles' "<cycle N as a whole>" names into the
// graph's name order, and then stably sorted by total time through
// integer keys, so only the cycles' names are ever compared.
func AssignIndexes(g *Graph) {
	idx := int32(1)
	n := int32(g.Len())
	for _, u := range sortedUnits(g) {
		if u.Pos < n {
			g.Index[u.Pos] = idx
			idx++
			continue
		}
		c := &g.Cycles[u.Pos-n]
		c.Index = int(idx)
		idx++
		members := slices.Clone(c.Members)
		slices.SortStableFunc(members, func(a, b int32) int {
			switch {
			case g.SelfTicks[a] > g.SelfTicks[b]:
				return -1
			case g.SelfTicks[a] < g.SelfTicks[b]:
				return 1
			}
			return 0
		})
		for _, m := range members {
			g.Index[m] = idx
			idx++
		}
	}
}

// sortedUnits returns the listing units in listing order: a free node
// as its number, and a whole cycle as Len() plus its position in
// Cycles.
func sortedUnits(g *Graph) []order.Keyed {
	type cycleName struct {
		name string
		i    int
	}
	cycles := make([]cycleName, len(g.Cycles))
	for i, c := range g.Cycles {
		cycles[i] = cycleName{"<cycle " + strconv.Itoa(c.Number) + " as a whole>", i}
	}
	slices.SortFunc(cycles, func(a, b cycleName) int { return strings.Compare(a.name, b.name) })

	n := g.Len()
	units := make([]order.Keyed, 0, n+len(g.Cycles))
	addCycle := func(c cycleName) {
		units = append(units, order.Keyed{Key: order.DescFloat(g.Cycles[c.i].TotalTicks(g)), Pos: int32(n + c.i)})
	}
	for _, id := range g.NameOrder() {
		if g.CycleNum[id] != 0 {
			continue
		}
		for len(cycles) > 0 && cycles[0].name < g.Names[id] {
			addCycle(cycles[0])
			cycles = cycles[1:]
		}
		units = append(units, order.Keyed{Key: order.DescFloat(g.SelfTicks[id] + g.ChildTicks[id]), Pos: id})
	}
	for _, c := range cycles {
		addCycle(c)
	}
	order.SortStable(units)
	return units
}

package model_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/propagate"
	"repro/internal/scc"
	"repro/internal/synth"
)

// stableReference numbers the listing and orders the flat profile of
// an analyzed graph with the stable sorts the listing was first
// written with: units by decreasing total time then name, each cycle's
// members by decreasing self time, and flat rows by decreasing self
// time, then calls, then name. It returns each node's index by ID,
// each cycle's index in discovery order, the flat row names and the
// never-called names.
func stableReference(g *callgraph.Graph) (nodeIdx, cycleIdx []int, flat, never []string) {
	type unit struct {
		node  *callgraph.Node
		cycle int
		total float64
		name  string
	}
	var units []unit
	for _, n := range g.Nodes() {
		if !n.InCycle() {
			units = append(units, unit{node: n, total: n.TotalTicks(), name: n.Name})
		}
	}
	for i, c := range g.Cycles {
		units = append(units, unit{cycle: i, total: c.TotalTicks(), name: fmt.Sprintf("<cycle %d as a whole>", c.Number)})
	}
	slices.SortStableFunc(units, func(a, b unit) int {
		if a.total != b.total {
			if a.total > b.total {
				return -1
			}
			return 1
		}
		return strings.Compare(a.name, b.name)
	})
	nodeIdx = make([]int, g.Len())
	cycleIdx = make([]int, len(g.Cycles))
	idx := 1
	for _, u := range units {
		if u.node != nil {
			nodeIdx[u.node.ID] = idx
			idx++
			continue
		}
		cycleIdx[u.cycle] = idx
		idx++
		members := slices.Clone(g.Cycles[u.cycle].Members)
		slices.SortStableFunc(members, func(a, b *callgraph.Node) int {
			switch {
			case a.SelfTicks > b.SelfTicks:
				return -1
			case a.SelfTicks < b.SelfTicks:
				return 1
			}
			return 0
		})
		for _, m := range members {
			nodeIdx[m.ID] = idx
			idx++
		}
	}

	type row struct {
		n     *callgraph.Node
		calls int64
	}
	var rows []row
	for _, n := range g.Nodes() {
		calls := n.Calls() + n.SelfCalls()
		if calls == 0 && n.SelfTicks == 0 {
			never = append(never, n.Name)
			continue
		}
		rows = append(rows, row{n, calls})
	}
	slices.SortStableFunc(rows, func(a, b row) int {
		if a.n.SelfTicks != b.n.SelfTicks {
			if a.n.SelfTicks > b.n.SelfTicks {
				return -1
			}
			return 1
		}
		if a.calls != b.calls {
			if a.calls > b.calls {
				return -1
			}
			return 1
		}
		return strings.Compare(a.n.Name, b.n.Name)
	})
	for _, r := range rows {
		flat = append(flat, r.n.Name)
	}
	slices.Sort(never)
	return nodeIdx, cycleIdx, flat, never
}

// checkOrder fails unless the profile Build makes of g numbers and
// orders every entry as the stable reference does.
func checkOrder(t *testing.T, name string, g *callgraph.Graph) {
	t.Helper()
	m := model.Build(g)
	nodeIdx, cycleIdx, flat, never := stableReference(g)
	for i := range m.Routines {
		if got, want := m.Routines[i].Index, nodeIdx[i]; got != want {
			t.Errorf("%s: routine %q index %d, stable reference %d", name, m.Routines[i].Name, got, want)
		}
	}
	for i := range m.Cycles {
		if got, want := m.Cycles[i].Index, cycleIdx[i]; got != want {
			t.Errorf("%s: cycle %d index %d, stable reference %d", name, m.Cycles[i].Number, got, want)
		}
	}
	gotFlat := make([]string, len(m.Flat))
	for i := range m.Flat {
		gotFlat[i] = m.Flat[i].Name
	}
	if !slices.Equal(gotFlat, flat) {
		t.Errorf("%s: flat rows differ from the stable reference:\n got %q\nwant %q", name, gotFlat, flat)
	}
	if !slices.Equal(m.NeverCalled, never) {
		t.Errorf("%s: never-called %q, stable reference %q", name, m.NeverCalled, never)
	}
}

// analyzed finds the cycles of g and propagates its time.
func analyzed(g *callgraph.Graph) *callgraph.Graph {
	scc.Analyze(g)
	propagate.Run(g)
	return g
}

// TestListingOrderMatchesStableReference checks that the listing
// indices and the flat profile order, which Build sorts unstably over
// keys that end in the routine's position, equal those of the historic
// stable sorts: on synthetic programs, and on graphs built to tie at
// every sort key.
func TestListingOrderMatchesStableReference(t *testing.T) {
	for _, n := range []int{200, 3000, 20000} {
		w := synth.Generate(synth.Tier(n, 7))
		_, g, err := core.RunGraph(context.Background(), core.TableSource{Table: w.Table()}, w.Prof, core.Options{Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkOrder(t, fmt.Sprintf("synth %d", n), g)
	}

	// Equal total ticks: four leaves called once each with the same
	// self time, created out of name order.
	g := callgraph.New()
	g.Hz = 1
	for _, name := range []string{"d", "b", "c", "a"} {
		g.AddArc("main", name, 1)
		g.MustNode(name).SelfTicks = 2
	}
	g.TotalTicks = 8
	checkOrder(t, "equal totals", analyzed(g))

	// Equal self ticks and calls, different descendant time: the flat
	// profile ties on both of its numeric keys.
	g = callgraph.New()
	g.Hz = 1
	g.AddArc("main", "y", 3)
	g.AddArc("main", "x", 3)
	g.AddArc("y", "leaf", 1)
	g.MustNode("x").SelfTicks = 1
	g.MustNode("y").SelfTicks = 1
	g.MustNode("leaf").SelfTicks = 4
	g.AddNode("never2")
	g.AddNode("never1")
	g.TotalTicks = 6
	checkOrder(t, "equal self and calls", analyzed(g))

	// Cycles with equal totals and equal member self times, and for
	// each cycle a routine named like its entry with the same total:
	// only the position tells such a routine from its cycle. Twenty
	// of each make the sort partition rather than insert.
	const cycles = 20
	g = callgraph.New()
	g.Hz = 1
	for k := 1; k <= cycles; k++ {
		p, q, twin := fmt.Sprintf("p%d", k), fmt.Sprintf("q%d", k), fmt.Sprintf("<cycle %d as a whole>", k)
		g.AddArc("main", twin, 1)
		g.AddArc("main", p, 1)
		g.AddArc(p, q, 1)
		g.AddArc(q, p, 1)
		g.MustNode(p).SelfTicks = 1
		g.MustNode(q).SelfTicks = 1
		g.MustNode(twin).SelfTicks = 2
	}
	g.TotalTicks = 4 * cycles
	checkOrder(t, "equal cycles", analyzed(g))
	if m := model.Build(g); len(m.Cycles) != cycles || m.Cycles[0].TotalTicks() != m.Cycles[cycles-1].TotalTicks() {
		t.Fatalf("tie case lost its %d equal cycles: %d cycles", cycles, len(m.Cycles))
	}
}

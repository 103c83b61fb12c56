package report

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/model"
)

// WriteDOT renders the call graph in Graphviz DOT form. The paper's
// authors wanted to "print the call graph of the program" but "were
// limited by the two-dimensional nature of our output devices" and by
// character terminals (§5.2, retrospective); this is that graph for
// renderers that came later.
//
// Nodes show the routine, its self and total seconds, and its call
// count; fill darkens with the routine's share of total time. Edges are
// labeled with traversal counts and weighted by propagated time; static
// (never-traversed) arcs are dashed; intra-cycle arcs are drawn inside a
// cluster per cycle. Options' Focus/MinPercent/Exclude filters apply.
func WriteDOT(w io.Writer, m *model.Profile, opt Options) error {
	links := m.Links()
	f := opt.compile(m)

	fmt.Fprintln(w, "digraph callgraph {")
	fmt.Fprintln(w, `  rankdir=TB;`)
	fmt.Fprintln(w, `  node [shape=box, style=filled, fontname="monospace"];`)

	// Stable node order: by name.
	byName := make([]int32, len(m.Routines))
	kept := make([]bool, len(m.Routines))
	for i := range m.Routines {
		byName[i] = int32(i)
		kept[i] = wantNode(m, int32(i), opt, f)
	}
	name := func(i int32) string { return m.Routines[i].Name }
	slices.SortFunc(byName, func(i, j int32) int { return strings.Compare(name(i), name(j)) })

	// Cycle clusters first, then free nodes.
	emitted := make([]bool, len(m.Routines))
	for c := range m.Cycles {
		members := links.Members(c)
		if !slices.ContainsFunc(members, func(i int32) bool { return kept[i] }) {
			continue
		}
		n := m.Cycles[c].Number
		fmt.Fprintf(w, "  subgraph cluster_%d {\n", n)
		fmt.Fprintf(w, "    label=\"cycle %d\";\n    style=dashed;\n", n)
		for _, i := range members {
			if kept[i] {
				emitNode(w, m, &m.Routines[i], "    ")
				emitted[i] = true
			}
		}
		fmt.Fprintln(w, "  }")
	}
	for _, i := range byName {
		if kept[i] && !emitted[i] {
			emitNode(w, m, &m.Routines[i], "  ")
		}
	}

	// Edges between kept nodes, in (caller, callee) order.
	var arcs []*model.Arc
	for k := range m.Arcs {
		if a := &m.Arcs[k]; !a.Spontaneous() && kept[a.From] && kept[a.To] {
			arcs = append(arcs, a)
		}
	}
	slices.SortFunc(arcs, func(a, b *model.Arc) int {
		if c := strings.Compare(name(a.From), name(b.From)); c != 0 {
			return c
		}
		return strings.Compare(name(a.To), name(b.To))
	})
	for _, a := range arcs {
		attrs := []string{fmt.Sprintf("label=\"%d\"", a.Count)}
		switch {
		case a.Static:
			attrs = append(attrs, "style=dashed", `color="gray50"`)
		case a.Self():
			attrs = append(attrs, "dir=back")
		}
		if t := m.Seconds(a.PropSelfTicks + a.PropChildTicks); t > 0 {
			width := 1 + 4*m.Percent(a.PropSelfTicks+a.PropChildTicks)/100
			attrs = append(attrs, fmt.Sprintf("penwidth=%.2f", width))
		}
		fmt.Fprintf(w, "  %q -> %q [%s];\n", name(a.From), name(a.To), strings.Join(attrs, ", "))
	}
	fmt.Fprintln(w, "}")
	return nil
}

func emitNode(w io.Writer, m *model.Profile, r *model.Routine, indent string) {
	pct := m.Percent(r.TotalTicks())
	// White through a warm tone as the node gets hotter.
	shade := int(255 - 1.6*pct)
	if shade < 96 {
		shade = 96
	}
	label := fmt.Sprintf("%s\\n%.2fs self / %.2fs total\\n%d calls",
		r.Name, m.Seconds(r.SelfTicks), m.Seconds(r.TotalTicks()),
		r.Calls+r.SelfCalls)
	fmt.Fprintf(w, "%s%q [label=\"%s\", fillcolor=\"#ff%02x%02x\"];\n",
		indent, r.Name, label, shade, shade)
}

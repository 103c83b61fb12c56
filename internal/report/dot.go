package report

import (
	"fmt"
	"io"
	"sort"
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
	v := newView(m)
	f := opt.compile(v)

	fmt.Fprintln(w, "digraph callgraph {")
	fmt.Fprintln(w, `  rankdir=TB;`)
	fmt.Fprintln(w, `  node [shape=box, style=filled, fontname="monospace"];`)

	// Stable node order.
	names := make([]string, 0, len(m.Routines))
	kept := make(map[string]bool)
	for i := range m.Routines {
		r := &m.Routines[i]
		names = append(names, r.Name)
		if wantNode(v, int32(i), opt, f) {
			kept[r.Name] = true
		}
	}
	sort.Strings(names)

	// Cycle clusters first, then free nodes.
	emitted := make(map[string]bool)
	for i := range m.Cycles {
		c := &m.Cycles[i]
		any := false
		for _, name := range c.Members {
			if kept[name] {
				any = true
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(w, "  subgraph cluster_%d {\n", c.Number)
		fmt.Fprintf(w, "    label=\"cycle %d\";\n    style=dashed;\n", c.Number)
		for _, name := range c.Members {
			if kept[name] {
				emitNode(w, m, name, "    ")
				emitted[name] = true
			}
		}
		fmt.Fprintln(w, "  }")
	}
	for _, name := range names {
		if kept[name] && !emitted[name] {
			emitNode(w, m, name, "  ")
		}
	}

	// Edges between kept nodes, in (caller, callee) order.
	arcs := make([]*model.Arc, 0, len(m.Arcs))
	for i := range m.Arcs {
		arcs = append(arcs, &m.Arcs[i])
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].From != arcs[j].From {
			return arcs[i].From < arcs[j].From
		}
		return arcs[i].To < arcs[j].To
	})
	for _, a := range arcs {
		if a.Spontaneous() || !kept[a.To] || !kept[a.From] {
			continue
		}
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
		fmt.Fprintf(w, "  %q -> %q [%s];\n", a.From, a.To, strings.Join(attrs, ", "))
	}
	fmt.Fprintln(w, "}")
	return nil
}

func emitNode(w io.Writer, m *model.Profile, name, indent string) {
	r, _ := m.Routine(name)
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

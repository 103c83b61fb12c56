package report

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/model"
	"repro/internal/synth"
)

// This file keeps the per-entry call-graph renderer that CallGraph
// replaced with the gathered one, as the oracle the gathered render is
// compared with: each entry sorts arc positions by re-reading the arcs
// and the other end's name at every compare, and each line reads the
// arc, both endpoints' cycles and the other end's label where it is
// printed.

// refCallGraph renders the call graph profile serially, one entry at
// a time, with the reference printers.
func refCallGraph(m *model.Profile, opt Options) string {
	v := newView(m)
	f := opt.compile(m)
	var b []byte
	if !opt.NoHeaders {
		b = append(b, "call graph profile:\ngranularity: each sample hit covers 1 word for "...)
		b = appendFloat(b, percentPerTick(m), 0, 2)
		b = append(b, "% of "...)
		b = appendFloat(b, m.Seconds(m.TotalTicks), 0, 2)
		b = append(b, " seconds\n\n"+
			"                                  called/total       parents\n"+
			"index  %time    self descendants  called+self    name           index\n"+
			"                                  called/total       children\n\n"...)
	}
	first := true
	for _, e := range v.listing {
		if e.cycle >= 0 {
			if !wantCycle(v, e.cycle, opt, f) {
				continue
			}
		} else if e.routine < 0 || !wantNode(m, e.routine, opt, f) {
			continue
		}
		if !first {
			b = append(b, rule...)
		}
		first = false
		if e.cycle >= 0 {
			b = refPrintCycleEntry(b, v, e.cycle)
		} else {
			b = refPrintNodeEntry(b, v, e.routine)
		}
	}
	if first {
		b = append(b, "no entries selected\n"...)
	}
	return string(b)
}

func refName(v *view, i int32) string {
	if i < 0 {
		return ""
	}
	return v.m.Routines[i].Name
}

func refIntraCycle(v *view, a *model.Arc) bool {
	if a.From < 0 {
		return false
	}
	c := v.m.Routines[a.From].Cycle
	return c != 0 && c == v.m.Routines[a.To].Cycle
}

func refTicks(v *view, k int32) float64 {
	a := &v.m.Arcs[k]
	return a.PropSelfTicks + a.PropChildTicks
}

func refSortParents(v *view, parents []int32) {
	slices.SortStableFunc(parents, func(i, j int32) int {
		if ti, tj := refTicks(v, i), refTicks(v, j); ti != tj {
			return less(ti < tj)
		}
		return strings.Compare(refName(v, v.m.Arcs[i].From), refName(v, v.m.Arcs[j].From))
	})
}

func refSortChildren(v *view, children []int32) {
	slices.SortStableFunc(children, func(i, j int32) int {
		if ti, tj := refTicks(v, i), refTicks(v, j); ti != tj {
			return less(ti > tj)
		}
		return strings.Compare(refName(v, v.m.Arcs[i].To), refName(v, v.m.Arcs[j].To))
	})
}

func refArcLine(b []byte, v *view, a *model.Arc, other int32, intra bool) []byte {
	if intra {
		b = append(b, "                                   "...)
		b = appendInt(b, a.Count, 9)
		b = append(b, "     "...)
	} else {
		b = append(b, "              "...)
		b = appendFloat(b, v.m.Seconds(a.PropSelfTicks), 8, 2)
		b = append(b, ' ')
		b = appendFloat(b, v.m.Seconds(a.PropChildTicks), 11, 2)
		b = append(b, ' ')
		b = appendInt(b, a.Count, 7)
		b = append(b, '/')
		b = appendInt(b, a.TotalCalls, -7)
		b = append(b, ' ')
	}
	ref, _ := v.ref(other)
	return append(b, ref...)
}

func refEntryHead(b []byte, v *view, index int, ticks, self, child float64, calls, selfCalls int64) []byte {
	start := len(b)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(index), 10)
	b = append(b, ']')
	b = padRight(b, start, 6)
	b = append(b, ' ')
	b = appendFloat(b, v.m.Percent(ticks), 5, 1)
	b = append(b, ' ')
	b = appendFloat(b, v.m.Seconds(self), 8, 2)
	b = append(b, ' ')
	b = appendFloat(b, v.m.Seconds(child), 11, 2)
	b = append(b, ' ')
	b = appendCalled(b, calls, selfCalls)
	return append(b, ' ')
}

func refPrintNodeEntry(b []byte, v *view, i int32) []byte {
	m := v.m
	r := &m.Routines[i]
	parents := append([]int32(nil), v.links.In(i)...)
	refSortParents(v, parents)
	for _, k := range parents {
		a := &m.Arcs[k]
		if a.From < 0 {
			b = append(b, spontaneous...)
			continue
		}
		b = refArcLine(b, v, a, a.From, refIntraCycle(v, a))
	}
	b = refEntryHead(b, v, r.Index, r.TotalTicks(), r.SelfTicks, r.ChildTicks, r.Calls, r.SelfCalls)
	ref, _ := v.ref(i)
	b = append(b, ref...)
	children := append([]int32(nil), v.links.Out(i)...)
	refSortChildren(v, children)
	for _, k := range children {
		a := &m.Arcs[k]
		b = refArcLine(b, v, a, a.To, refIntraCycle(v, a))
	}
	return b
}

func refPrintCycleEntry(b []byte, v *view, c int32) []byte {
	m := v.m
	cy := &m.Cycles[c]
	members := append([]int32(nil), v.links.Members(int(c))...)
	var parents []int32
	for _, i := range members {
		for _, k := range v.links.In(i) {
			if !refIntraCycle(v, &m.Arcs[k]) {
				parents = append(parents, k)
			}
		}
	}
	refSortParents(v, parents)
	for _, k := range parents {
		a := &m.Arcs[k]
		if a.From < 0 {
			b = append(b, spontaneous...)
			continue
		}
		b = refArcLine(b, v, a, a.From, false)
	}
	b = refEntryHead(b, v, cy.Index, cy.TotalTicks(), cy.SelfTicks, cy.ChildTicks, cy.ExternalCalls, cy.InternalCalls)
	b = append(b, "<cycle "...)
	b = strconv.AppendInt(b, int64(cy.Number), 10)
	b = append(b, " as a whole> ["...)
	b = strconv.AppendInt(b, int64(cy.Index), 10)
	b = append(b, "]\n"...)
	slices.SortStableFunc(members, func(i, j int32) int {
		return cmp.Compare(m.Routines[i].Index, m.Routines[j].Index)
	})
	for _, i := range members {
		r := &m.Routines[i]
		var intra int64
		for _, k := range v.links.In(i) {
			if a := &m.Arcs[k]; refIntraCycle(v, a) {
				intra += a.Count
			}
		}
		b = append(b, "              "...)
		b = appendFloat(b, m.Seconds(r.SelfTicks), 8, 2)
		b = append(b, "        0.00 "...)
		b = appendCalled(b, intra, r.SelfCalls)
		b = append(b, ' ')
		ref, _ := v.ref(i)
		b = append(b, ref...)
	}
	return b
}

// synthProfile analyzes a synthetic workload of n routines.
func synthProfile(t *testing.T, n int) *model.Profile {
	t.Helper()
	w := synth.Generate(synth.Tier(n, 1))
	g, err := callgraph.BuildCtx(context.Background(), w.Table(), w.Prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	return analyze(g)
}

// tiedProfile is a graph on which every sort key ties: no routine has
// time, so every arc passes up zero, and after the build a third of
// the routines are renamed alike, so arcs to or from them tie on the
// name too and only the stable order separates them. main has 300
// children and sink 300 parents, a hundred of each named alike: more
// than an insertion sort handles, so an unstable sort shows. A
// spontaneous call gives main a calls count, so it gets an entry.
func tiedProfile() *model.Profile {
	var b callgraph.Builder
	name := func(i int) string { return fmt.Sprintf("t%03d", i) }
	const n = 300
	b.Arc("", "main", 1)
	for i := 0; i < n; i++ {
		b.Arc("main", name(i), 1)
		b.Arc(name(i), "sink", 1)
		for _, j := range []int{i + 1, i + 7, i * 3 % n} {
			if j < n && j != i {
				b.Arc(name(i), name(j), 1)
			}
		}
		if i%9 == 0 {
			b.Arc("", name(i), 1) // spontaneous: the empty caller name
		}
	}
	g := b.Graph()
	g.Hz = 100
	m := analyze(g)
	for i := range m.Routines {
		if i%3 == 0 {
			m.Routines[i].Name = "same"
		}
	}
	return m
}

// edgeProfile is a call chain with a two-routine cycle every six
// entries, so some cycle entry falls on each chunk edge position of one
// parity, and whose arcs tie in time now and then.
func edgeProfile() *model.Profile {
	var b callgraph.Builder
	name := func(i int) string { return fmt.Sprintf("e%03d", i) }
	n := 5 * entryChunk
	b.Arc("main", name(0), 1)
	for i := 0; i+1 < n; i++ {
		b.Arc(name(i), name(i+1), int64(i%5+1))
		if i%5 == 0 {
			b.Arc(name(i+1), name(i), 2)
		}
		if i%4 == 0 && i+9 < n {
			b.Arc(name(i), name(i+9), 3)
		}
	}
	var total float64
	g := b.Graph()
	g.Hz = 10
	for i := 0; i < n; i++ {
		ticks := float64(i%7 + 1)
		g.SelfTicks[node(g, name(i))] = ticks
		total += ticks
	}
	g.TotalTicks = total
	return analyze(g)
}

// hubProfile has one routine with 12,000 callers and 12,000 callees,
// the shape of a dispatcher; the arcs' times repeat, so many tie.
func hubProfile() *model.Profile {
	var b callgraph.Builder
	const n = 12000
	var total float64
	self := map[int32]float64{}
	for i := 0; i < n; i++ {
		caller, callee := fmt.Sprintf("c%05d", i), fmt.Sprintf("d%05d", (i*7919)%n)
		b.Arc("main", caller, 1)
		b.Arc(caller, "hub", int64(i%13+1))
		b.Arc("hub", callee, int64(i%11+1))
		self[b.Node(callee)] = float64(i % 17)
		total += float64(i % 17)
	}
	g := b.Graph()
	g.Hz = 60
	for v, t := range self {
		g.SelfTicks[v] = t
	}
	g.SelfTicks[node(g, "hub")] = 5
	g.TotalTicks = total + 5
	return analyze(g)
}

// TestGatheredRenderMatchesReference compares CallGraph's bytes with
// the reference renderer's at widths 1, 2 and 8, on synthetic
// programs, a graph where every key ties, cycle entries at chunk
// edges, -E, focus and minimum-percent selections, and a hub entry
// with more than 10^4 parents and children.
func TestGatheredRenderMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	tier3, tier4 := synthProfile(t, 1000), synthProfile(t, 10000)
	edges, hub := edgeProfile(), hubProfile()
	if p, _ := hub.RoutinePos("hub"); len(hub.Links().In(int32(p))) < 10000 {
		t.Fatalf("hub has %d parents, want at least 10^4", len(hub.Links().In(int32(p))))
	}
	atEdge := false
	for _, c := range edges.Cycles {
		if pos := c.Index - 1; pos > 0 && (pos%entryChunk == 0 || pos%entryChunk == entryChunk-1) {
			atEdge = true
		}
	}
	if !atEdge {
		t.Fatal("edge fixture has no cycle entry at a chunk edge")
	}
	// The routines of tier4's first entries, to exclude a run of them.
	var firstNames []string
	for _, r := range tier4.Routines {
		if r.Index > 0 && r.Index <= entryChunk+entryChunk/2 {
			firstNames = append(firstNames, r.Name)
		}
	}
	cases := []struct {
		name string
		m    *model.Profile
		opt  Options
	}{
		{"tier1e3", tier3, Options{}},
		{"tier1e4", tier4, Options{NoHeaders: true}},
		{"tied", tiedProfile(), Options{}},
		{"edges", edges, Options{}},
		{"edges-E", edges, Options{Exclude: []string{"e000", "e001", "e063", "e064", "e127"}}},
		{"edges-m", edges, Options{MinPercent: 20}},
		{"tier1e4-E", tier4, Options{Exclude: firstNames}},
		{"tier1e4-focus", tier4, Options{Focus: []string{tier4.Routines[10].Name, tier4.Routines[5000].Name}}},
		{"tier1e4-m", tier4, Options{MinPercent: 1}},
		{"hub", hub, Options{}},
		{"hub-focus", hub, Options{Focus: []string{"hub"}}},
	}
	for _, c := range cases {
		want := refCallGraph(c.m, c.opt)
		for _, jobs := range []int{1, 2, 8} {
			opt := c.opt
			opt.Jobs = jobs
			var got bytes.Buffer
			if err := CallGraph(&got, c.m, opt); err != nil {
				t.Fatal(err)
			}
			if got.String() != want {
				t.Errorf("%s at width %d: the call graph profile differs from the reference\n%s", c.name, jobs, firstDiff(got.String(), want))
			}
		}
	}
}

// firstDiff describes the first line on which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

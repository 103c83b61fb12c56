// Package report renders profile data for people: the flat profile
// (paper §5.1) and the call graph profile (§5.2, Figure 4).
//
// Every renderer consumes the serializable profile model
// (internal/model) rather than the pointer-based call graph: analysis
// produces one model.Profile (model.Build, invoked by core.Run) and
// presentation reads only that. The split mirrors the paper's own
// separation of post-processing (§4) from presentation (§5) and is
// what makes the same data renderable as text, DOT, or JSON.
//
// The flat profile lists every routine exercised by the execution with
// its call count and the seconds it is itself accountable for, sorted by
// decreasing self time; routines never called are listed separately "to
// verify that nothing important is omitted by this execution". The
// individual times sum to the total execution time.
//
// The call graph profile lists one entry per routine — "a window into
// the call graph" — sorted by self-plus-descendant time. Each entry
// shows the routine's parents above it (with the self and descendant
// time the routine propagates to each, and the fraction of calls each
// parent accounts for) and its children below it (with the time each
// child passes up and the fraction of the child's calls the routine
// makes). Cycles appear as single entities whose members are listed in
// place of children; self-recursive calls are split out of the call
// count ("called+self") because only outside calls propagate time.
//
// The retrospective's filtering features are provided as Options: a
// minimum-%time threshold ("show only hot functions") and a focus set
// ("only parts of the graph containing certain methods").
package report

import (
	"cmp"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/model"
)

// Options controls both reports.
type Options struct {
	// MinPercent suppresses call-graph entries whose total time is below
	// this percentage of the run, and flat-profile rows with zero time
	// below it (0 shows everything).
	MinPercent float64
	// Focus, when non-empty, restricts the call-graph profile to entries
	// for the named routines, their direct parents, and their direct
	// children.
	Focus []string
	// Exclude suppresses the named routines' entries and flat-profile
	// rows (gprof's -E display exclusion). Their time still propagates:
	// exclusion is presentation-only.
	Exclude []string
	// NoHeaders omits the explanatory column headers.
	NoHeaders bool
	// Jobs is the number of workers that render the listing's chunks;
	// 0 or 1 renders inline on the caller, and Width applies the
	// GOMAXPROCS clamp. The output is the same at every width.
	Jobs int
}

// filter is Options compiled against one profile: membership tests are
// set lookups, so large -E or focus lists stay O(1) per routine
// instead of rescanning the option slices at every node of the walk.
type filter struct {
	exclude map[string]bool
	// focus is nil when no focus is requested; otherwise it marks, by
	// routine position, the focused routines plus their direct parents
	// and children.
	focus []bool
}

// compileExclude builds the -E set, the only option the flat profile
// needs.
func (o *Options) compileExclude() map[string]bool {
	if len(o.Exclude) == 0 {
		return nil
	}
	exclude := make(map[string]bool, len(o.Exclude))
	for _, name := range o.Exclude {
		exclude[name] = true
	}
	return exclude
}

// compile precomputes the option sets against a profile. Only a focus
// looks names up.
func (o *Options) compile(m *model.Profile) filter {
	f := filter{exclude: o.compileExclude()}
	if len(o.Focus) > 0 {
		links := m.Links()
		f.focus = make([]bool, len(m.Routines))
		for _, name := range o.Focus {
			i, ok := m.RoutinePos(name)
			if !ok {
				continue
			}
			f.focus[i] = true
			for _, k := range links.In(int32(i)) {
				if from := m.Arcs[k].From; from >= 0 {
					f.focus[from] = true
				}
			}
			for _, k := range links.Out(int32(i)) {
				f.focus[m.Arcs[k].To] = true
			}
		}
	}
	return f
}

// excluded reports whether a routine is display-suppressed.
func (f *filter) excluded(name string) bool { return f.exclude[name] }

// view is the per-render state of a call graph profile over the
// model's index layout: the entries in listing order and every
// routine's reference bytes.
type view struct {
	m     *model.Profile
	links *model.Links
	// listing holds the call-graph entries in index order: each slot
	// is a routine position or a cycle position, the other -1.
	listing []listEntry
	// refs holds each routine's "label [index]\n" bytes, rendered once
	// in routine order: routine i's are refs[refAt[i]:refAt[i+1]].
	refs  []byte
	refAt []int
}

type listEntry struct {
	routine int32 // position in m.Routines, or -1
	cycle   int32 // position in m.Cycles, or -1
}

func newView(m *model.Profile) *view {
	v := &view{m: m, links: m.Links()}
	max := 0
	for i := range m.Routines {
		if m.Routines[i].Index > max {
			max = m.Routines[i].Index
		}
	}
	for i := range m.Cycles {
		if m.Cycles[i].Index > max {
			max = m.Cycles[i].Index
		}
	}
	v.listing = make([]listEntry, max)
	for i := range v.listing {
		v.listing[i] = listEntry{-1, -1}
	}
	for i := range m.Routines {
		if idx := m.Routines[i].Index; idx > 0 {
			v.listing[idx-1].routine = int32(i)
		}
	}
	for i := range m.Cycles {
		if idx := m.Cycles[i].Index; idx > 0 {
			v.listing[idx-1].cycle = int32(i)
		}
	}

	size := 0
	for i := range m.Routines {
		size += len(m.Routines[i].Name) + 24 // room for the tag and index
	}
	v.refs = make([]byte, 0, size)
	v.refAt = make([]int, len(m.Routines)+1)
	for i := range m.Routines {
		r := &m.Routines[i]
		v.refs = appendLabel(v.refs, r.Name, r.Cycle)
		v.refs = append(v.refs, " ["...)
		v.refs = strconv.AppendInt(v.refs, int64(r.Index), 10)
		v.refs = append(v.refs, "]\n"...)
		v.refAt[i+1] = len(v.refs)
	}
	return v
}

// ref returns routine i's "label [index]" bytes, newline included.
func (v *view) ref(i int32) []byte { return v.refs[v.refAt[i]:v.refAt[i+1]] }

// name returns the name of the routine at position i, or "" for the
// missing caller of a spontaneous arc.
func (v *view) name(i int32) string {
	if i < 0 {
		return ""
	}
	return v.m.Routines[i].Name
}

// intraCycle reports whether both endpoints of arc a are members of
// the same multi-routine cycle. Such arcs are listed in the profile but
// "do not propagate any time" (§4).
func (v *view) intraCycle(a *model.Arc) bool {
	if a.From < 0 {
		return false
	}
	c := v.m.Routines[a.From].Cycle
	return c != 0 && c == v.m.Routines[a.To].Cycle
}

// ticks is the time arc k passes up to its caller.
func (v *view) ticks(k int32) float64 {
	a := &v.m.Arcs[k]
	return a.PropSelfTicks + a.PropChildTicks
}

// appendLabel appends a routine name with its cycle tag, e.g.
// "SUB1 <cycle1>"; cycle is 0 outside cycles.
func appendLabel(b []byte, name string, cycle int) []byte {
	b = append(b, name...)
	if cycle != 0 {
		b = append(b, " <cycle"...)
		b = strconv.AppendInt(b, int64(cycle), 10)
		b = append(b, '>')
	}
	return b
}

// CallGraph renders the call graph profile from the model.
func CallGraph(w io.Writer, m *model.Profile, opt Options) error {
	v := newView(m)
	f := opt.compile(m)
	lw := newLineWriter(w)
	want := func(e listEntry) bool {
		if e.cycle >= 0 {
			return wantCycle(v, e.cycle, opt, f)
		}
		return e.routine >= 0 && wantNode(m, e.routine, opt, f)
	}

	if !opt.NoHeaders {
		lw.str("call graph profile:\ngranularity: each sample hit covers 1 word for ")
		lw.buf = appendFixed(lw.buf, percentPerTick(m), 2)
		lw.str("% of ")
		lw.buf = appendFixed(lw.buf, m.Seconds(m.TotalTicks), 2)
		lw.str(" seconds\n\n" +
			"                                  called/total       parents\n" +
			"index  %time    self descendants  called+self    name           index\n" +
			"                                  called/total       children\n\n")
	}

	// Every selected entry after the first is preceded by a rule, so
	// the first one is found before any chunk renders.
	first := slices.IndexFunc(v.listing, want)
	if first < 0 {
		lw.str("no entries selected\n")
		return lw.close()
	}
	lw.rows(len(v.listing), entryChunk, opt.Jobs, func() func([]byte, int, int) []byte {
		var scratch, members []int32
		return func(b []byte, lo, hi int) []byte {
			for i, e := range v.listing[lo:hi] {
				if !want(e) {
					continue
				}
				if lo+i > first {
					b = append(b, rule...)
				}
				if e.cycle >= 0 {
					b, scratch, members = printCycleEntry(b, v, e.cycle, scratch, members)
				} else {
					b, scratch = printNodeEntry(b, v, e.routine, scratch)
				}
			}
			return b
		}
	})
	return lw.close()
}

// rule separates call-graph entries.
var rule = strings.Repeat("-", 72) + "\n"

func percentPerTick(m *model.Profile) float64 {
	if m.TotalTicks <= 0 {
		return 0
	}
	return 100 / m.TotalTicks
}

// wantNode reports whether routine i gets a call-graph entry.
func wantNode(m *model.Profile, i int32, opt Options, f filter) bool {
	r := &m.Routines[i]
	if r.TotalTicks() == 0 && r.Calls == 0 && r.SelfCalls == 0 {
		return false // never touched; lives in the flat profile's never-called list
	}
	if f.excluded(r.Name) {
		return false
	}
	if f.focus != nil && !f.focus[i] {
		return false
	}
	if opt.MinPercent > 0 && m.Percent(r.TotalTicks()) < opt.MinPercent {
		return false
	}
	return true
}

// wantCycle reports whether cycle c gets a call-graph entry.
func wantCycle(v *view, c int32, opt Options, f filter) bool {
	if f.focus != nil && !slices.ContainsFunc(v.links.Members(int(c)), func(i int32) bool { return f.focus[i] }) {
		return false
	}
	if opt.MinPercent > 0 && v.m.Percent(v.m.Cycles[c].TotalTicks()) < opt.MinPercent {
		return false
	}
	return true
}

// sortParents orders arcs ascending by contribution (the paper's
// Figure 4 order), ties by caller name; spontaneous arcs sort first
// among ties. The sort is stable, so arcs that tie completely keep the
// model's order — which is the historic n.In walk order.
func (v *view) sortParents(parents []int32) {
	slices.SortStableFunc(parents, func(i, j int32) int {
		if ti, tj := v.ticks(i), v.ticks(j); ti != tj {
			return less(ti < tj)
		}
		return strings.Compare(v.name(v.m.Arcs[i].From), v.name(v.m.Arcs[j].From))
	})
}

// sortChildren orders arcs descending by the time passed up, ties by
// callee name.
func (v *view) sortChildren(children []int32) {
	slices.SortStableFunc(children, func(i, j int32) int {
		if ti, tj := v.ticks(i), v.ticks(j); ti != tj {
			return less(ti > tj)
		}
		return strings.Compare(v.name(v.m.Arcs[i].To), v.name(v.m.Arcs[j].To))
	})
}

// less turns a strict "sorts before" test into a comparison result.
// The stable sort only asks whether a result is negative, so this keeps
// the order a less-function sort gives even for NaN times.
func less(b bool) int {
	if b {
		return -1
	}
	return 1
}

// arcLine appends a parent or child line for arc a whose other end is
// routine other: the propagated self and descendant seconds and the
// count over the arc's calls/total denominator, or for an intra-cycle
// arc only the bare count.
func arcLine(b []byte, v *view, a *model.Arc, other int32, intra bool) []byte {
	if intra {
		// Calls from within the cycle: listed, never propagated.
		b = append(b, "                                   "...) // "%14s%8s %11s " of ""
		b = appendInt(b, a.Count, 9)
		b = append(b, "     "...) // " %s" of four blanks
	} else {
		b = append(b, "              "...) // %14s
		b = appendFloat(b, v.m.Seconds(a.PropSelfTicks), 8, 2)
		b = append(b, ' ')
		b = appendFloat(b, v.m.Seconds(a.PropChildTicks), 11, 2)
		b = append(b, ' ')
		b = appendInt(b, a.Count, 7)
		b = append(b, '/')
		b = appendInt(b, a.TotalCalls, -7)
		b = append(b, ' ')
	}
	return append(b, v.ref(other)...)
}

// appendCalled appends the called+self column, right-aligned in 15.
func appendCalled(b []byte, calls, self int64) []byte {
	start := len(b)
	b = strconv.AppendInt(b, calls, 10)
	if self > 0 {
		b = append(b, '+')
		b = strconv.AppendInt(b, self, 10)
	}
	return padLeft(b, start, 15)
}

// appendEntryHead appends the start of an entry's own line: index,
// %time, self and descendant seconds, and the called+self column.
func appendEntryHead(b []byte, v *view, index int, ticks, self, child float64, calls, selfCalls int64) []byte {
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

// printNodeEntry appends routine i's entry: parents, the self line,
// then children. scratch is reused for the sorted arcs and returned.
func printNodeEntry(b []byte, v *view, i int32, scratch []int32) ([]byte, []int32) {
	m := v.m
	r := &m.Routines[i]
	parents := append(scratch[:0], v.links.In(i)...)
	v.sortParents(parents)
	for _, k := range parents {
		a := &m.Arcs[k]
		if a.From < 0 {
			b = append(b, spontaneous...)
			continue
		}
		b = arcLine(b, v, a, a.From, v.intraCycle(a))
	}

	// The self line: index, %time, self, descendants, called+self.
	b = appendEntryHead(b, v, r.Index, r.TotalTicks(), r.SelfTicks, r.ChildTicks, r.Calls, r.SelfCalls)
	b = append(b, v.ref(i)...)

	// Children, descending by time passed up.
	children := append(parents[:0], v.links.Out(i)...)
	v.sortChildren(children)
	for _, k := range children {
		a := &m.Arcs[k]
		b = arcLine(b, v, a, a.To, v.intraCycle(a))
	}
	return b, children
}

// spontaneous is the parent line of an arc with no identifiable caller.
var spontaneous = strings.Repeat(" ", 45) + "<spontaneous>\n"

// printCycleEntry appends the entry of cycle c as a whole: external
// parents, the cycle line, then the members "listed in place of the
// children" with their calls from within the cycle. scratch and
// members are reused for the sorted arcs and members and returned.
func printCycleEntry(b []byte, v *view, c int32, scratch, members []int32) ([]byte, []int32, []int32) {
	m := v.m
	cy := &m.Cycles[c]
	members = append(members[:0], v.links.Members(int(c))...)
	parents := scratch[:0]
	for _, i := range members {
		for _, k := range v.links.In(i) {
			if !v.intraCycle(&m.Arcs[k]) {
				parents = append(parents, k)
			}
		}
	}
	v.sortParents(parents)
	for _, k := range parents {
		a := &m.Arcs[k]
		if a.From < 0 {
			b = append(b, spontaneous...)
			continue
		}
		b = arcLine(b, v, a, a.From, false)
	}

	b = appendEntryHead(b, v, cy.Index, cy.TotalTicks(), cy.SelfTicks, cy.ChildTicks, cy.ExternalCalls, cy.InternalCalls)
	b = append(b, "<cycle "...)
	b = strconv.AppendInt(b, int64(cy.Number), 10)
	b = append(b, " as a whole> ["...)
	b = strconv.AppendInt(b, int64(cy.Index), 10)
	b = append(b, "]\n"...)

	// Members with their calls from within the cycle (incoming intra
	// arcs plus self calls), in index order — the indices were assigned
	// by decreasing self time, so this reproduces the historic member
	// order.
	slices.SortStableFunc(members, func(i, j int32) int {
		return cmp.Compare(m.Routines[i].Index, m.Routines[j].Index)
	})
	for _, i := range members {
		r := &m.Routines[i]
		var intra int64
		for _, k := range v.links.In(i) {
			if a := &m.Arcs[k]; v.intraCycle(a) {
				intra += a.Count
			}
		}
		b = append(b, "              "...) // %14s
		b = appendFloat(b, m.Seconds(r.SelfTicks), 8, 2)
		b = append(b, "        0.00 "...) // %11.2f of 0.0
		b = appendCalled(b, intra, r.SelfCalls)
		b = append(b, ' ')
		b = append(b, v.ref(i)...)
	}
	return b, parents, members
}

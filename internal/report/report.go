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

// compile precomputes the option sets against a profile view.
func (o *Options) compile(v *view) filter {
	f := filter{exclude: o.compileExclude()}
	if len(o.Focus) > 0 {
		f.focus = make([]bool, len(v.m.Routines))
		for _, name := range o.Focus {
			i, ok := v.m.RoutinePos(name)
			if !ok {
				continue
			}
			f.focus[i] = true
			for _, k := range v.inArcs(int32(i)) {
				if from := v.from[k]; from >= 0 {
					f.focus[from] = true
				}
			}
			for _, k := range v.outArcs(int32(i)) {
				f.focus[v.to[k]] = true
			}
		}
	}
	return f
}

// excluded reports whether a routine is display-suppressed.
func (f *filter) excluded(name string) bool { return f.exclude[name] }

// view is the per-render index over a profile. Arc endpoints are
// resolved to routine positions (indexes into m.Routines) once, so the
// walk compares integers instead of looking names up.
type view struct {
	m *model.Profile
	// from and to are each arc's endpoint positions, parallel to
	// m.Arcs; from is -1 for a spontaneous arc.
	from, to []int32
	// The incoming arcs of routine i are in[inStart[i]:inStart[i+1]]
	// and its outgoing arcs out[outStart[i]:outStart[i+1]], as indexes
	// into m.Arcs in the model's arc order, which the cycle entries'
	// tie-breaking depends on.
	in, out           []int32
	inStart, outStart []int32
	// listing holds the call-graph entries in index order: for each
	// slot either routine is a position or cycle is non-nil.
	listing []listEntry
	// scratch is reused for each entry's sorted parents and children.
	scratch []int32
}

type listEntry struct {
	routine int32 // position in m.Routines, or -1
	cycle   *model.Cycle
}

func newView(m *model.Profile) *view {
	n := len(m.Routines)
	v := &view{
		m:        m,
		from:     make([]int32, len(m.Arcs)),
		to:       make([]int32, len(m.Arcs)),
		inStart:  make([]int32, n+1),
		outStart: make([]int32, n+1),
	}
	// Resolve endpoints and count degrees. The model guarantees that
	// endpoints resolve (model.Validate); an arc that does not is
	// marked with to = -1 and left out of the listing.
	for k := range m.Arcs {
		a := &m.Arcs[k]
		v.from[k], v.to[k] = -1, -1
		to, ok := m.RoutinePos(a.To)
		if !ok {
			continue
		}
		from := -1
		if a.From != "" {
			if from, ok = m.RoutinePos(a.From); !ok {
				continue
			}
			v.outStart[from+1]++
		}
		v.from[k], v.to[k] = int32(from), int32(to)
		v.inStart[to+1]++
	}
	for i := 0; i < n; i++ {
		v.inStart[i+1] += v.inStart[i]
		v.outStart[i+1] += v.outStart[i]
	}
	// Counting-sort placement keeps each routine's arcs in model order.
	v.in = make([]int32, v.inStart[n])
	v.out = make([]int32, v.outStart[n])
	inFill := append([]int32(nil), v.inStart[:n]...)
	outFill := append([]int32(nil), v.outStart[:n]...)
	for k, to := range v.to {
		if to < 0 {
			continue
		}
		v.in[inFill[to]] = int32(k)
		inFill[to]++
		if from := v.from[k]; from >= 0 {
			v.out[outFill[from]] = int32(k)
			outFill[from]++
		}
	}

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
		v.listing[i].routine = -1
	}
	for i := range m.Routines {
		if idx := m.Routines[i].Index; idx > 0 {
			v.listing[idx-1].routine = int32(i)
		}
	}
	for i := range m.Cycles {
		if idx := m.Cycles[i].Index; idx > 0 {
			v.listing[idx-1].cycle = &m.Cycles[i]
		}
	}
	return v
}

// inArcs and outArcs return routine i's incoming and outgoing arcs.
func (v *view) inArcs(i int32) []int32  { return v.in[v.inStart[i]:v.inStart[i+1]] }
func (v *view) outArcs(i int32) []int32 { return v.out[v.outStart[i]:v.outStart[i+1]] }

// self reports whether arc k is self-recursive.
func (v *view) self(k int32) bool { return v.from[k] >= 0 && v.from[k] == v.to[k] }

// intraCycle reports whether both endpoints of arc k are members of
// the same multi-routine cycle. Such arcs are listed in the profile but
// "do not propagate any time" (§4).
func (v *view) intraCycle(k int32) bool {
	from := v.from[k]
	if from < 0 {
		return false
	}
	c := v.m.Routines[from].Cycle
	return c != 0 && c == v.m.Routines[v.to[k]].Cycle
}

// ticks is the time arc k passes up to its caller.
func (v *view) ticks(k int32) float64 {
	a := &v.m.Arcs[k]
	return a.PropSelfTicks + a.PropChildTicks
}

// totalCalls is the calls/total denominator for a routine: calls into
// it, or into its whole cycle when it is a member.
func (v *view) totalCalls(r *model.Routine) int64 {
	if r.Cycle != 0 {
		if c, ok := v.m.CycleByNumber(r.Cycle); ok {
			return c.ExternalCalls
		}
	}
	return r.Calls
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
	f := opt.compile(v)
	lw := newLineWriter(w)

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

	printed := 0
	for _, e := range v.listing {
		if e.cycle != nil {
			if !wantCycle(v, e.cycle, opt, f) {
				continue
			}
			if printed > 0 {
				lw.str(rule)
			}
			printCycleEntry(lw, v, e.cycle)
			printed++
			continue
		}
		if e.routine < 0 || !wantNode(v, e.routine, opt, f) {
			continue
		}
		if printed > 0 {
			lw.str(rule)
		}
		printNodeEntry(lw, v, e.routine)
		printed++
	}
	if printed == 0 {
		lw.str("no entries selected\n")
	}
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
func wantNode(v *view, i int32, opt Options, f filter) bool {
	r := &v.m.Routines[i]
	if r.TotalTicks() == 0 && r.Calls == 0 && r.SelfCalls == 0 {
		return false // never touched; lives in the flat profile's never-called list
	}
	if f.excluded(r.Name) {
		return false
	}
	if f.focus != nil && !f.focus[i] {
		return false
	}
	if opt.MinPercent > 0 && v.m.Percent(r.TotalTicks()) < opt.MinPercent {
		return false
	}
	return true
}

func wantCycle(v *view, c *model.Cycle, opt Options, f filter) bool {
	if f.focus != nil {
		any := false
		for _, name := range c.Members {
			if i, ok := v.m.RoutinePos(name); ok && f.focus[i] {
				any = true
				break
			}
		}
		if !any {
			return false
		}
	}
	if opt.MinPercent > 0 && v.m.Percent(c.TotalTicks()) < opt.MinPercent {
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
		return strings.Compare(v.m.Arcs[i].From, v.m.Arcs[j].From)
	})
}

// sortChildren orders arcs descending by the time passed up, ties by
// callee name.
func (v *view) sortChildren(children []int32) {
	slices.SortStableFunc(children, func(i, j int32) int {
		if ti, tj := v.ticks(i), v.ticks(j); ti != tj {
			return less(ti > tj)
		}
		return strings.Compare(v.m.Arcs[i].To, v.m.Arcs[j].To)
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

// arcLine appends a parent or child line for arc k whose other end is
// routine r: the propagated self and descendant seconds and the
// count/total calls, or for an intra-cycle arc only the bare count.
func arcLine(lw *lineWriter, v *view, k int32, r *model.Routine, intra bool, total int64) {
	a := &v.m.Arcs[k]
	b := lw.buf
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
		b = appendInt(b, total, -7)
		b = append(b, ' ')
	}
	lw.buf = appendRef(b, r)
	lw.endLine()
}

// appendRef appends "label [index]" and ends the line.
func appendRef(b []byte, r *model.Routine) []byte {
	b = appendLabel(b, r.Name, r.Cycle)
	b = append(b, " ["...)
	b = strconv.AppendInt(b, int64(r.Index), 10)
	return append(b, "]\n"...)
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

// printNodeEntry renders routine i's entry: parents, the self line,
// then children.
func printNodeEntry(lw *lineWriter, v *view, i int32) {
	m := v.m
	r := &m.Routines[i]
	parents := v.scratch[:0]
	for _, k := range v.inArcs(i) {
		if !v.self(k) {
			parents = append(parents, k)
		}
	}
	v.sortParents(parents)
	// Total calls for the x/y column: calls into this routine, or into
	// the whole cycle when the routine is a member.
	totalCalls := v.totalCalls(r)
	for _, k := range parents {
		from := v.from[k]
		if from < 0 {
			lw.str(spontaneous)
			continue
		}
		arcLine(lw, v, k, &m.Routines[from], v.intraCycle(k), totalCalls)
	}

	// The self line: index, %time, self, descendants, called+self.
	lw.buf = appendRef(appendEntryHead(lw.buf, v, r.Index, r.TotalTicks(), r.SelfTicks, r.ChildTicks, r.Calls, r.SelfCalls), r)
	lw.endLine()

	// Children, descending by time passed up.
	children := parents[:0]
	for _, k := range v.outArcs(i) {
		if !v.self(k) {
			children = append(children, k)
		}
	}
	v.sortChildren(children)
	for _, k := range children {
		// Denominator: calls into the child (or its whole cycle).
		child := &m.Routines[v.to[k]]
		intra := v.intraCycle(k)
		var total int64
		if !intra {
			total = v.totalCalls(child)
		}
		arcLine(lw, v, k, child, intra, total)
	}
	v.scratch = children
}

// spontaneous is the parent line of an arc with no identifiable caller.
var spontaneous = strings.Repeat(" ", 45) + "<spontaneous>\n"

// printCycleEntry renders a cycle-as-a-whole entry: external parents,
// the cycle line, then the members "listed in place of the children"
// with their calls from within the cycle.
func printCycleEntry(lw *lineWriter, v *view, c *model.Cycle) {
	m := v.m
	members := make([]int32, 0, len(c.Members))
	for _, name := range c.Members {
		i, _ := m.RoutinePos(name)
		members = append(members, int32(i))
	}
	parents := v.scratch[:0]
	for _, i := range members {
		for _, k := range v.inArcs(i) {
			if !v.intraCycle(k) && !v.self(k) {
				parents = append(parents, k)
			}
		}
	}
	v.sortParents(parents)
	ext := c.ExternalCalls
	for _, k := range parents {
		from := v.from[k]
		if from < 0 {
			lw.str(spontaneous)
			continue
		}
		arcLine(lw, v, k, &m.Routines[from], false, ext)
	}
	v.scratch = parents

	b := appendEntryHead(lw.buf, v, c.Index, c.TotalTicks(), c.SelfTicks, c.ChildTicks, ext, c.InternalCalls)
	b = append(b, "<cycle "...)
	b = strconv.AppendInt(b, int64(c.Number), 10)
	b = append(b, " as a whole> ["...)
	b = strconv.AppendInt(b, int64(c.Index), 10)
	lw.buf = append(b, "]\n"...)
	lw.endLine()

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
		for _, k := range v.inArcs(i) {
			if v.intraCycle(k) && !v.self(k) {
				intra += m.Arcs[k].Count
			}
		}
		b := append(lw.buf, "              "...) // %14s
		b = appendFloat(b, m.Seconds(r.SelfTicks), 8, 2)
		b = append(b, "        0.00 "...) // %11.2f of 0.0
		b = appendCalled(b, intra, r.SelfCalls)
		b = append(b, ' ')
		lw.buf = appendRef(b, r)
		lw.endLine()
	}
}

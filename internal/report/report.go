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
	"bytes"
	"cmp"
	"encoding/binary"
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
	// refs holds each routine's name length, as a uvarint, and then its
	// "label [index]\n" bytes, rendered once in routine order: routine
	// i's are refs[refAt[i]:refAt[i+1]]. The length sits on the label's
	// cache line, where a tie between two names finds it.
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
		size += len(m.Routines[i].Name) + 24 // room for the length, tag and index
	}
	v.refs = make([]byte, 0, size)
	v.refAt = make([]int, len(m.Routines)+1)
	for i := range m.Routines {
		r := &m.Routines[i]
		v.refs = binary.AppendUvarint(v.refs, uint64(len(r.Name)))
		v.refs = appendLabel(v.refs, r.Name, r.Cycle)
		v.refs = append(v.refs, " ["...)
		v.refs = strconv.AppendInt(v.refs, int64(r.Index), 10)
		v.refs = append(v.refs, "]\n"...)
		v.refAt[i+1] = len(v.refs)
	}
	return v
}

// ref returns routine i's "label [index]" bytes, newline included,
// and the length of the name they start with.
func (v *view) ref(i int32) ([]byte, int) {
	b := v.refs[v.refAt[i]:v.refAt[i+1]]
	name, n := binary.Uvarint(b)
	return b[n:], int(name)
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
//
// A chunk of entries renders in batches of three steps
// (chunkRenderer): a tight pass gathers the selected entries' parent
// and child lines into worker-local records, copying the other end's
// label beside them; each entry's lines are then sorted over those
// records and formatted from them. The gather's loads do not depend on
// one another, so the cache misses on arcs and labels scattered over
// the profile overlap instead of stalling one sort compare or one line
// at a time.
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
		lw.buf = appendFloat(lw.buf, percentPerTick(m), 0, 2)
		lw.str("% of ")
		lw.buf = appendFloat(lw.buf, m.Seconds(m.TotalTicks), 0, 2)
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
		r := newChunkRenderer(v, want, first)
		return r.render
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

// arcRec is one gathered parent or child line: its sort key, the arc
// whose numbers it prints, and where the other end's label was copied.
// It stays 32 bytes, because a hub entry gathers one per caller.
type arcRec struct {
	ticks float64 // the time the arc passes up: the sort key
	// lab is where the other end's label starts in labels; until the
	// label pass it holds the other end's routine position instead.
	lab   int
	arc   int32 // position in m.Arcs
	size  int32 // label length; 0 for a spontaneous parent, which has none
	name  int32 // the label's first name bytes are the other end's name
	intra bool  // both ends are members of one cycle
}

// gathered is one selected entry of a batch: its listing position,
// its parent lines lines[start:mid] and child lines lines[mid:end], and
// for a routine its own label, labels[self:self+selfSize].
type gathered struct {
	pos             int
	start, mid, end int
	self, selfSize  int
}

// chunkRenderer renders call-graph chunks for one worker; its scratch
// is reused from chunk to chunk and never shared.
type chunkRenderer struct {
	v       *view
	want    func(listEntry) bool
	first   int // listing position of the first selected entry
	lines   []arcRec
	labels  []byte
	entries []gathered
	members []int32
	// byParent orders parent lines ascending by time (the paper's
	// Figure 4 order) and byChild child lines descending, ties by the
	// other end's name; a spontaneous parent's empty name sorts first.
	// The sorts are stable, so lines that tie completely keep the
	// model's order, which is the historic n.In walk order. The
	// comparators are negative exactly where "sorts before" holds, so
	// even NaN times give the order of a less-function sort.
	byParent, byChild func(a, b arcRec) int
}

func newChunkRenderer(v *view, want func(listEntry) bool, first int) *chunkRenderer {
	r := &chunkRenderer{v: v, want: want, first: first}
	r.byParent = func(a, b arcRec) int {
		if a.ticks != b.ticks {
			return less(a.ticks < b.ticks)
		}
		return r.compareNames(a, b)
	}
	r.byChild = func(a, b arcRec) int {
		if a.ticks != b.ticks {
			return less(a.ticks > b.ticks)
		}
		return r.compareNames(a, b)
	}
	return r
}

func (r *chunkRenderer) compareNames(a, b arcRec) int {
	return bytes.Compare(r.labels[a.lab:a.lab+int(a.name)], r.labels[b.lab:b.lab+int(b.name)])
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

// render appends the selected entries among listing positions
// [lo, hi): gather, then sort and format each entry.
func (r *chunkRenderer) render(b []byte, lo, hi int) []byte {
	for lo < hi {
		lo = r.gather(lo, hi)
		for _, g := range r.entries {
			if g.pos > r.first {
				b = append(b, rule...)
			}
			slices.SortStableFunc(r.lines[g.start:g.mid], r.byParent)
			slices.SortStableFunc(r.lines[g.mid:g.end], r.byChild)
			if e := r.v.listing[g.pos]; e.cycle >= 0 {
				b = r.cycleEntry(b, e.cycle, g)
			} else {
				b = r.nodeEntry(b, e.routine, g)
			}
		}
	}
	return b
}

// gatherLines is the number of lines after which a gather stops taking
// further entries. The hottest entries are hubs: a whole chunk of them
// gathers thousands of lines, and scratch that size raised the peak RSS
// of a 10^5-routine listing by 3 MB. A batch this size still gives the
// loads of several entries to overlap.
const gatherLines = 256

// gather walks the selected entries from listing position lo on,
// before hi, and records each parent and child line, until it has
// gathered gatherLines lines; it returns the position it stopped
// before. A cycle's parents are its members' callers from outside it;
// it lists no children.
func (r *chunkRenderer) gather(lo, hi int) int {
	v, m := r.v, r.v.m
	r.lines, r.labels, r.entries = r.lines[:0], r.labels[:0], r.entries[:0]
	for ; lo < hi && len(r.lines) < gatherLines; lo++ {
		e := v.listing[lo]
		if !r.want(e) {
			continue
		}
		g := gathered{pos: lo, start: len(r.lines)}
		if e.cycle >= 0 {
			for _, i := range v.links.Members(int(e.cycle)) {
				cycle := m.Routines[i].Cycle
				for _, k := range v.links.In(i) {
					if from := m.Arcs[k].From; !r.sameCycle(from, cycle) {
						r.add(k, from, false)
					}
				}
			}
			g.mid = len(r.lines)
		} else {
			i := e.routine
			cycle := m.Routines[i].Cycle
			ref, _ := v.ref(i)
			g.self, g.selfSize = len(r.labels), len(ref)
			r.labels = append(r.labels, ref...)
			for _, k := range v.links.In(i) {
				from := m.Arcs[k].From
				r.add(k, from, r.sameCycle(from, cycle))
			}
			g.mid = len(r.lines)
			for _, k := range v.links.Out(i) {
				to := m.Arcs[k].To
				r.add(k, to, r.sameCycle(to, cycle))
			}
		}
		g.end = len(r.lines)
		r.entries = append(r.entries, g)
	}
	// The labels are copied in a second pass, so that no label load
	// waits on the arc load that names its routine.
	for j := range r.lines {
		l := &r.lines[j]
		other := l.lab
		l.lab = len(r.labels)
		if other >= 0 {
			ref, name := v.ref(int32(other))
			r.labels = append(r.labels, ref...)
			l.size, l.name = int32(len(ref)), int32(name)
		}
	}
	return lo
}

// sameCycle reports whether routine i (-1 for the missing caller of a
// spontaneous arc) is a member of the multi-routine cycle numbered
// cycle. An arc between two members is listed in the profile but
// "does not propagate any time" (§4).
func (r *chunkRenderer) sameCycle(i int32, cycle int) bool {
	return i >= 0 && cycle != 0 && r.v.m.Routines[i].Cycle == cycle
}

// add records the line of arc k whose other end is routine other (-1
// for a spontaneous caller), which the label pass resolves.
func (r *chunkRenderer) add(k, other int32, intra bool) {
	a := &r.v.m.Arcs[k]
	r.lines = append(r.lines, arcRec{ticks: a.PropSelfTicks + a.PropChildTicks, lab: int(other), arc: k, intra: intra})
}

// arcLine appends a parent or child line: the propagated self and
// descendant seconds and the count over the arc's calls/total
// denominator, or for an intra-cycle arc only the bare count, then the
// other end's label.
func (r *chunkRenderer) arcLine(b []byte, l *arcRec) []byte {
	if l.size == 0 {
		return append(b, spontaneous...)
	}
	m := r.v.m
	a := &m.Arcs[l.arc]
	if l.intra {
		// Calls from within the cycle: listed, never propagated.
		b = append(b, "                                   "...) // "%14s%8s %11s " of ""
		b = appendInt(b, a.Count, 9)
		b = append(b, "     "...) // " %s" of four blanks
	} else {
		b = append(b, "              "...) // %14s
		b = appendFloat(b, m.Seconds(a.PropSelfTicks), 8, 2)
		b = append(b, ' ')
		b = appendFloat(b, m.Seconds(a.PropChildTicks), 11, 2)
		b = append(b, ' ')
		b = appendInt(b, a.Count, 7)
		b = append(b, '/')
		b = appendInt(b, a.TotalCalls, -7)
		b = append(b, ' ')
	}
	return append(b, r.labels[l.lab:l.lab+int(l.size)]...)
}

// spontaneous is the parent line of an arc with no identifiable caller.
var spontaneous = strings.Repeat(" ", 45) + "<spontaneous>\n"

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
func appendEntryHead(b []byte, m *model.Profile, index int, ticks, self, child float64, calls, selfCalls int64) []byte {
	start := len(b)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(index), 10)
	b = append(b, ']')
	b = padRight(b, start, 6)
	b = append(b, ' ')
	b = appendFloat(b, m.Percent(ticks), 5, 1)
	b = append(b, ' ')
	b = appendFloat(b, m.Seconds(self), 8, 2)
	b = append(b, ' ')
	b = appendFloat(b, m.Seconds(child), 11, 2)
	b = append(b, ' ')
	b = appendCalled(b, calls, selfCalls)
	return append(b, ' ')
}

// nodeEntry appends routine i's entry from its sorted lines: parents,
// the self line, then children.
func (r *chunkRenderer) nodeEntry(b []byte, i int32, g gathered) []byte {
	m := r.v.m
	for k := g.start; k < g.mid; k++ {
		b = r.arcLine(b, &r.lines[k])
	}
	ri := &m.Routines[i]
	b = appendEntryHead(b, m, ri.Index, ri.TotalTicks(), ri.SelfTicks, ri.ChildTicks, ri.Calls, ri.SelfCalls)
	b = append(b, r.labels[g.self:g.self+g.selfSize]...)
	for k := g.mid; k < g.end; k++ {
		b = r.arcLine(b, &r.lines[k])
	}
	return b
}

// cycleEntry appends the entry of cycle c as a whole from its sorted
// parent lines: external parents, the cycle line, then the members
// "listed in place of the children" with their calls from within the
// cycle.
func (r *chunkRenderer) cycleEntry(b []byte, c int32, g gathered) []byte {
	v, m := r.v, r.v.m
	for k := g.start; k < g.mid; k++ {
		b = r.arcLine(b, &r.lines[k])
	}
	cy := &m.Cycles[c]
	b = appendEntryHead(b, m, cy.Index, cy.TotalTicks(), cy.SelfTicks, cy.ChildTicks, cy.ExternalCalls, cy.InternalCalls)
	b = append(b, "<cycle "...)
	b = strconv.AppendInt(b, int64(cy.Number), 10)
	b = append(b, " as a whole> ["...)
	b = strconv.AppendInt(b, int64(cy.Index), 10)
	b = append(b, "]\n"...)

	// Members with their calls from within the cycle (incoming intra
	// arcs plus self calls), in index order — the indices were assigned
	// by decreasing self time, so this reproduces the historic member
	// order.
	r.members = append(r.members[:0], v.links.Members(int(c))...)
	slices.SortStableFunc(r.members, func(i, j int32) int {
		return cmp.Compare(m.Routines[i].Index, m.Routines[j].Index)
	})
	for _, i := range r.members {
		ri := &m.Routines[i]
		var intra int64
		for _, k := range v.links.In(i) {
			if a := &m.Arcs[k]; r.sameCycle(a.From, ri.Cycle) {
				intra += a.Count
			}
		}
		b = append(b, "              "...) // %14s
		b = appendFloat(b, m.Seconds(ri.SelfTicks), 8, 2)
		b = append(b, "        0.00 "...) // %11.2f of 0.0
		b = appendCalled(b, intra, ri.SelfCalls)
		b = append(b, ' ')
		ref, _ := v.ref(i)
		b = append(b, ref...)
	}
	return b
}

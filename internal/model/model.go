// Package model is the serializable profile IR between analysis and
// presentation. The paper splits gprof into data gathering (§3),
// post-processing (§4), and presentation (§5); this package is the
// typed boundary between the last two: Build condenses an analyzed
// callgraph.Graph (after cycle discovery and time propagation) into a
// plain-data Profile, and every renderer in internal/report consumes
// only the Profile.
//
// The Profile is JSON-serializable under a stable, versioned schema
// (`gprof -json`, docs/FORMATS.md), which makes profiles machine
// readable and comparable across runs: Diff computes per-routine deltas
// between two profiles, the workflow behind cmd/profdiff.
//
// Times appear twice: in ticks (the exact analysis output — float64
// because coarse-granularity histogram attribution splits ticks
// fractionally) and in seconds (ticks / Hz, for human consumers). The
// tick fields are normative; renderers derive every printed number from
// ticks and Hz exactly as the pre-model renderers derived them from the
// graph, which is what keeps text output byte-identical.
package model

import (
	"sort"
	"sync"

	"repro/internal/order"
)

// Schema identifies the JSON encoding of a Profile. Consumers must
// reject other values; producers bump the suffix when the shape
// changes incompatibly.
const Schema = "gprof.profile.v1"

// Profile is one analyzed execution profile, ready to render, encode,
// or diff. All slices are in deterministic orders fixed by Build (see
// each field); two analyses of the same data produce identical
// Profiles.
//
// The model is index-keyed: an arc names its endpoints by position in
// Routines, and Links lays the arcs and cycles out by position, so
// nothing between Build and the renderers resolves a name. Names are
// written only by Encode and resolved once by Decode. A Profile is
// read-only once built or decoded; any number of goroutines may render
// it at once.
type Profile struct {
	// Schema is the encoding version tag, always the package constant
	// Schema for profiles produced by this code.
	Schema string
	// Hz is the effective clock rate: seconds = ticks / Hz.
	Hz int64
	// TotalTicks is the histogram's total tick count, including ticks
	// that fell outside every routine.
	TotalTicks float64
	// LostTicks is the portion of TotalTicks not attributable to any
	// routine (rendered as "<outside any routine>").
	LostTicks float64
	// TotalSeconds is TotalTicks / Hz.
	TotalSeconds float64

	// Routines lists every routine (including never-called ones), in
	// the graph's node order: address order for image-built graphs.
	Routines []Routine
	// Cycles lists the multi-member strongly-connected components in
	// discovery order.
	Cycles []Cycle
	// Arcs lists every call-graph arc exactly once, grouped by callee
	// in routine order with each callee's incoming arcs in insertion
	// order. Renderers rely on this order: it reproduces the listing's
	// tie-breaking exactly.
	Arcs []Arc

	// Flat is the flat profile (§5.1): one row per exercised routine,
	// sorted by decreasing self time.
	Flat []FlatRow
	// NeverCalled lists routines with no calls and no samples,
	// alphabetically — §5.1's "to verify that nothing important is
	// omitted by this execution".
	NeverCalled []string

	// Stacks is the context-sensitive view built from whole-stack
	// samples (BuildStacks), present only when the profile data carried
	// stacks. A profile with this view encodes under SchemaV2; without
	// it the encoding is byte-identical to the v1 schema.
	Stacks *StackView

	// links is the index layout of Arcs and Cycles; Build and Decode
	// set it, and Links lays it out for a profile assembled by hand,
	// under linksOnce, because a cached profile is rendered by many
	// goroutines at once.
	links     *Links
	linksOnce sync.Once
}

// Routine is one routine's analyzed numbers.
type Routine struct {
	Name string `json:"name"`
	// Index is the entry number in the call-graph profile listing
	// (1-based; every routine gets one).
	Index int `json:"index,omitempty"`
	// Cycle is the Number of the cycle containing this routine, 0 when
	// it is not a member of a multi-routine cycle.
	Cycle int `json:"cycle,omitempty"`
	// SelfTicks is the routine's own sampled time; ChildTicks the time
	// propagated from its descendants.
	SelfTicks  float64 `json:"self_ticks"`
	ChildTicks float64 `json:"descendant_ticks"`
	// SelfSeconds and ChildSeconds are the tick fields over Hz.
	SelfSeconds  float64 `json:"self_seconds"`
	ChildSeconds float64 `json:"descendant_seconds"`
	// Calls counts incoming non-recursive calls; SelfCalls the
	// self-recursive ones (§5.2's "called+self" split).
	Calls     int64 `json:"calls"`
	SelfCalls int64 `json:"self_calls,omitempty"`
}

// TotalTicks returns self plus propagated descendant ticks.
func (r *Routine) TotalTicks() float64 { return r.SelfTicks + r.ChildTicks }

// TotalSeconds returns self plus descendant seconds.
func (r *Routine) TotalSeconds() float64 { return r.SelfSeconds + r.ChildSeconds }

// InCycle reports whether the routine belongs to a multi-member cycle.
func (r *Routine) InCycle() bool { return r.Cycle != 0 }

// Cycle is a collapsed strongly-connected component with more than one
// member (§4).
type Cycle struct {
	// Number is the 1-based cycle number, for "<cycle N>" display.
	Number int `json:"number"`
	// Index is the cycle-as-a-whole entry number in the listing.
	Index int `json:"index,omitempty"`
	// Members lists member routine names in discovery order.
	Members []string `json:"members"`
	// SelfTicks sums the members' self time; ChildTicks is the
	// descendant time propagated into the cycle as a whole.
	SelfTicks  float64 `json:"self_ticks"`
	ChildTicks float64 `json:"descendant_ticks"`
	// ExternalCalls counts calls into the cycle from outside it;
	// InternalCalls the calls among members (excluding self-recursion).
	ExternalCalls int64 `json:"external_calls"`
	InternalCalls int64 `json:"internal_calls"`
}

// TotalTicks returns the cycle's self plus descendant ticks.
func (c *Cycle) TotalTicks() float64 { return c.SelfTicks + c.ChildTicks }

// Arc is one caller→callee edge with its traversal count and the time
// it propagates. Its JSON form (wireArc) names the endpoints.
type Arc struct {
	// From and To are the caller's and callee's positions in
	// Profile.Routines; From is -1 for a spontaneous arc (caller
	// unidentifiable, §3.1).
	From, To int32
	// Count is the traversal count; TotalCalls the denominator the
	// listing shows in its calls/total column: all calls into the
	// callee (or into the callee's whole cycle).
	Count      int64
	TotalCalls int64
	// Sites is the number of distinct call sites merged into this arc.
	Sites int
	// Static marks arcs found only in the static call graph; their
	// Count is zero and they propagate no time (§4).
	Static bool
	// PropSelfTicks and PropChildTicks are the portions of the callee's
	// self and descendant time propagated along this arc to the caller.
	PropSelfTicks  float64
	PropChildTicks float64
}

// Spontaneous reports whether the arc's caller is unidentifiable.
func (a *Arc) Spontaneous() bool { return a.From < 0 }

// Self reports whether the arc is self-recursive.
func (a *Arc) Self() bool { return a.From == a.To }

// FlatRow is one row of the flat profile, in presentation order
// (decreasing self time; ties by calls, then name).
type FlatRow struct {
	Name string `json:"name"`
	// Cycle mirrors the routine's cycle number for the "<cycleN>" tag.
	Cycle int `json:"cycle,omitempty"`
	// Percent is the routine's share of total sampled time.
	Percent float64 `json:"percent"`
	// CumulativeSeconds is the running sum of SelfSeconds down the
	// unfiltered table.
	CumulativeSeconds float64 `json:"cumulative_seconds"`
	SelfSeconds       float64 `json:"self_seconds"`
	// Calls counts all calls, including self-recursive ones.
	Calls int64 `json:"calls"`
	// SelfMsPerCall and TotalMsPerCall are the §2 averages; meaningful
	// only when Calls > 0, and TotalMsPerCall only outside cycles.
	SelfMsPerCall  float64 `json:"self_ms_per_call,omitempty"`
	TotalMsPerCall float64 `json:"total_ms_per_call,omitempty"`
}

// Seconds converts ticks to seconds at the profile's clock rate.
func (p *Profile) Seconds(ticks float64) float64 { return ticks / float64(p.Hz) }

// Percent returns ticks as a percentage of the total run.
func (p *Profile) Percent(ticks float64) float64 {
	if p.TotalTicks <= 0 {
		return 0
	}
	return 100 * ticks / p.TotalTicks
}

// Routine returns the named routine, if present.
func (p *Profile) Routine(name string) (*Routine, bool) {
	i, ok := p.RoutinePos(name)
	if !ok {
		return nil, false
	}
	return &p.Routines[i], true
}

// RoutinePos returns the named routine's position in Routines, if
// present: a binary search of the name order. Where names repeat it
// is the last position with the name.
func (p *Profile) RoutinePos(name string) (int, bool) {
	i, ok := find(p.Routines, p.Links().ByName(), name)
	return int(i), ok
}

// find returns the last position in byName, routines' positions sorted
// by name and then position, of a routine with the name, if any.
func find(routines []Routine, byName []int32, name string) (int32, bool) {
	k := sort.Search(len(byName), func(k int) bool { return routines[byName[k]].Name > name })
	if k == 0 || routines[byName[k-1]].Name != name {
		return 0, false
	}
	return byName[k-1], true
}

// Links returns the profile's index layout. Build and Decode lay it
// out; a profile assembled by hand gets it at the first call, with its
// routines sorted by name and its cycle members resolved in that
// order.
func (p *Profile) Links() *Links {
	p.linksOnce.Do(func() {
		if p.links == nil {
			p.links = newLinks(p)
		}
	})
	return p.links
}

// Links is a profile's arcs and cycles laid out by routine position:
// compressed-row in and out adjacency over Profile.Arcs, and each
// cycle's member positions. The renderers walk it instead of resolving
// names. Self arcs are left out of both directions, since every
// listing loop skips them, and each routine's arcs keep the order of
// Profile.Arcs, on which the listing's tie-breaking depends.
type Links struct {
	// Routine i's incoming arcs are in[inStart[i]:inStart[i+1]] and its
	// outgoing arcs out[outStart[i]:outStart[i+1]], as positions in
	// Profile.Arcs.
	in, out           []int32
	inStart, outStart []int32
	// Cycle c's members, as positions in Routines in discovery order,
	// are members[memberStart[c]:memberStart[c+1]].
	members, memberStart []int32
	// byName lists the routine positions by name, then position.
	byName []int32
}

// In returns the positions in Profile.Arcs of routine i's incoming
// arcs, self arcs left out.
func (l *Links) In(i int32) []int32 { return l.in[l.inStart[i]:l.inStart[i+1]] }

// Out returns the positions in Profile.Arcs of routine i's outgoing
// arcs, self arcs left out.
func (l *Links) Out(i int32) []int32 { return l.out[l.outStart[i]:l.outStart[i+1]] }

// Members returns the routine positions of the members of Cycles[c],
// in discovery order.
func (l *Links) Members(c int) []int32 { return l.members[l.memberStart[c]:l.memberStart[c+1]] }

// ByName returns the routine positions sorted by name, then by
// position: the order the flat profile, the never-called list, the
// index and Diff break their ties in. A built profile shares its
// graph's order, and so its symbol table's. The caller must not modify
// the result.
func (l *Links) ByName() []int32 { return l.byName }

// newLinks lays out a decoded or hand-assembled profile's arcs by a
// counting sort on each endpoint, which keeps every routine's arcs in
// model order, and records the routines' name order and each cycle's
// members, found in it by name; a member that names no routine reads
// as position 0. Build takes all of these from the graph instead.
func newLinks(p *Profile) *Links {
	n := len(p.Routines)
	names := make([]string, n)
	for i := range p.Routines {
		names[i] = p.Routines[i].Name
	}
	byName := order.ByName(names)
	l := &Links{
		inStart:     make([]int32, n+1),
		outStart:    make([]int32, n+1),
		memberStart: make([]int32, len(p.Cycles)+1),
		byName:      byName,
	}
	for k := range p.Arcs {
		a := &p.Arcs[k]
		if a.Self() {
			continue
		}
		l.inStart[a.To+1]++
		if a.From >= 0 {
			l.outStart[a.From+1]++
		}
	}
	for i := 0; i < n; i++ {
		l.inStart[i+1] += l.inStart[i]
		l.outStart[i+1] += l.outStart[i]
	}
	l.in = make([]int32, l.inStart[n])
	l.out = make([]int32, l.outStart[n])
	inFill := append([]int32(nil), l.inStart[:n]...)
	outFill := append([]int32(nil), l.outStart[:n]...)
	for k := range p.Arcs {
		a := &p.Arcs[k]
		if a.Self() {
			continue
		}
		l.in[inFill[a.To]] = int32(k)
		inFill[a.To]++
		if a.From >= 0 {
			l.out[outFill[a.From]] = int32(k)
			outFill[a.From]++
		}
	}
	for c := range p.Cycles {
		for _, name := range p.Cycles[c].Members {
			i, _ := find(p.Routines, byName, name)
			l.members = append(l.members, i)
		}
		l.memberStart[c+1] = int32(len(l.members))
	}
	return l
}

// Package gmon defines the profile data file ("gmon.out") written when a
// profiled program exits and read by the post-processors.
//
// The paper (§3.2) condenses two data structures to the file as the
// program terminates: the arc table — (call site, callee, traversal
// count) triples — and the program-counter histogram, whose ranges "are
// summarized as a lower and upper bound and a step size". This package is
// the in-memory form of that file, its binary encoding, and the merge
// operation that lets "the profile data for several executions of a
// program be combined by the post-processing" (§3).
package gmon

import (
	"fmt"
	"sort"
)

// SpontaneousPC is the FromPC of an arc whose caller could not be
// identified (non-standard calling sequences, §3.1). It matches
// vm.SpontaneousPC; the value is duplicated to keep this package free of
// a vm dependency.
const SpontaneousPC = int64(-1)

// DefaultHz is the clock-tick rate used when a Profile does not specify
// one: the paper's 1/60th-of-a-second system clock.
const DefaultHz = 60

// Histogram is the program-counter sampling histogram. Bucket i counts
// clock ticks observed with Low+i*Step <= pc < Low+(i+1)*Step.
type Histogram struct {
	Low    int64 // first text address covered
	High   int64 // one past the last text address covered
	Step   int64 // words per bucket (1 = one-to-one with text words)
	Counts []uint32
}

// NumBuckets returns the bucket count implied by the bounds and step.
func (h *Histogram) NumBuckets() int {
	if h.Step <= 0 || h.High <= h.Low {
		return 0
	}
	return int((h.High - h.Low + h.Step - 1) / h.Step)
}

// BucketFor returns the bucket index covering pc, or -1 if out of range.
func (h *Histogram) BucketFor(pc int64) int {
	if pc < h.Low || pc >= h.High || h.Step <= 0 {
		return -1
	}
	return int((pc - h.Low) / h.Step)
}

// BucketRange returns the [lo, hi) address range of bucket i.
func (h *Histogram) BucketRange(i int) (lo, hi int64) {
	lo = h.Low + int64(i)*h.Step
	hi = lo + h.Step
	if hi > h.High {
		hi = h.High
	}
	return lo, hi
}

// TotalTicks sums all bucket counts.
func (h *Histogram) TotalTicks() int64 {
	var t int64
	for _, c := range h.Counts {
		t += int64(c)
	}
	return t
}

// Validate checks internal consistency.
func (h *Histogram) Validate() error {
	if h.Step <= 0 {
		return fmt.Errorf("gmon: histogram step %d (want > 0)", h.Step)
	}
	if h.High < h.Low {
		return fmt.Errorf("gmon: histogram bounds [%#x,%#x) inverted", h.Low, h.High)
	}
	if want := h.NumBuckets(); len(h.Counts) != want {
		return fmt.Errorf("gmon: histogram has %d buckets, bounds imply %d", len(h.Counts), want)
	}
	return nil
}

// MaxStackDepth is the format bound on frames per stack sample: the
// reader rejects deeper records, so a hostile file cannot drive an
// unbounded per-record allocation. Collectors cap their walks well
// below it (mon.DefaultStackDepth).
const MaxStackDepth = 512

// StackSample is one whole-call-stack sample with its observation
// count — the retrospective's fix for §3.2's average-time-per-call
// assumption: "periodically gathering not just isolated program counter
// samples and isolated call graph arcs, but complete call stacks".
//
// PCs are leaf-first: PCs[0] is the program counter the clock tick
// sampled, and each later entry is the return address of the next
// active frame outward (so the call site of frame i is PCs[i]-1 for
// i > 0). PCs are raw addresses; symbol resolution happens at model
// build time, which is what lets stacks merge across runs without a
// symbol table present.
type StackSample struct {
	PCs   []int64
	Count int64
}

// Arc is one dynamic call-graph arc with its traversal count. FromPC is
// the address of the call instruction (the call site); SelfPC is the
// address of the callee's profiled prologue, which the symbol table maps
// to the callee routine.
type Arc struct {
	FromPC int64
	SelfPC int64
	Count  int64
}

// Profile is the complete contents of a profile data file.
type Profile struct {
	Hist Histogram
	Arcs []Arc
	// Stacks holds the interned whole-stack samples, one entry per
	// distinct PC sequence. Empty for profiles gathered without a stack
	// walker and for files in format versions 1 and 2 (the stack
	// section is a version-3 addition; downgrading drops it).
	Stacks []StackSample
	// Hz is the clock-tick rate: histogram counts are ticks, and
	// seconds = ticks / Hz. Zero means DefaultHz.
	Hz int64
}

// ClockHz returns the effective tick rate.
func (p *Profile) ClockHz() int64 {
	if p.Hz > 0 {
		return p.Hz
	}
	return DefaultHz
}

// TotalSeconds returns the sampled execution time in seconds.
func (p *Profile) TotalSeconds() float64 {
	return float64(p.Hist.TotalTicks()) / float64(p.ClockHz())
}

// Validate checks internal consistency of the whole profile.
func (p *Profile) Validate() error {
	if err := p.Hist.Validate(); err != nil {
		return err
	}
	for i, a := range p.Arcs {
		if a.Count < 0 {
			return fmt.Errorf("gmon: arc %d has negative count %d", i, a.Count)
		}
		if a.SelfPC < 0 {
			return fmt.Errorf("gmon: arc %d has invalid callee pc %#x", i, a.SelfPC)
		}
		if a.FromPC < 0 && a.FromPC != SpontaneousPC {
			return fmt.Errorf("gmon: arc %d has invalid call-site pc %#x", i, a.FromPC)
		}
	}
	for i := range p.Stacks {
		s := &p.Stacks[i]
		if len(s.PCs) == 0 {
			return fmt.Errorf("gmon: stack %d has no frames", i)
		}
		if len(s.PCs) > MaxStackDepth {
			return fmt.Errorf("gmon: stack %d has %d frames (max %d)", i, len(s.PCs), MaxStackDepth)
		}
		if s.Count <= 0 {
			return fmt.Errorf("gmon: stack %d has non-positive count %d", i, s.Count)
		}
		for j, pc := range s.PCs {
			if pc < 0 {
				return fmt.Errorf("gmon: stack %d frame %d has invalid pc %#x", i, j, pc)
			}
		}
	}
	return nil
}

// SortArcs orders arcs by (FromPC, SelfPC) for deterministic output.
func (p *Profile) SortArcs() { sortArcs(p.Arcs) }

func sortArcs(arcs []Arc) {
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].FromPC != arcs[j].FromPC {
			return arcs[i].FromPC < arcs[j].FromPC
		}
		return arcs[i].SelfPC < arcs[j].SelfPC
	})
}

// compareArcs orders arcs by (FromPC, SelfPC) — the canonical arc order
// SortArcs, Merge and the version-2 format fix. Counts do not take
// part: arcs with equal keys compare equal.
func compareArcs(a, b *Arc) int {
	switch {
	case a.FromPC < b.FromPC:
		return -1
	case a.FromPC > b.FromPC:
		return 1
	case a.SelfPC < b.SelfPC:
		return -1
	case a.SelfPC > b.SelfPC:
		return 1
	}
	return 0
}

// arcsSorted reports whether arcs are in canonical order, equal keys
// allowed, without allocating.
func arcsSorted(arcs []Arc) bool {
	for i := 1; i < len(arcs); i++ {
		if compareArcs(&arcs[i], &arcs[i-1]) < 0 {
			return false
		}
	}
	return true
}

// compareStacks orders PC sequences lexicographically, shorter prefix
// first — the canonical stack-table order SortStacks and the v3 writer
// fix.
func compareStacks(a, b []int64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func compareStackSamples(a, b *StackSample) int { return compareStacks(a.PCs, b.PCs) }

// stacksSorted is arcsSorted for a stack table.
func stacksSorted(stacks []StackSample) bool {
	for i := 1; i < len(stacks); i++ {
		if compareStackSamples(&stacks[i], &stacks[i-1]) < 0 {
			return false
		}
	}
	return true
}

// SortStacks orders stack samples lexicographically by PC sequence for
// deterministic output; Merge and the v3 writer rely on this canonical
// order the way arcs rely on SortArcs.
func (p *Profile) SortStacks() { SortStacks(p.Stacks) }

// SortStacks orders a bare stack-sample slice into the same canonical
// order, for collectors that assemble one outside a Profile.
func SortStacks(stacks []StackSample) {
	sort.Slice(stacks, func(i, j int) bool {
		return compareStacks(stacks[i].PCs, stacks[j].PCs) < 0
	})
}

// SumStacks returns the total number of whole-stack samples the
// profile carries — the sum of interned counts, the stacks-view
// analogue of the histogram's TotalTicks.
func (p *Profile) SumStacks() int64 {
	var n int64
	for i := range p.Stacks {
		n += p.Stacks[i].Count
	}
	return n
}

// Merge accumulates other into p: histogram bucket counts and arc counts
// add element-wise. Profiles are mergeable only when their histogram
// geometry and clock rate agree, the same restriction real gprof places
// on summed gmon.out files.
//
// The arc and stack tables fold as one linear walk over both sides in
// canonical order. p is sorted in place if it is not already (it is
// owned); an unsorted other is folded from a sorted copy, so other is
// never modified. Duplicate keys follow one fixed rule: a run of equal
// keys in p keeps its entries in order and every entry of other with
// that key adds into the run's last entry; a run in other whose key p
// lacks collapses into one entry. When other brings no key p lacks,
// counts add in place and Merge allocates nothing.
func (p *Profile) Merge(other *Profile) error {
	if err := p.checkMergeable(other); err != nil {
		return err
	}
	for i, c := range other.Hist.Counts {
		p.Hist.Counts[i] += c
	}
	if !arcsSorted(p.Arcs) {
		sortArcs(p.Arcs)
	}
	arcs := other.Arcs
	if !arcsSorted(arcs) {
		arcs = append([]Arc(nil), arcs...)
		sortArcs(arcs)
	}
	p.Arcs = foldSorted(p.Arcs, arcs, compareArcs, func(into, from *Arc) { into.Count += from.Count })
	if len(other.Stacks) > 0 {
		// PC slices are never mutated after construction, so the
		// merged table may alias other's.
		if !stacksSorted(p.Stacks) {
			p.SortStacks()
		}
		stacks := other.Stacks
		if !stacksSorted(stacks) {
			stacks = append([]StackSample(nil), stacks...)
			SortStacks(stacks)
		}
		p.Stacks = foldSorted(p.Stacks, stacks, compareStackSamples,
			func(into, from *StackSample) { into.Count += from.Count })
	}
	return nil
}

// foldSorted folds src into dst, both in cmp order with equal keys
// allowed, under Merge's duplicate rule, and returns the result. A
// first walk counts the src keys dst lacks. With none, counts add into
// dst in place and dst is returned; otherwise one slice of exactly the
// merged length receives a second walk, and dst is left unmodified.
func foldSorted[T any](dst, src []T, cmp func(a, b *T) int, add func(into, from *T)) []T {
	fresh := 0
	i := 0
	for j := range src {
		c := 1 // dst[i] vs src[j]; stays positive when dst is empty
		for i < len(dst) {
			if c = cmp(&dst[i], &src[j]); c >= 0 {
				break
			}
			i++
		}
		// A src run whose key dst lacks counts once, at its head.
		if c != 0 && (j == 0 || cmp(&src[j-1], &src[j]) != 0) {
			fresh++
		}
	}
	if fresh == 0 {
		// Every src key is in dst, so dst[0] <= src[0] and the last dst
		// entry <= src[j] is the last of src[j]'s run.
		i = 0
		for j := range src {
			for i+1 < len(dst) && cmp(&dst[i+1], &src[j]) <= 0 {
				i++
			}
			add(&dst[i], &src[j])
		}
		return dst
	}
	out := make([]T, 0, len(dst)+fresh)
	i = 0
	for j := range src {
		for i < len(dst) && cmp(&dst[i], &src[j]) <= 0 {
			out = append(out, dst[i])
			i++
		}
		// out's last entry, if it has src[j]'s key, is the last of dst's
		// run or the entry an earlier src duplicate opened.
		if n := len(out); n > 0 && cmp(&out[n-1], &src[j]) == 0 {
			add(&out[n-1], &src[j])
		} else {
			out = append(out, src[j])
		}
	}
	return append(out, dst[i:]...)
}

// Clone returns a deep copy of p. Stack PC sequences are shared, not
// copied: they are immutable after construction (Merge only ever sums
// counts or copies whole entries), so aliasing them is safe and keeps
// the copy-on-write snapshot path cheap.
func (p *Profile) Clone() *Profile {
	q := &Profile{Hist: p.Hist, Hz: p.Hz}
	q.Hist.Counts = append([]uint32(nil), p.Hist.Counts...)
	q.Arcs = append([]Arc(nil), p.Arcs...)
	if p.Stacks != nil {
		q.Stacks = append([]StackSample(nil), p.Stacks...)
	}
	return q
}

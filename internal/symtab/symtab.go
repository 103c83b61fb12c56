// Package symtab maps program-counter values to routines and attributes
// program-counter histogram samples to routine self-times.
//
// Attribution follows gprof's rule: a histogram bucket lying entirely
// inside one routine charges all its ticks to that routine; a bucket that
// straddles routine boundaries splits its ticks proportionally to the
// overlap with each routine. At one-to-one granularity (bucket step 1)
// the split never happens and attribution is exact.
package symtab

import (
	"fmt"
	"hash/maphash"
	"math"
	"sort"

	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/order"
)

// Table is an address-sorted routine symbol table.
type Table struct {
	funcs []object.Sym
	// ext holds each routine's [Addr, End()) compactly, so a lookup
	// touches 16 bytes per probed routine rather than a whole Sym.
	ext []extent

	// The address-bucket table, the post-processing counterpart of the
	// paper's PC histogram (§3): text addresses [lo, lo+span) split
	// into buckets of 1<<shift words, and start[b] is the first
	// routine whose End() lies above bucket b's base address. The
	// routine containing a pc of bucket b, if any, is then among
	// start[b] .. start[b+1]. start has at most 2·Len()+2 entries.
	lo    int64
	span  uint64
	shift uint
	start []int32

	// node maps a symbol index to its node index: routines that share
	// a name collapse into one node, numbered in order of first
	// appearance. It is nil when every name is unique (the identity).
	node  []int32
	nodes int

	// byName lists the node indices by name, then index: the one name
	// order every listing derives its ties from (see NameOrder).
	byName []int32
}

// extent is one routine's address range.
type extent struct{ addr, end int64 }

// New builds a table from a linked image.
func New(im *object.Image) *Table {
	return FromSyms(im.Funcs)
}

// FromSyms builds a table from an explicit symbol list (used by the
// Go-native collector and by tests). Symbols are copied and sorted;
// overlapping symbols are an error (see Validate), but the table is
// usable, if not meaningful, without validation.
func FromSyms(syms []object.Sym) *Table {
	t := &Table{funcs: append([]object.Sym(nil), syms...)}
	sort.Slice(t.funcs, func(i, j int) bool { return t.funcs[i].Addr < t.funcs[j].Addr })
	t.indexAddrs()
	t.indexNames()
	t.sortNames()
	return t
}

// indexAddrs builds the address-bucket table in one pass over the
// routines. The shift is the smallest that fits the text span into
// 2·Len()+1 buckets, so the table's size tracks the routine count
// whatever the address spread. Routines are bucketed by the running
// maximum of End(), which is End() itself on a validated table and
// keeps start monotone (and every search bounded) on one that is not.
func (t *Table) indexAddrs() {
	n := len(t.funcs)
	if n == 0 {
		return
	}
	t.ext = make([]extent, n)
	t.lo = t.funcs[0].Addr
	hi := t.lo
	for i, s := range t.funcs {
		t.ext[i] = extent{s.Addr, s.End()}
		hi = max(hi, s.End())
	}
	t.span = uint64(hi) - uint64(t.lo)
	if t.span == 0 {
		return
	}
	for (t.span-1)>>t.shift > uint64(2*n) {
		t.shift++
	}
	nb := int((t.span-1)>>t.shift) + 1
	t.start = make([]int32, nb+1)
	i, reach := 0, int64(math.MinInt64)
	for b := 0; b < nb; b++ {
		base := int64(uint64(t.lo) + uint64(b)<<t.shift)
		for i < n && max(reach, t.ext[i].end) <= base {
			reach = max(reach, t.ext[i].end)
			i++
		}
		t.start[b] = int32(i)
	}
	t.start[nb] = int32(n)
}

// indexNames collapses duplicate routine names once, so every graph
// built over the table gets one node per name without a string lookup.
// A linear-probing table, at most half full, holds each distinct name's
// first symbol index beside 32 bits of the name's hash, so a probe
// compares strings only on a hash match.
func (t *Table) indexNames() {
	size := 2
	for size < 2*len(t.funcs) {
		size <<= 1
	}
	slots := make([]uint64, size) // hash tag | first symbol index + 1
	mask := uint64(size - 1)
	seed := maphash.MakeSeed()
	for i, s := range t.funcs {
		h := maphash.String(seed, s.Name)
		tag := h &^ math.MaxUint32
		k := -1
		for p := h & mask; ; p = (p + 1) & mask {
			e := slots[p]
			if e == 0 {
				slots[p] = tag | uint64(i+1)
				break
			}
			if j := int(uint32(e)) - 1; e&^math.MaxUint32 == tag && t.funcs[j].Name == s.Name {
				k = t.NodeIndex(j)
				break
			}
		}
		if k < 0 {
			k = t.nodes
			t.nodes++
		}
		if t.node == nil && k != i {
			t.node = make([]int32, len(t.funcs))
			for j := range i {
				t.node[j] = int32(j)
			}
		}
		if t.node != nil {
			t.node[i] = int32(k)
		}
	}
}

// sortNames computes the nodes' name order.
func (t *Table) sortNames() {
	names := make([]string, t.nodes)
	for i, s := range t.funcs {
		names[t.NodeIndex(i)] = s.Name
	}
	t.byName = order.ByName(names)
}

// Validate reports overlapping or empty symbols.
func (t *Table) Validate() error {
	for i, s := range t.funcs {
		if s.Size <= 0 {
			return fmt.Errorf("symtab: routine %s has size %d", s.Name, s.Size)
		}
		if i > 0 && s.Addr < t.funcs[i-1].End() {
			return fmt.Errorf("symtab: routines %s and %s overlap", t.funcs[i-1].Name, s.Name)
		}
	}
	return nil
}

// Len returns the number of routines.
func (t *Table) Len() int { return len(t.funcs) }

// Syms returns the routines in address order. The caller must not modify
// the result.
func (t *Table) Syms() []object.Sym { return t.funcs }

// Names returns all routine names in address order.
func (t *Table) Names() []string {
	names := make([]string, len(t.funcs))
	for i, s := range t.funcs {
		names[i] = s.Name
	}
	return names
}

// Find returns the routine containing pc.
func (t *Table) Find(pc int64) (object.Sym, bool) {
	i, ok := t.FindIndex(pc)
	if !ok {
		return object.Sym{}, false
	}
	return t.funcs[i], true
}

// FindIndex returns the table index of the routine containing pc. The
// index is stable for the life of the table (addresses sort once, at
// construction), so callers can key per-routine arrays on it instead
// of on names — the call-graph builder resolves every arc record this
// way. The lookup is one bounds compare, one shift into the
// address-bucket table, and a binary search confined to the routines
// of pc's bucket: O(1) per pc for any address layout, and the same
// answer as a binary search over the whole table.
func (t *Table) FindIndex(pc int64) (int, bool) {
	d := uint64(pc) - uint64(t.lo)
	if d >= t.span {
		return 0, false
	}
	i := t.search(d, pc)
	if i < len(t.ext) && t.ext[i].addr <= pc && pc < t.ext[i].end {
		return i, true
	}
	return 0, false
}

// search returns the first routine of pc's bucket whose End() exceeds
// pc, or the next bucket's first routine; d is pc's offset into the
// text span.
func (t *Table) search(d uint64, pc int64) int {
	b := d >> t.shift
	i, j := int(t.start[b]), int(t.start[b+1])
	for i < j {
		h := int(uint(i+j) >> 1)
		if t.ext[h].end > pc {
			j = h
		} else {
			i = h + 1
		}
	}
	return i
}

// firstAbove returns the first routine whose End() exceeds pc, for any
// pc: 0 below the text span and Len() above it.
func (t *Table) firstAbove(pc int64) int {
	if pc < t.lo {
		return 0
	}
	d := uint64(pc) - uint64(t.lo)
	if d >= t.span {
		return len(t.funcs)
	}
	return t.search(d, pc)
}

// NodeIndex returns the node index of routine i: routines are numbered
// by name in order of first appearance, so routines that share a name
// share a node. It is i itself when every name is unique.
func (t *Table) NodeIndex(i int) int {
	if t.node == nil {
		return i
	}
	return int(t.node[i])
}

// NumNodes returns the number of distinct routine names.
func (t *Table) NumNodes() int { return t.nodes }

// NameOrder returns the node indices (see NodeIndex) sorted by name,
// then by index. It is computed once, when the table is built, so
// every analysis over a shared table reuses one sort. The caller must
// not modify the result.
func (t *Table) NameOrder() []int32 { return t.byName }

// Lookup returns the routine with the given name.
func (t *Table) Lookup(name string) (object.Sym, bool) {
	for _, s := range t.funcs {
		if s.Name == name {
			return s, true
		}
	}
	return object.Sym{}, false
}

// SelfTicks holds the histogram attribution for one routine, in ticks
// (fractional when a coarse bucket was split across routines).
type SelfTicks map[string]float64

// AttributeHist distributes the histogram's ticks across routines.
// It returns the per-routine tick totals and the number of ticks that
// fell outside every known routine (charged to no one, reported so the
// flat profile can still sum to the total run time via the caller). It
// is the name-keyed projection of AttributeHistIdx: when two routines
// share a name their ticks merge under it.
func (t *Table) AttributeHist(h *gmon.Histogram) (SelfTicks, float64) {
	ticks, lost := t.AttributeHistIdx(h)
	out := make(SelfTicks, len(t.funcs))
	for i, v := range ticks {
		if v != 0 {
			out[t.funcs[i].Name] += v
		}
	}
	return out, lost
}

// AttributeHistIdx distributes the histogram's ticks across routines
// into a slice indexed by table position (see FindIndex) — no map
// operations on the hot path, so million-bucket histograms attribute
// at memory speed. Buckets are scanned in address order, so every
// routine's total is the same floating-point sum on every run; each
// bucket's routine walk starts from the address-bucket table (see
// FindIndex) rather than a search over the whole table.
func (t *Table) AttributeHistIdx(h *gmon.Histogram) ([]float64, float64) {
	out := make([]float64, len(t.funcs))
	var lost float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.BucketRange(i)
		width := float64(hi - lo)
		if width <= 0 {
			lost += float64(n)
			continue
		}
		covered := 0.0
		// Routines overlapping [lo, hi).
		for j := t.firstAbove(lo); j < len(t.ext) && t.ext[j].addr < hi; j++ {
			olo, ohi := max(lo, t.ext[j].addr), min(hi, t.ext[j].end)
			if ohi <= olo {
				continue
			}
			frac := float64(ohi-olo) / width
			out[j] += float64(n) * frac
			covered += frac
		}
		if covered < 1 {
			lost += float64(n) * (1 - covered)
		}
	}
	return out, lost
}

// Total sums all attributed ticks.
func (s SelfTicks) Total() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

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
	"sort"

	"repro/internal/gmon"
	"repro/internal/object"
)

// Table is an address-sorted routine symbol table.
type Table struct {
	funcs []object.Sym
}

// New builds a table from a linked image.
func New(im *object.Image) *Table {
	return FromSyms(im.Funcs)
}

// FromSyms builds a table from an explicit symbol list (used by the
// Go-native collector and by tests). Symbols are copied and sorted;
// overlapping symbols are an error.
func FromSyms(syms []object.Sym) *Table {
	t := &Table{funcs: append([]object.Sym(nil), syms...)}
	sort.Slice(t.funcs, func(i, j int) bool { return t.funcs[i].Addr < t.funcs[j].Addr })
	return t
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
// way.
func (t *Table) FindIndex(pc int64) (int, bool) {
	i := sort.Search(len(t.funcs), func(i int) bool { return t.funcs[i].End() > pc })
	if i < len(t.funcs) && t.funcs[i].Addr <= pc && pc < t.funcs[i].End() {
		return i, true
	}
	return 0, false
}

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
// routine's total is the same floating-point sum on every run.
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
		j := sort.Search(len(t.funcs), func(k int) bool { return t.funcs[k].End() > lo })
		for ; j < len(t.funcs) && t.funcs[j].Addr < hi; j++ {
			s := t.funcs[j]
			olo, ohi := max64(lo, s.Addr), min64(hi, s.End())
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

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

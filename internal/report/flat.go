package report

import (
	"cmp"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/model"
)

// Flat renders the flat profile (§5.1): routines sorted by decreasing
// self time, with cumulative seconds, call counts, and per-call times,
// followed by the list of routines never called during the execution.
// The self-seconds column sums to the total sampled run time (any ticks
// that fell outside known routines are reported explicitly so the sum
// still reconciles).
//
// The model's Flat rows arrive pre-sorted; the cumulative column is
// recomputed here over the rows that survive filtering, so a -E or
// minimum-percent view still reconciles internally.
func Flat(w io.Writer, m *model.Profile, opt Options) error {
	exclude := opt.compileExclude()
	keep := func(r *model.FlatRow) bool {
		return !(opt.MinPercent > 0 && r.Percent < opt.MinPercent) && !exclude[r.Name]
	}
	// The running total is summed serially, in row order, and recorded
	// at each chunk's first row; a chunk resumes the sum from there, so
	// every addition happens in the same order at any width.
	cumAt := make([]float64, 0, len(m.Flat)/lineChunk+1)
	var cum float64
	for i := range m.Flat {
		if i%lineChunk == 0 {
			cumAt = append(cumAt, cum)
		}
		if r := &m.Flat[i]; keep(r) {
			cum += r.SelfSeconds
		}
	}
	lw := newLineWriter(w)

	if !opt.NoHeaders {
		lw.str("flat profile:\n\n" +
			"  %         cumulative    self                self    total\n" +
			" time        seconds    seconds     calls  ms/call  ms/call name\n")
	}
	lw.rows(len(m.Flat), lineChunk, opt.Jobs, func() func([]byte, int, int) []byte {
		return func(b []byte, lo, hi int) []byte {
			cum := cumAt[lo/lineChunk]
			for i := range m.Flat[lo:hi] {
				if r := &m.Flat[lo+i]; keep(r) {
					cum += r.SelfSeconds
					b = appendFlatRow(b, r, cum)
				}
			}
			return b
		}
	})
	if m.LostTicks > 0 {
		b := appendFloat(lw.buf, m.Percent(m.LostTicks), 5, 1)
		b = append(b, ' ')
		b = appendFloat(b, cum+m.Seconds(m.LostTicks), 14, 2)
		b = append(b, ' ')
		b = appendFloat(b, m.Seconds(m.LostTicks), 10, 2)
		lw.buf = append(b, "                             <outside any routine>\n"...) // " %9s %8s %8s " of ""
	}
	if !opt.NoHeaders {
		lw.str("\ntotal: ")
		lw.buf = appendFloat(lw.buf, m.Seconds(m.TotalTicks), 0, 2)
		lw.str(" seconds\n")
	}

	if len(m.NeverCalled) > 0 {
		lw.str("\nroutines never called during this execution:\n")
		for _, name := range m.NeverCalled {
			lw.str("    ")
			lw.str(name)
			lw.str("\n")
			lw.endLine()
		}
	}
	return lw.close()
}

// appendFlatRow appends one flat-profile line for r, whose
// cumulative-seconds column reads cum.
func appendFlatRow(b []byte, r *model.FlatRow, cum float64) []byte {
	b = appendFloat(b, r.Percent, 5, 1)
	b = append(b, ' ')
	b = appendFloat(b, cum, 14, 2)
	b = append(b, ' ')
	b = appendFloat(b, r.SelfSeconds, 10, 2)
	b = append(b, ' ')
	b = appendInt(b, r.Calls, 9)
	b = append(b, ' ')
	switch {
	case r.Calls == 0:
		b = append(b, "                  "...) // "%8s %8s " of ""
	case r.Cycle != 0:
		b = appendFloat(b, r.SelfSeconds*1000/float64(r.Calls), 8, 2)
		b = append(b, "          "...) // " %8s " of ""
	default:
		b = appendFloat(b, r.SelfSeconds*1000/float64(r.Calls), 8, 2)
		b = append(b, ' ')
		b = appendFloat(b, r.TotalMsPerCall, 8, 2)
		b = append(b, ' ')
	}
	return append(appendLabel(b, r.Name, r.Cycle), '\n')
}

// IndexListing renders the alphabetical index gprof appends: each
// routine name with its entry number, so entries can be found in the
// call graph profile. It renders inline; Index takes a width.
func IndexListing(w io.Writer, m *model.Profile) error {
	return Index(w, m, Options{})
}

// Index is IndexListing with options; only Jobs applies. Entries are
// listed by label and, where labels tie (a routine named like a cycle's
// "<cycle N>" entry), by entry index, so the order is total.
//
// A routine outside every cycle is labelled by its name, so those
// arrive in label order from the profile's name order. Only the tagged
// labels, "name <cycleN>" for a cycle member and "<cycle N>" for a
// cycle as a whole, are sorted, and they are merged in by label, then
// by entry index.
func Index(w io.Writer, m *model.Profile, opt Options) error {
	// An item is where its label is, a routine position whose name is
	// the label or ^i for tagged[i], and the entry index.
	type item struct{ at, idx int32 }
	type taggedItem struct {
		label string
		idx   int32
	}
	var tagged []taggedItem
	for i := range m.Routines {
		if r := &m.Routines[i]; r.Index > 0 && r.Cycle != 0 {
			tagged = append(tagged, taggedItem{string(appendLabel(nil, r.Name, r.Cycle)), int32(r.Index)})
		}
	}
	for i := range m.Cycles {
		if c := &m.Cycles[i]; c.Index > 0 {
			tagged = append(tagged, taggedItem{"<cycle " + strconv.Itoa(c.Number) + ">", int32(c.Index)})
		}
	}
	slices.SortFunc(tagged, func(a, b taggedItem) int {
		if c := strings.Compare(a.label, b.label); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	items := make([]item, 0, len(m.Routines)+len(m.Cycles))
	t := 0
	for _, i := range m.Links().ByName() {
		r := &m.Routines[i]
		if r.Index <= 0 || r.Cycle != 0 {
			continue
		}
		for ; t < len(tagged); t++ {
			if c := strings.Compare(tagged[t].label, r.Name); c > 0 || c == 0 && tagged[t].idx > int32(r.Index) {
				break
			}
			items = append(items, item{^int32(t), tagged[t].idx})
		}
		items = append(items, item{i, int32(r.Index)})
	}
	for ; t < len(tagged); t++ {
		items = append(items, item{^int32(t), tagged[t].idx})
	}
	label := func(it *item) string {
		if it.at >= 0 {
			return m.Routines[it.at].Name
		}
		return tagged[^it.at].label
	}
	lw := newLineWriter(w)
	lw.str("index by function name:\n\n")
	lw.rows(len(items), lineChunk, opt.Jobs, func() func([]byte, int, int) []byte {
		return func(b []byte, lo, hi int) []byte {
			for i := range items[lo:hi] {
				it := &items[lo+i]
				b = append(b, "  ["...)
				b = strconv.AppendInt(b, int64(it.idx), 10)
				b = append(b, "] "...)
				b = append(b, label(it)...)
				b = append(b, '\n')
			}
			return b
		}
	})
	return lw.close()
}

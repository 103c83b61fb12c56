package report

import (
	"cmp"
	"encoding/binary"
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
func Index(w io.Writer, m *model.Profile, opt Options) error {
	// An item is a 16-byte sort key: its label's first 8 bytes,
	// big-endian and zero-padded, so that a smaller prefix means a
	// smaller label and most compares read no label; where the label
	// is; and the entry index.
	type item struct {
		prefix uint64
		at     int32 // a routine position, whose name is the label, or ^i for tagged[i]
		idx    int32
	}
	// tagged holds the labels that are not a routine's name: those of
	// cycle members and of cycles as a whole.
	var tagged []string
	items := make([]item, 0, len(m.Routines)+len(m.Cycles))
	add := func(label string, at int32, idx int) {
		var p [8]byte
		copy(p[:], label)
		items = append(items, item{binary.BigEndian.Uint64(p[:]), at, int32(idx)})
	}
	addTagged := func(label string, idx int) {
		tagged = append(tagged, label)
		add(label, ^int32(len(tagged)-1), idx)
	}
	for i := range m.Routines {
		switch r := &m.Routines[i]; {
		case r.Index <= 0:
		case r.Cycle != 0:
			addTagged(string(appendLabel(nil, r.Name, r.Cycle)), r.Index)
		default:
			add(r.Name, int32(i), r.Index)
		}
	}
	for i := range m.Cycles {
		if c := &m.Cycles[i]; c.Index > 0 {
			addTagged("<cycle "+strconv.Itoa(c.Number)+">", c.Index)
		}
	}
	label := func(it *item) string {
		if it.at >= 0 {
			return m.Routines[it.at].Name
		}
		return tagged[^it.at]
	}
	slices.SortFunc(items, func(a, b item) int {
		if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
			return c
		}
		if c := strings.Compare(label(&a), label(&b)); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
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

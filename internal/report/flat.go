package report

import (
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
		lw.buf = appendFixed(lw.buf, m.Seconds(m.TotalTicks), 2)
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

// Index is IndexListing with options; only Jobs applies.
func Index(w io.Writer, m *model.Profile, opt Options) error {
	type item struct {
		name string
		idx  int
	}
	items := make([]item, 0, len(m.Routines)+len(m.Cycles))
	for i := range m.Routines {
		r := &m.Routines[i]
		if r.Index > 0 {
			name := r.Name
			if r.Cycle != 0 {
				name = string(appendLabel(nil, r.Name, r.Cycle))
			}
			items = append(items, item{name, r.Index})
		}
	}
	for i := range m.Cycles {
		c := &m.Cycles[i]
		if c.Index > 0 {
			items = append(items, item{"<cycle " + strconv.Itoa(c.Number) + ">", c.Index})
		}
	}
	slices.SortFunc(items, func(a, b item) int { return strings.Compare(a.name, b.name) })
	lw := newLineWriter(w)
	lw.str("index by function name:\n\n")
	lw.rows(len(items), lineChunk, opt.Jobs, func() func([]byte, int, int) []byte {
		return func(b []byte, lo, hi int) []byte {
			for _, it := range items[lo:hi] {
				b = append(b, "  ["...)
				b = strconv.AppendInt(b, int64(it.idx), 10)
				b = append(b, "] "...)
				b = append(b, it.name...)
				b = append(b, '\n')
			}
			return b
		}
	})
	return lw.close()
}

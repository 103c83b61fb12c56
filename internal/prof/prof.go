// Package prof is the baseline profiler gprof improved upon: the UNIX
// prof(1) tool described in the paper's introduction and retrospective.
//
// prof combines the program-counter histogram with per-routine call
// counts to produce "a table of each function listing the number of
// times it was called, the time spent in it, and the average time per
// call". It knows nothing of the call graph: no arcs, no propagation, no
// cycles. This is the comparator for every experiment that shows what
// call-graph attribution adds — with prof alone, "the time for an
// operation spread across the several functions" of an abstraction is
// invisible.
//
// It consumes the same profile data files as gprof, deriving call counts
// by summing incoming arc counts per routine (the per-function counters
// the real prof maintained carry the same information).
package prof

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/gmon"
	"repro/internal/model"
	"repro/internal/symtab"
)

// Row is one line of the prof report.
type Row struct {
	Name      string
	Percent   float64 // share of total sampled time
	Seconds   float64 // self time
	Calls     int64
	MsPerCall float64 // average: the assumption gprof §2 warns about
}

// Table computes the report rows, sorted by decreasing self time.
func Table(tab *symtab.Table, p *gmon.Profile) []Row {
	ticks, _ := tab.AttributeHist(&p.Hist)
	calls := make(map[string]int64)
	for _, a := range p.Arcs {
		if callee, ok := tab.Find(a.SelfPC); ok {
			calls[callee.Name] += a.Count
		}
	}
	hz := float64(p.ClockHz())
	total := float64(p.Hist.TotalTicks())
	var rows []Row
	for _, s := range tab.Syms() {
		t := ticks[s.Name]
		c := calls[s.Name]
		if t == 0 && c == 0 {
			continue
		}
		r := Row{
			Name:    s.Name,
			Seconds: t / hz,
			Calls:   c,
		}
		if total > 0 {
			r.Percent = 100 * t / total
		}
		if c > 0 {
			r.MsPerCall = r.Seconds * 1000 / float64(c)
		}
		rows = append(rows, r)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Seconds != rows[j].Seconds {
			return rows[i].Seconds > rows[j].Seconds
		}
		if rows[i].Calls != rows[j].Calls {
			return rows[i].Calls > rows[j].Calls
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// Model condenses the prof table into the shared profile model
// (internal/model): a flat-only profile with no arcs, no cycles, and no
// descendant time — exactly what prof(1) could see. The result encodes
// and diffs like any gprof-produced model.
func Model(tab *symtab.Table, p *gmon.Profile) *model.Profile {
	rows := Table(tab, p)
	hz := p.ClockHz()
	m := &model.Profile{
		Schema:       model.Schema,
		Hz:           hz,
		TotalTicks:   float64(p.Hist.TotalTicks()),
		TotalSeconds: p.TotalSeconds(),
	}
	var cum float64
	for _, r := range rows {
		m.Routines = append(m.Routines, model.Routine{
			Name:        r.Name,
			SelfTicks:   r.Seconds * float64(hz),
			SelfSeconds: r.Seconds,
			Calls:       r.Calls,
		})
		cum += r.Seconds
		m.Flat = append(m.Flat, model.FlatRow{
			Name:              r.Name,
			Percent:           r.Percent,
			CumulativeSeconds: cum,
			SelfSeconds:       r.Seconds,
			Calls:             r.Calls,
			SelfMsPerCall:     r.MsPerCall,
		})
	}
	return m
}

// Render prints the classic prof table from a flat profile model.
func Render(w io.Writer, m *model.Profile) error {
	fmt.Fprintf(w, " %%time   seconds     calls  ms/call  name\n")
	for i := range m.Flat {
		r := &m.Flat[i]
		per := ""
		if r.Calls > 0 {
			per = fmt.Sprintf("%8.2f", r.SelfMsPerCall)
		}
		fmt.Fprintf(w, "%6.1f %9.2f %9d %8s  %s\n",
			r.Percent, r.SelfSeconds, r.Calls, per, r.Name)
	}
	fmt.Fprintf(w, "total: %.2f seconds\n", m.TotalSeconds)
	return nil
}

// Write renders the classic prof table.
func Write(w io.Writer, tab *symtab.Table, p *gmon.Profile) error {
	return Render(w, Model(tab, p))
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// RunReportSchema tags every run report; bump on incompatible change.
const RunReportSchema = "gprof.runreport.v1"

// StageTiming is one named stage's aggregate: spans sharing a name
// merge into a single row (a per-file span recorded by every merge
// worker becomes one row with Count = files).
type StageTiming struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`    // spans merged into this row
	StartNs int64  `json:"start_ns"` // earliest start, ns since trace start
	TotalNs int64  `json:"total_ns"` // summed span durations
	MaxNs   int64  `json:"max_ns"`   // longest single span
	Workers int    `json:"workers"`  // peak spans of this name open at once
}

// RunReport is the machine-readable summary of one traced run
// (docs/FORMATS.md, schema gprof.runreport.v1), which -runreport
// writes and cmd/tracecheck validates. Complete is false when the run
// was aborted (Fail was called, e.g. on ctx cancellation): the stages
// recorded up to that point are still present, so a canceled run stays
// diagnosable. WriteSummary renders the same report as the -stats
// table.
type RunReport struct {
	Schema   string           `json:"schema"`
	Complete bool             `json:"complete"`
	Error    string           `json:"error,omitempty"`
	WallNs   int64            `json:"wall_ns"`
	Stages   []StageTiming    `json:"stages"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
}

// Report aggregates the trace into a RunReport. Stages are ordered by
// first start time, which is the pipeline order for sequential stages.
// A nil Trace reports an empty, complete run.
func (t *Trace) Report() RunReport {
	r := RunReport{Schema: RunReportSchema, Complete: true, Stages: []StageTiming{}}
	if t == nil {
		return r
	}
	if err := t.Err(); err != nil {
		r.Complete = false
		r.Error = err.Error()
	}
	r.WallNs = t.Wall().Nanoseconds()
	byName := make(map[string]*StageTiming)
	open := make(map[string][]int64) // per name: ends of the spans still open
	for _, e := range t.Events() {
		st, ok := byName[e.Name]
		if !ok {
			st = &StageTiming{Name: e.Name, StartNs: e.Start}
			byName[e.Name] = st
		}
		st.Count++
		st.TotalNs += e.Dur
		st.MaxNs = max(st.MaxNs, e.Dur)
		open[e.Name] = openAt(open[e.Name], e)
		st.Workers = max(st.Workers, len(open[e.Name]))
	}
	for _, st := range byName {
		r.Stages = append(r.Stages, *st)
	}
	sort.Slice(r.Stages, func(i, j int) bool {
		if r.Stages[i].StartNs != r.Stages[j].StartNs {
			return r.Stages[i].StartNs < r.Stages[j].StartNs
		}
		return r.Stages[i].Name < r.Stages[j].Name
	})
	r.Counters, r.Gauges = t.counterValues()
	return r
}

// openAt advances one name's set of open spans to e's start, events
// arriving in start order: it drops the spans that ended by then and
// adds e. Its length is the number of spans of the name open at once.
func openAt(ends []int64, e Event) []int64 {
	k := 0
	for _, end := range ends {
		if end > e.Start {
			ends[k] = end
			k++
		}
	}
	return append(ends[:k], e.Start+e.Dur)
}

// WriteReport encodes the run report as indented JSON.
func (t *Trace) WriteReport(w io.Writer) error {
	r := t.Report()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&r)
}

// WriteSummary renders the human stage/counter table the CLIs print to
// stderr under -stats. A nil Trace writes nothing.
func (t *Trace) WriteSummary(w io.Writer) error {
	if t == nil {
		return nil
	}
	r := t.Report()
	status := "complete"
	if !r.Complete {
		status = "ABORTED: " + r.Error
	}
	if _, err := fmt.Fprintf(w, "self-observability: wall %v, %s\n",
		time.Duration(r.WallNs).Round(time.Microsecond), status); err != nil {
		return err
	}
	if len(r.Stages) > 0 {
		fmt.Fprintf(w, "  %-24s %7s %12s %12s %8s\n", "stage", "spans", "total", "max", "workers")
		for _, st := range r.Stages {
			fmt.Fprintf(w, "  %-24s %7d %12v %12v %8d\n",
				st.Name, st.Count,
				time.Duration(st.TotalNs).Round(time.Microsecond),
				time.Duration(st.MaxNs).Round(time.Microsecond),
				st.Workers)
		}
	}
	writeKV := func(title string, m map[string]int64) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s:\n", title)
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "    %-28s %d\n", name, m[name])
		}
	}
	writeKV("counters", r.Counters)
	writeKV("gauges", r.Gauges)
	return nil
}

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
	Workers int    `json:"workers"`  // distinct goroutines that recorded the name
}

// HistogramStats is the run-report summary of one registered histogram:
// exact count and sum plus bucket-estimated quantiles.
type HistogramStats struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`
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
	// Histograms is additive to the v1 schema: absent when no
	// histograms were registered, so existing readers are unaffected.
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
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
	goids := make(map[string]map[int64]bool)
	for _, e := range t.Events() {
		st, ok := byName[e.Name]
		if !ok {
			st = &StageTiming{Name: e.Name, StartNs: e.Start}
			byName[e.Name] = st
			goids[e.Name] = make(map[int64]bool)
		}
		st.Count++
		st.TotalNs += e.Dur
		if e.Dur > st.MaxNs {
			st.MaxNs = e.Dur
		}
		if e.Start < st.StartNs {
			st.StartNs = e.Start
		}
		goids[e.Name][e.Goid] = true
	}
	for name, st := range byName {
		st.Workers = len(goids[name])
		r.Stages = append(r.Stages, *st)
	}
	sort.Slice(r.Stages, func(i, j int) bool {
		if r.Stages[i].StartNs != r.Stages[j].StartNs {
			return r.Stages[i].StartNs < r.Stages[j].StartNs
		}
		return r.Stages[i].Name < r.Stages[j].Name
	})
	r.Counters, r.Gauges = t.counterValues()
	r.Histograms = t.histogramSnapshots()
	return r
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
	if len(r.Histograms) > 0 {
		fmt.Fprintf(w, "  histograms:\n")
		names := make([]string, 0, len(r.Histograms))
		for name := range r.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h := r.Histograms[name]
			fmt.Fprintf(w, "    %-28s n=%d sum=%d p50=%d p90=%d p99=%d\n",
				name, h.Count, h.Sum, h.P50, h.P90, h.P99)
		}
	}
	return nil
}

// Command tracecheck validates the profiler's own observability
// artifacts: Chrome trace-event JSON files written by -tracefile and
// run reports (schema gprof.runreport.v1) written by -runreport. The
// stats-smoke and metrics-smoke make targets run it in CI so a
// malformed trace fails the build before a human ever loads it into
// Perfetto. Besides per-event fields it checks that the complete events
// on each track nest: two spans on one tid are disjoint or one encloses
// the other, which is how trace viewers draw a track.
//
// Usage:
//
//	tracecheck file.json [file2.json ...]
//
// The file kind is detected from the content: an object with a
// "traceEvents" array is a Chrome trace, an object with a "schema"
// string is a run report. Exit status is non-zero if any file fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/obs"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tracecheck file.json [file2.json ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	ok := true
	for _, name := range flag.Args() {
		kind, err := checkFile(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", name, err)
			ok = false
			continue
		}
		fmt.Fprintf(os.Stderr, "tracecheck: %s: ok (%s)\n", name, kind)
	}
	if !ok {
		os.Exit(1)
	}
}

// probe holds just enough of either document shape to dispatch on.
type probe struct {
	TraceEvents *json.RawMessage `json:"traceEvents"`
	Schema      *string          `json:"schema"`
}

func checkFile(name string) (string, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return "", err
	}
	var p probe
	if err := json.Unmarshal(data, &p); err != nil {
		return "", fmt.Errorf("not a JSON object: %w", err)
	}
	switch {
	case p.TraceEvents != nil:
		if err := checkChromeTrace(data); err != nil {
			return "", err
		}
		return "chrome trace", nil
	case p.Schema != nil:
		if err := checkRunReport(data, *p.Schema); err != nil {
			return "", err
		}
		return *p.Schema, nil
	default:
		return "", fmt.Errorf("neither a Chrome trace (no traceEvents) nor a run report (no schema)")
	}
}

// chromeEvent mirrors the subset of the trace-event format the obs
// package emits: complete ("X"), metadata ("M"), and counter ("C")
// events. DecodeDisallowUnknown would be too strict — Perfetto accepts
// extra fields — but every field we rely on is checked.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	Pid  *int           `json:"pid"`
	Tid  *int64         `json:"tid"`
	Args map[string]any `json:"args"`
}

type chromeFile struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

func checkChromeTrace(data []byte) error {
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	if f.DisplayTimeUnit != "ms" && f.DisplayTimeUnit != "ns" {
		return fmt.Errorf("displayTimeUnit %q (want ms or ns)", f.DisplayTimeUnit)
	}
	tracks := make(map[int64][]span)
	for i, e := range f.TraceEvents {
		where := fmt.Sprintf("traceEvents[%d] (%s %q)", i, e.Ph, e.Name)
		if e.Name == "" {
			return fmt.Errorf("%s: empty name", where)
		}
		if e.Pid == nil || e.Tid == nil {
			return fmt.Errorf("%s: missing pid/tid", where)
		}
		switch e.Ph {
		case "X":
			if e.Ts == nil || *e.Ts < 0 {
				return fmt.Errorf("%s: missing or negative ts", where)
			}
			if e.Dur == nil || *e.Dur < 0 {
				return fmt.Errorf("%s: complete event missing or negative dur", where)
			}
			tracks[*e.Tid] = append(tracks[*e.Tid], span{where, *e.Ts, *e.Ts + *e.Dur})
		case "M":
			if e.Name != "process_name" && e.Name != "thread_name" {
				return fmt.Errorf("%s: unexpected metadata name", where)
			}
			if _, ok := e.Args["name"].(string); !ok {
				return fmt.Errorf("%s: metadata args.name missing", where)
			}
		case "C":
			if e.Ts == nil || *e.Ts < 0 {
				return fmt.Errorf("%s: missing or negative ts", where)
			}
			if len(e.Args) == 0 {
				return fmt.Errorf("%s: counter event with no args", where)
			}
		default:
			return fmt.Errorf("%s: unknown phase", where)
		}
	}
	for tid, spans := range tracks {
		if err := checkNesting(spans); err != nil {
			return fmt.Errorf("tid %d: %w", tid, err)
		}
	}
	return nil
}

// span is one complete event's extent, in microseconds.
type span struct {
	where      string
	start, end float64
}

// nestSlack absorbs the float rounding of ts+dur: a microsecond
// timestamp carries nanosecond precision, and its ulp stays far below
// this for any trace shorter than days.
const nestSlack = 1e-4

// checkNesting reports the first pair of spans that partially overlap:
// sorted by start, longest first, each span must fit inside the
// innermost span still open at its start.
func checkNesting(spans []span) error {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	var open []span
	for _, s := range spans {
		for len(open) > 0 && open[len(open)-1].end <= s.start+nestSlack {
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			if top := open[len(open)-1]; s.end > top.end+nestSlack {
				return fmt.Errorf("%s [%g, %g] partially overlaps %s [%g, %g] on one track",
					s.where, s.start, s.end, top.where, top.start, top.end)
			}
		}
		open = append(open, s)
	}
	return nil
}

func checkRunReport(data []byte, schema string) error {
	if schema != obs.RunReportSchema {
		return fmt.Errorf("schema %q (want %q)", schema, obs.RunReportSchema)
	}
	var r obs.RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return err
	}
	if r.WallNs < 0 {
		return fmt.Errorf("negative wall_ns %d", r.WallNs)
	}
	if !r.Complete && r.Error == "" {
		return fmt.Errorf("incomplete run with no error recorded")
	}
	if r.Complete && r.Error != "" {
		return fmt.Errorf("complete run with error %q", r.Error)
	}
	for i, st := range r.Stages {
		where := fmt.Sprintf("stages[%d] (%q)", i, st.Name)
		switch {
		case st.Name == "":
			return fmt.Errorf("%s: empty name", where)
		case st.Count < 1:
			return fmt.Errorf("%s: count %d", where, st.Count)
		case st.TotalNs < 0 || st.MaxNs < 0 || st.StartNs < 0:
			return fmt.Errorf("%s: negative timing", where)
		case st.MaxNs > st.TotalNs:
			return fmt.Errorf("%s: max_ns %d exceeds total_ns %d", where, st.MaxNs, st.TotalNs)
		case st.Workers < 1 || int64(st.Workers) > st.Count:
			return fmt.Errorf("%s: workers %d out of range for %d spans", where, st.Workers, st.Count)
		}
	}
	return nil
}

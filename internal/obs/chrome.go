package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// Chrome trace-event export: the -tracefile format and the flight
// recorder dump. The output is the JSON object form of the trace-event
// specification — a "traceEvents" array of complete ("X") events laid
// out on tracks (tids) where they nest, preceded by "M" metadata events
// naming the process and each track, and followed by one "C" counter
// event per registered counter and gauge. Perfetto and chrome://tracing
// load it directly. Timestamps are microseconds since trace start (the
// spec's unit).

// chromeEvent is one trace-event record. Field names are the spec's.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the object-form trace container.
type chromeFile struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// chromePid is the synthetic process id every event carries; the trace
// describes one process (this profiler run).
const chromePid = 1

// writeChromeEvents renders one process' spans plus final counter and
// gauge samples as a trace-event file — shared by Trace (the batch
// -tracefile export) and FlightRecorder (the /debug/flightrec dump).
func writeChromeEvents(w io.Writer, processName string, events []Event,
	counters, gauges map[string]int64, endTs float64) error {
	f := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	if processName == "" {
		// Disabled source: an empty but valid trace.
		return json.NewEncoder(w).Encode(&f)
	}
	f.TraceEvents = make([]chromeEvent, 0, len(events)+8)
	f.TraceEvents = append(f.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: chromePid, Tid: 0,
		Args: map[string]any{"name": processName},
	})
	tids, tracks := layoutTracks(events)
	for tid := int64(1); tid <= tracks; tid++ {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: tid,
			Args: map[string]any{"name": "track " + strconv.FormatInt(tid, 10)},
		})
	}
	for i, e := range events {
		dur := float64(e.Dur) / 1e3
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: e.Name, Cat: "stage", Ph: "X",
			Ts: float64(e.Start) / 1e3, Dur: &dur,
			Pid: chromePid, Tid: tids[i],
		})
	}
	// Final counter samples so the counter tracks render.
	for _, m := range []map[string]int64{counters, gauges} {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: name, Ph: "C", Ts: endTs, Pid: chromePid, Tid: 0,
				Args: map[string]any{"value": m[name]},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// layoutTracks assigns each event (sorted by sortEvents) a track id
// from 1 so that the spans on one track nest properly: any two are
// disjoint or one encloses the other. Each track keeps the stack of its
// still-open spans' ends; an event goes on the first track whose
// innermost open span, after popping the spans that ended by its start,
// is absent or encloses it.
func layoutTracks(events []Event) (tids []int64, tracks int64) {
	tids = make([]int64, len(events))
	var open [][]int64 // per track: ends of the open spans, outermost first
	for i, e := range events {
		end := e.Start + e.Dur
		k := 0
		for ; k < len(open); k++ {
			st := open[k]
			for len(st) > 0 && st[len(st)-1] <= e.Start {
				st = st[:len(st)-1]
			}
			open[k] = st
			if len(st) == 0 || st[len(st)-1] >= end {
				break
			}
		}
		if k == len(open) {
			open = append(open, nil)
		}
		open[k] = append(open[k], end)
		tids[i] = int64(k + 1)
	}
	return tids, int64(len(open))
}

// WriteChromeTrace exports every recorded span as Chrome trace-event
// JSON. A nil Trace writes an empty but valid trace, so error handling
// at call sites does not depend on the observability state.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return writeChromeEvents(w, "", nil, nil, nil, 0)
	}
	end := float64(t.Wall().Nanoseconds()) / 1e3
	counters, gauges := t.counterValues()
	return writeChromeEvents(w, "gprof self-profile", t.Events(), counters, gauges, end)
}

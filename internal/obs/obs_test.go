package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanRecordsEvent(t *testing.T) {
	tr := New()
	sp := tr.Span("load")
	time.Sleep(time.Millisecond)
	sp.End()
	events := tr.Events()
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	e := events[0]
	if e.Name != "load" {
		t.Errorf("name = %q", e.Name)
	}
	if e.Dur <= 0 {
		t.Errorf("duration %d not positive", e.Dur)
	}
}

// TestConcurrentSpans hammers the recorder and the registries from
// many goroutines; run under -race this is the data-race proof. Every
// goroutine opens its first span before any closes one, so at least
// two "work" spans overlap and Workers, the peak overlap, is >= 2.
func TestConcurrentSpans(t *testing.T) {
	tr := New()
	const workers, per = 16, 50
	c := tr.Counter("work.items")
	var wg, opened sync.WaitGroup
	opened.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := tr.Gauge("work.level")
			for i := 0; i < per; i++ {
				sp := tr.Span("work")
				if i == 0 {
					opened.Done()
					opened.Wait()
				}
				c.Add(1)
				g.Add(1)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Events()); got != workers*per {
		t.Errorf("got %d events, want %d", got, workers*per)
	}
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := tr.Gauge("work.level").Value(); got != workers*per {
		t.Errorf("gauge = %d, want %d", got, workers*per)
	}
	rep := tr.Report()
	if len(rep.Stages) != 1 || rep.Stages[0].Count != workers*per {
		t.Errorf("report stages = %+v", rep.Stages)
	}
	if rep.Stages[0].Workers < 2 {
		t.Errorf("expected overlapping spans, got peak %d", rep.Stages[0].Workers)
	}
}

// TestReportWorkersPeakOverlap pins the workers column on synthetic
// events: it is the peak number of spans of one name open at once,
// whatever goroutine recorded them.
func TestReportWorkersPeakOverlap(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
		want   int
	}{
		{"sequential", []Event{{"s", 0, 10}, {"s", 20, 10}, {"s", 40, 10}}, 1},
		{"touching", []Event{{"s", 0, 10}, {"s", 10, 10}, {"s", 20, 10}}, 1},
		{"three overlapping", []Event{{"s", 0, 100}, {"s", 10, 100}, {"s", 20, 100}, {"s", 300, 5}}, 3},
		{"nested", []Event{{"s", 0, 100}, {"s", 10, 20}, {"s", 50, 20}}, 2},
		{"equal starts", []Event{{"s", 5, 10}, {"s", 5, 30}}, 2},
		{"zero duration", []Event{{"s", 5, 0}, {"s", 5, 0}}, 1},
		{"other names ignored", []Event{{"s", 0, 100}, {"t", 10, 20}, {"t", 15, 20}}, 1},
	}
	for _, tc := range cases {
		tr := New()
		for _, e := range tc.events {
			tr.rec.record(e)
		}
		var got *StageTiming
		rep := tr.Report()
		for i := range rep.Stages {
			if rep.Stages[i].Name == "s" {
				got = &rep.Stages[i]
			}
		}
		if got == nil || got.Workers != tc.want {
			t.Errorf("%s: stage s = %+v, want workers %d", tc.name, got, tc.want)
		}
	}
}

// TestDisabledZeroAlloc is the acceptance gate: a nil trace's span,
// counter, and gauge paths allocate nothing.
func TestDisabledZeroAlloc(t *testing.T) {
	var tr *Trace
	c := tr.Counter("x")
	g := tr.Gauge("y")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Span("stage")
		c.Add(1)
		g.Set(7)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %v per op, want 0", allocs)
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	tr.Span("x").End()
	tr.Fail(errors.New("boom"))
	if tr.Err() != nil || tr.Events() != nil || tr.Wall() != 0 {
		t.Error("nil trace leaked state")
	}
	rep := tr.Report()
	if !rep.Complete || len(rep.Stages) != 0 {
		t.Errorf("nil report = %+v", rep)
	}
	var buf bytes.Buffer
	if err := tr.WriteSummary(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil summary wrote %q (err %v)", buf.String(), err)
	}
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Errorf("nil chrome trace: %v", err)
	}
	var f struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil || len(f.TraceEvents) != 0 {
		t.Errorf("nil chrome trace invalid: %v, %d events", err, len(f.TraceEvents))
	}
}

// TestChromeTraceValid checks the exported JSON against the trace-event
// schema: a traceEvents array whose records carry name/ph/ts/pid/tid,
// complete events carry dur, and every track has a thread_name
// metadata record.
func TestChromeTraceValid(t *testing.T) {
	tr := New()
	tr.Span("load").End()
	tr.Span("propagate").End()
	tr.Counter("gmon.bytes_read").Add(123)
	tr.Gauge("merge.workers").Set(4)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  *int64         `json:"pid"`
			Tid  *int64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	seen := map[string]int{}
	threadNames := 0
	for _, e := range f.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.Ts == nil || e.Pid == nil || e.Tid == nil {
			t.Fatalf("event missing required fields: %+v", e)
		}
		seen[e.Ph]++
		switch e.Ph {
		case "X":
			if e.Dur == nil {
				t.Errorf("complete event %q missing dur", e.Name)
			}
		case "M":
			if e.Name == "thread_name" {
				threadNames++
				if e.Args["name"] == "" {
					t.Errorf("thread_name without a name arg")
				}
			}
		case "C":
			if _, ok := e.Args["value"]; !ok {
				t.Errorf("counter event %q missing value arg", e.Name)
			}
		}
	}
	if seen["X"] != 2 {
		t.Errorf("got %d complete events, want 2", seen["X"])
	}
	if seen["C"] != 2 {
		t.Errorf("got %d counter events, want 2 (counter + gauge)", seen["C"])
	}
	if threadNames == 0 {
		t.Error("no thread_name metadata")
	}
}

func TestReportAggregatesByName(t *testing.T) {
	tr := New()
	for i := 0; i < 3; i++ {
		tr.Span("gmon.read_file").End()
	}
	tr.Span("scc").End()
	rep := tr.Report()
	if !rep.Complete || rep.Schema != RunReportSchema {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Stages) != 2 {
		t.Fatalf("got %d stages, want 2: %+v", len(rep.Stages), rep.Stages)
	}
	byName := map[string]StageTiming{}
	for _, st := range rep.Stages {
		byName[st.Name] = st
	}
	if byName["gmon.read_file"].Count != 3 {
		t.Errorf("read_file count = %d, want 3", byName["gmon.read_file"].Count)
	}
	if byName["scc"].Count != 1 {
		t.Errorf("scc count = %d, want 1", byName["scc"].Count)
	}
	// Stages are ordered by first start.
	if rep.Stages[0].Name != "gmon.read_file" {
		t.Errorf("stage order: %+v", rep.Stages)
	}
}

func TestFailMarksPartial(t *testing.T) {
	tr := New()
	tr.Span("merge").End()
	tr.Fail(context.Canceled)
	tr.Fail(errors.New("later error loses")) // first Fail wins
	rep := tr.Report()
	if rep.Complete {
		t.Error("report still complete after Fail")
	}
	if rep.Error != context.Canceled.Error() {
		t.Errorf("error = %q", rep.Error)
	}
	if len(rep.Stages) != 1 {
		t.Errorf("partial report lost stages: %+v", rep.Stages)
	}
	var buf bytes.Buffer
	if err := tr.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ABORTED") {
		t.Errorf("summary does not flag the abort:\n%s", buf.String())
	}
}

func TestContextCarrier(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("background context carries a trace")
	}
	tr := New()
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Error("trace lost in context round-trip")
	}
	if got := NewContext(context.Background(), nil); FromContext(got) != nil {
		t.Error("nil trace attached")
	}
}

func TestWriteReportJSON(t *testing.T) {
	tr := New()
	tr.Span("load").End()
	tr.Counter("object.bytes_read").Add(42)
	var buf bytes.Buffer
	if err := tr.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	var rep RunReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Schema != RunReportSchema || !rep.Complete {
		t.Errorf("decoded report: %+v", rep)
	}
	if rep.Counters["object.bytes_read"] != 42 {
		t.Errorf("counters = %v", rep.Counters)
	}
}

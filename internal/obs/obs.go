// Package obs is the profiler's self-observability layer: the paper's
// thesis — you cannot tune what you cannot measure (§2-§4) — applied to
// our own analysis pipeline. It has one span store, the
// FlightRecorder's per-track buffers, and two ways to hold it: a Trace
// keeps one recorder whose tracks grow for the life of one run, plus
// typed counters and gauges and a fail latch; a bare FlightRecorder
// keeps fixed rings for a long-running process. Every view is derived
// from the recorded (name, start, duration) events: a human stage
// summary (WriteSummary, for -stats), Chrome trace-event JSON
// (WriteChromeTrace, for -tracefile and /debug/flightrec, viewable in
// Perfetto or chrome://tracing), and a machine-readable run report
// (Report / WriteReport, schema gprof.runreport.v1, for -runreport).
//
// The disabled state is the default and near-free: every method is
// nil-safe, so a nil *Trace threaded through the pipeline costs a
// pointer check per call site and allocates nothing
// (testing.AllocsPerRun-verified; see BenchmarkObsSpanOverhead). The
// trace rides the context (NewContext / FromContext), so the pipeline
// stages that already take a ctx — core.Run, gmon.ReadFiles,
// propagate.RunCtx, callgraph.BuildCtx — need no signature changes.
//
// An enabled span is a value, not a closure: starting and ending one
// costs two clock reads, one atomic add and one striped mutex, with no
// allocation beyond a track's amortized growth (BenchmarkObsSpanEnabled).
// Spans are still meant for coarse units of work (a pipeline stage, a
// file read, a served request), not per-instruction events. Counters
// are the hot-path instrument: an *obs.Counter is a single atomic;
// hoist the registry lookup out of the loop and Add in place.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one recorded span: a named interval. Times are monotonic
// nanoseconds since the recorder was created.
type Event struct {
	Name  string
	Start int64 // ns since recorder start
	Dur   int64 // ns
}

// Trace accumulates spans, counters, and gauges for one run. The zero
// value is not usable; create with New. A nil *Trace is the disabled
// layer: every method no-ops. A Trace is safe for concurrent use.
type Trace struct {
	rec *FlightRecorder // tracks grow: a run keeps every span

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge

	failed atomic.Pointer[error]
}

// New creates an enabled trace whose clock starts now.
func New() *Trace {
	return &Trace{
		rec:      newRecorder(0),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Recorder returns the trace's span store (nil for a nil Trace), for a
// component that records spans itself — gprofd records its request and
// fold spans here when a trace is attached.
func (t *Trace) Recorder() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Span starts a named span; idiomatic use is
//
//	defer t.Span("propagate").End()
//
// or an explicit End call for stages that do not align with a function
// body. On a nil Trace both start and end are no-ops with no
// allocation. End must be called at most once, from any goroutine.
func (t *Trace) Span(name string) Span {
	if t == nil {
		return Span{}
	}
	return t.rec.Start(name)
}

// Fail marks the run as aborted; Report carries the error and flips
// Complete to false, so spans recorded before a cancellation mid-run
// remain diagnosable.
func (t *Trace) Fail(err error) {
	if t == nil || err == nil {
		return
	}
	t.failed.CompareAndSwap(nil, &err)
}

// Err returns the error recorded by Fail, if any.
func (t *Trace) Err() error {
	if t == nil {
		return nil
	}
	if p := t.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// Wall returns the time elapsed since the trace was created.
func (t *Trace) Wall() time.Duration { return t.Recorder().Wall() }

// Events returns every recorded span, ordered by start time. The slice
// is a copy; the trace keeps recording.
func (t *Trace) Events() []Event { return t.Recorder().Events() }

// sortEvents orders by start, then longest first, then name, so exports
// are deterministic and a span sorts ahead of the spans it encloses.
func sortEvents(ev []Event) {
	sort.Slice(ev, func(i, j int) bool {
		a, b := ev[i], ev[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Dur != b.Dur {
			return a.Dur > b.Dur
		}
		return a.Name < b.Name
	})
}

// Counter is a named monotonically increasing count (e.g.
// "gmon.bytes_read"). A nil *Counter — what a nil Trace hands out — is
// a no-op, so call sites never branch on the observability state.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the named counter, registering it on first use.
// Returns nil (a valid no-op counter) on a nil Trace. The lookup takes
// the registry lock: hoist it out of hot loops and Add on the result.
func (t *Trace) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.counters[name]
	if !ok {
		c = &Counter{}
		t.counters[name] = c
	}
	return c
}

// Gauge is a named last-value-wins measurement (e.g. "merge.workers",
// "render.workers"). A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set records the gauge's current value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by a signed delta (for in-flight style gauges
// that track a level rather than a last value).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the last recorded value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Gauge returns the named gauge, registering it on first use. Returns
// nil (a valid no-op gauge) on a nil Trace.
func (t *Trace) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	g, ok := t.gauges[name]
	if !ok {
		g = &Gauge{}
		t.gauges[name] = g
	}
	return g
}

// counterValues snapshots the registries as plain maps.
func (t *Trace) counterValues() (counters, gauges map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.counters) > 0 {
		counters = make(map[string]int64, len(t.counters))
		for name, c := range t.counters {
			counters[name] = c.Value()
		}
	}
	if len(t.gauges) > 0 {
		gauges = make(map[string]int64, len(t.gauges))
		for name, g := range t.gauges {
			gauges[name] = g.Value()
		}
	}
	return counters, gauges
}

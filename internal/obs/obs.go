// Package obs is the profiler's self-observability layer: the paper's
// thesis — you cannot tune what you cannot measure (§2-§4) — applied to
// our own analysis pipeline. It records named spans (monotonic start +
// duration + goroutine id) into sharded buffers and typed counters and
// gauges into a registry, and exports them three ways: a human stage
// summary (WriteSummary, for -stats), Chrome trace-event JSON
// (WriteChromeTrace, for -tracefile, viewable in Perfetto or
// chrome://tracing), and a machine-readable run report (Report /
// WriteReport, schema gprof.runreport.v1, embedded in BENCH_*.json).
//
// The disabled state is the default and near-free: every method is
// nil-safe, so a nil *Trace threaded through the pipeline costs a
// pointer check per call site and allocates nothing
// (testing.AllocsPerRun-verified; see BenchmarkObsSpanOverhead). The
// trace rides the context (NewContext / FromContext), so the pipeline
// stages that already take a ctx — core.Run, gmon.MergeAllStreaming,
// propagate.RunCtx, callgraph.BuildCtx — need no signature changes.
//
// Spans are meant for coarse units of work (a pipeline stage, a file
// read, a served request), not per-instruction events: starting an
// enabled span resolves the goroutine id from the runtime, which costs
// on the order of a microsecond. Counters are the hot-path instrument:
// an *obs.Counter is a single atomic; hoist the registry lookup out of
// the loop and Add in place.
package obs

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one recorded span: a named interval on one goroutine.
// Times are monotonic nanoseconds since the Trace was created.
type Event struct {
	Name  string
	Start int64 // ns since trace start
	Dur   int64 // ns
	Goid  int64 // goroutine that recorded the span
}

// shard is one lock-striped event buffer. Goroutines map onto shards by
// id, sized to the number of Ps, so concurrent work (merge workers,
// gprofd requests) appends without contending on one lock.
type shard struct {
	mu     sync.Mutex
	events []Event
	_      [40]byte // keep neighboring shards off one cache line
}

// Trace accumulates spans, counters, and gauges for one run. The zero
// value is not usable; create with New. A nil *Trace is the disabled
// layer: every method no-ops. A Trace is safe for concurrent use.
type Trace struct {
	start  time.Time
	mask   uint64
	shards []shard

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	failed atomic.Pointer[error]
}

// New creates an enabled trace whose clock starts now.
func New() *Trace {
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	return &Trace{
		start:      time.Now(),
		mask:       uint64(n - 1),
		shards:     make([]shard, n),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Enabled reports whether the trace records anything.
func (t *Trace) Enabled() bool { return t != nil }

// nop is the shared stop function disabled spans return: calling it
// does nothing, and returning it allocates nothing.
var nop = func() {}

// Span starts a named span on the calling goroutine and returns the
// function that ends it; idiomatic use is
//
//	defer t.Span("propagate")()
//
// or an explicit end() call for stages that do not align with a
// function body. On a nil Trace both start and stop are no-ops with no
// allocation. The end function must be called exactly once, from any
// goroutine (the span stays attributed to the starting one).
func (t *Trace) Span(name string) func() {
	if t == nil {
		return nop
	}
	g := goid()
	start := int64(time.Since(t.start))
	return func() {
		dur := int64(time.Since(t.start)) - start
		s := &t.shards[uint64(g)&t.mask]
		s.mu.Lock()
		s.events = append(s.events, Event{Name: name, Start: start, Dur: dur, Goid: g})
		s.mu.Unlock()
	}
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
func (t *Trace) Wall() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// Events returns every recorded span, ordered by start time. The slice
// is a copy; the trace keeps recording.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		out = append(out, s.events...)
		s.mu.Unlock()
	}
	sortEvents(out)
	return out
}

// sortEvents orders by (Start, Goid, Name) so exports are deterministic
// when spans share a timestamp.
func sortEvents(ev []Event) {
	sort.Slice(ev, func(i, j int) bool {
		a, b := ev[i], ev[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Goid != b.Goid {
			return a.Goid < b.Goid
		}
		return a.Name < b.Name
	})
}

// Counter is a named monotonically increasing count (e.g.
// "gmon.bytes_read"). A nil *Counter — what a nil Trace hands out — is
// a no-op, so call sites never branch on the observability state.
type Counter struct {
	name string
	v    atomic.Int64
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

// Name returns the registered name ("" for nil).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
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
		c = &Counter{name: name}
		t.counters[name] = c
	}
	return c
}

// Gauge is a named last-value-wins measurement (e.g. "merge.workers",
// "render.workers"). A nil *Gauge is a no-op.
type Gauge struct {
	name string
	v    atomic.Int64
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

// Max raises the gauge to v if v is larger (for high-water marks).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the last recorded value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Name returns the registered name ("" for nil).
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
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
		g = &Gauge{name: name}
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

// histogramSnapshots snapshots the histogram registry as summary rows.
func (t *Trace) histogramSnapshots() map[string]HistogramStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.histograms) == 0 {
		return nil
	}
	out := make(map[string]HistogramStats, len(t.histograms))
	for name, h := range t.histograms {
		out[name] = HistogramStats{
			Count: h.Count(),
			Sum:   h.Sum(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
		}
	}
	return out
}

// goid parses the calling goroutine's id from the runtime's stack
// header ("goroutine N [running]: ..."). It costs about a microsecond,
// which is why spans are for coarse work units; there is no cheaper
// portable way to identify a goroutine.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	const prefix = "goroutine "
	if len(s) < len(prefix) {
		return 0
	}
	var id int64
	for _, b := range s[len(prefix):] {
		if b < '0' || b > '9' {
			break
		}
		id = id*10 + int64(b-'0')
	}
	return id
}

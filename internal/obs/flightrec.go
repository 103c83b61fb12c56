package obs

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecorder is the package's one span store. Spans stripe
// round-robin across one track per P (rounded up to a power of two),
// so concurrent recorders — merge workers, gprofd requests — rarely
// share a lock, and recording a span costs two clock reads, one atomic
// add and one striped mutex (BenchmarkFlightSpan). A track is a
// capacity shard, not a goroutine: finding a goroutine's id would cost
// a microsecond per span. Every view that needs more structure derives
// it from the events' (start, duration): Report's workers column is the
// peak number of concurrently open spans, and the Chrome export lays
// spans onto tracks where they nest.
//
// A recorder made by NewFlightRecorder is a black box for a
// long-running process: each track is a fixed ring that overwrites its
// oldest event, so memory is bounded by tracks x capacity no matter how
// long the process has been up; internal/serve dumps it at
// /debug/flightrec. A Trace holds a recorder whose tracks grow
// instead, so one run keeps every span.
//
// A nil *FlightRecorder no-ops everywhere, like the rest of the
// package.
type FlightRecorder struct {
	start  time.Time
	mask   uint64
	limit  int // events per track; 0 means tracks grow
	next   atomic.Uint64
	tracks []flightTrack
}

// flightTrack is one track's events. Once a bounded track is full,
// next is the slot the following event overwrites (the oldest).
type flightTrack struct {
	mu   sync.Mutex
	next int
	buf  []Event
	_    [40]byte // keep neighboring tracks off one cache line
}

// NewFlightRecorder creates a recorder whose clock starts now, with one
// ring per P (rounded up to a power of two) of perTrack events each.
// perTrack values below 16 are raised to 16.
func NewFlightRecorder(perTrack int) *FlightRecorder {
	return newRecorder(max(perTrack, 16))
}

// newRecorder creates a recorder with limit events per track, or
// growing tracks when limit is 0.
func newRecorder(limit int) *FlightRecorder {
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	f := &FlightRecorder{
		start:  time.Now(),
		mask:   uint64(n - 1),
		limit:  limit,
		tracks: make([]flightTrack, n),
	}
	for i := range f.tracks {
		f.tracks[i].buf = make([]Event, 0, limit)
	}
	return f
}

// Span is an in-progress span. End records it; a zero Span (from a nil
// Trace or recorder) is a no-op. Span is a value, not a closure, so
// starting one allocates nothing.
type Span struct {
	f     *FlightRecorder
	name  string
	start int64
}

// Start opens a span.
func (f *FlightRecorder) Start(name string) Span {
	if f == nil {
		return Span{}
	}
	return Span{f: f, name: name, start: int64(time.Since(f.start))}
}

// End records the span onto the next track and returns its duration in
// nanoseconds, so a caller that also feeds a latency histogram reads
// the clock once (0 for a zero Span).
func (s Span) End() int64 {
	if s.f == nil {
		return 0
	}
	dur := int64(time.Since(s.f.start)) - s.start
	s.f.record(Event{Name: s.name, Start: s.start, Dur: dur})
	return dur
}

func (f *FlightRecorder) record(e Event) {
	t := &f.tracks[f.next.Add(1)&f.mask]
	t.mu.Lock()
	if f.limit == 0 || len(t.buf) < f.limit {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next] = e
		if t.next++; t.next == f.limit {
			t.next = 0
		}
	}
	t.mu.Unlock()
}

// Events returns a copy of every retained event, ordered by start time
// (see sortEvents). Recording continues.
func (f *FlightRecorder) Events() []Event {
	if f == nil {
		return nil
	}
	var out []Event
	for i := range f.tracks {
		t := &f.tracks[i]
		t.mu.Lock()
		out = append(out, t.buf...)
		t.mu.Unlock()
	}
	sortEvents(out)
	return out
}

// Wall returns the time elapsed since the recorder was created.
func (f *FlightRecorder) Wall() time.Duration {
	if f == nil {
		return 0
	}
	return time.Since(f.start)
}

// WriteChromeTrace dumps the recorder as Chrome trace-event JSON — the
// same format as Trace.WriteChromeTrace, loadable in Perfetto and
// checkable by cmd/tracecheck. A nil recorder writes an empty but valid
// trace.
func (f *FlightRecorder) WriteChromeTrace(w io.Writer) error {
	if f == nil {
		return writeChromeEvents(w, "", nil, nil, nil, 0)
	}
	end := float64(f.Wall().Nanoseconds()) / 1e3
	return writeChromeEvents(w, "gprofd flight recorder", f.Events(), nil, nil, end)
}

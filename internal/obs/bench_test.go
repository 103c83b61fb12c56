package obs

import (
	"io"
	"strconv"
	"testing"
)

// BenchmarkObsSpanOverhead is the acceptance benchmark: the disabled
// (nil trace) span path — what every pipeline stage pays when no
// observability flag is set — must cost under 5ns and 0 allocs.
func BenchmarkObsSpanOverhead(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Span("stage").End()
	}
}

// BenchmarkObsSpanEnabled is the price actually paid when tracing is
// on: two clock reads, a round-robin atomic add and a striped append to
// a growing track (amortized: 0 allocs/op). The trace keeps every span,
// so memory grows with b.N; bound it with -benchtime=Nx.
func BenchmarkObsSpanEnabled(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Span("stage").End()
	}
}

// BenchmarkObsCounterAdd measures the hot-path instrument: a hoisted
// counter is one atomic add.
func BenchmarkObsCounterAdd(b *testing.B) {
	tr := New()
	c := tr.Counter("hot.path")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkObsCounterDisabled is the nil-counter no-op.
func BenchmarkObsCounterDisabled(b *testing.B) {
	var tr *Trace
	c := tr.Counter("hot.path")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkHistogramObserve is the acceptance benchmark for the
// request-path instrument: three atomic adds, <= 20ns, 0 allocs.
func BenchmarkHistogramObserve(b *testing.B) {
	h := &Histogram{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) * 977)
	}
}

// BenchmarkExposition renders a production-shaped registry (a few
// hundred series including labeled histograms) — the cost of one
// /metrics scrape.
func BenchmarkExposition(b *testing.B) {
	r := NewRegistry()
	for e := 0; e < 12; e++ {
		ep := "/v1/endpoint" + strconv.Itoa(e)
		for _, code := range []string{"200", "202", "404", "429"} {
			r.Counter("http_requests_total", "requests", "endpoint", ep, "code", code).Add(int64(e + 1))
			h := r.Histogram("http_request_duration_ns", "latency", "endpoint", ep, "code", code)
			for i := int64(0); i < 256; i++ {
				h.Observe(i * 100_000)
			}
		}
		r.Gauge("http_in_flight", "in flight", "endpoint", ep).Set(int64(e))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteExposition(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlightSpan is the bounded ring's per-span price — two clock
// reads, a round-robin atomic add, and a striped mutex; it must stay
// cheap enough to sit on every HTTP request.
func BenchmarkFlightSpan(b *testing.B) {
	f := NewFlightRecorder(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := f.Start("req")
		s.End()
	}
}

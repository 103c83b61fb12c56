package main

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/obs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestTailHasTenSamplesBeyondIt(t *testing.T) {
	for _, tc := range []struct {
		n        int
		permille int
		value    float64
		ok       bool
	}{
		{19, 0, 0, false},
		{20, 500, 10, true},
		{39, 500, 20, true},
		{40, 750, 30, true}, // p75 of 40: ranks 31..40 lie beyond it
		{100, 900, 90, true},
		{1000, 990, 990, true},
		{999, 950, 950, true},
		{10000, 999, 9990, true},
	} {
		p, v, ok := tail(seq(tc.n))
		if ok != tc.ok || p != tc.permille || v != tc.value {
			t.Errorf("tail(%d samples) = p%d %v %t, want p%d %v %t", tc.n, p, v, ok, tc.permille, tc.value, tc.ok)
		}
	}
	if got := tailName(990) + " " + tailName(999) + " " + tailName(750); got != "p99 p99.9 p75" {
		t.Errorf("tail names %q", got)
	}
}

// TestQuartilesMatchPython pins the cut points against values printed by
// Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7}, [3]float64{2, 4, 6}},
	} {
		q1, q2, q3 := quartiles(tc.data)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.data, got, tc.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func scrapeOf(t *testing.T, r *obs.Registry) *obs.Exposition {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteExposition(&buf, r); err != nil {
		t.Fatal(err)
	}
	e, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestHistogramDeltaQuantiles reads quantiles of what a histogram gained
// between two /metrics scrapes, with bounds that appear in only one of
// them.
func TestHistogramDeltaQuantiles(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("x_duration_ns", "test", "endpoint", "/v1/ingest")
	other := r.Histogram("x_duration_ns", "test", "endpoint", "/v1/flat")
	for i := 0; i < 100; i++ {
		h.Observe(1000) // before the phase: must not count
	}
	other.Observe(5)
	before := scrapeOf(t, r)
	for i := 0; i < 90; i++ {
		h.Observe(10)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 << 20)
	}
	other.Observe(7)
	after := scrapeOf(t, r)

	count := func(bs []bucket) float64 {
		n := 0.0
		for _, b := range bs {
			n += b.count
		}
		return n
	}
	d := histogramDelta(before, after, "x_duration_ns", map[string]string{"endpoint": "/v1/ingest"})
	if n := count(d); n != 100 {
		t.Fatalf("delta holds %v observations, want 100: %v", n, d)
	}
	if n := count(histogramDelta(before, after, "x_duration_ns", nil)); n != 101 {
		t.Errorf("delta over both series holds %v observations, want 101", n)
	}
	if p50 := bucketQuantile(d, 0.5); p50 < 10 || p50 > 11 {
		t.Errorf("p50 = %v, want the bucket holding 10", p50)
	}
	if p99 := bucketQuantile(d, 0.99); p99 < 1<<20 || p99 > 1.125*(1<<20) {
		t.Errorf("p99 = %v, want the bucket holding 2^20", p99)
	}
	if q := bucketQuantile(histogramDelta(after, after, "x_duration_ns", nil), 0.5); !math.IsNaN(q) {
		t.Errorf("quantile of an empty delta = %v, want NaN", q)
	}
	if c := counterDelta(before, after, "x_duration_ns_count", "endpoint", "/v1/flat"); c != 1 {
		t.Errorf("count delta = %v, want 1", c)
	}
}

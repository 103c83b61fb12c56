package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// buildTestRegistry populates a registry with every kind, labeled and
// unlabeled.
func buildTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("app_requests_total", "requests served", "endpoint", "/v1/flat", "code", "200").Add(42)
	r.Counter("app_requests_total", "requests served", "endpoint", "/v1/flat", "code", "404").Add(3)
	r.Counter("app_requests_total", "requests served", "endpoint", "/v1/ingest", "code", "202").Add(9001)
	r.Counter("app_errors_total", "errors").Add(0)
	r.Gauge("app_in_flight", "in-flight requests").Set(7)
	r.Gauge("app_info", "weird label values", "version", `a"b\c`+"\n").Set(1)
	h := r.Histogram("app_latency_ns", "request latency", "endpoint", "/v1/flat")
	for i := int64(0); i < 1000; i++ {
		h.Observe(i * 1000)
	}
	r.Histogram("app_empty_ns", "never observed")
	return r
}

// TestExpositionRoundTrip writes a registry and parses it back: the
// output must validate and the values must survive.
func TestExpositionRoundTrip(t *testing.T) {
	r := buildTestRegistry()
	var buf bytes.Buffer
	if err := WriteExposition(&buf, r); err != nil {
		t.Fatalf("WriteExposition: %v", err)
	}
	text := buf.String()
	e, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseExposition:\n%s\nerror: %v", text, err)
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("Validate:\n%s\nerror: %v", text, err)
	}
	if v, ok := e.Sample("app_requests_total", "endpoint", "/v1/ingest", "code", "202"); !ok || v != 9001 {
		t.Errorf("ingest counter = %v (found %v), want 9001", v, ok)
	}
	if v, ok := e.Sample("app_in_flight"); !ok || v != 7 {
		t.Errorf("in-flight gauge = %v (found %v), want 7", v, ok)
	}
	if v, ok := e.Sample("app_latency_ns_count", "endpoint", "/v1/flat"); !ok || v != 1000 {
		t.Errorf("histogram count = %v (found %v), want 1000", v, ok)
	}
	if v, ok := e.Sample("app_latency_ns_bucket", "endpoint", "/v1/flat", "le", "+Inf"); !ok || v != 1000 {
		t.Errorf("+Inf bucket = %v (found %v), want 1000", v, ok)
	}
	if v, ok := e.Sample("app_info", "version", `a"b\c`+"\n"); !ok || v != 1 {
		t.Errorf("escaped label round-trip = %v (found %v), want 1", v, ok)
	}
	f := e.Family("app_requests_total")
	if f == nil || f.Kind != "counter" || len(f.Samples) != 3 {
		t.Errorf("counter family parsed wrong: %+v", f)
	}
	if f := e.Family("app_latency_ns"); f == nil || f.Kind != "histogram" {
		t.Errorf("histogram family parsed wrong: %+v", f)
	}
	// Deterministic output: a second write must be byte-identical.
	var buf2 bytes.Buffer
	if err := WriteExposition(&buf2, r); err != nil {
		t.Fatalf("second WriteExposition: %v", err)
	}
	if buf2.String() != text {
		t.Error("exposition not deterministic across writes")
	}
	// Nil registry writes nothing.
	var empty bytes.Buffer
	if err := WriteExposition(&empty, nil); err != nil || empty.Len() != 0 {
		t.Errorf("nil registry wrote %q, err %v", empty.String(), err)
	}
}

// TestExpositionUnderConcurrentWrites scrapes while writers mutate: the
// output must still validate (the +Inf == _count invariant is the
// interesting one), and once the writers stop the totals are exact.
func TestExpositionUnderConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hot_ns", "contended histogram")
	c := r.Counter("hot_total", "contended counter")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	writes := make([]int64, 4)
	for w := range writes {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := int64(w)
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(v % 100_000)
					c.Add(1)
					writes[w]++
					v += 7919
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := WriteExposition(&buf, r); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		e, err := ParseExposition(&buf)
		if err != nil {
			t.Fatalf("scrape %d parse: %v", i, err)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("scrape %d invalid under concurrent writes: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	var total int64
	for _, n := range writes {
		total += n
	}
	if _, buckets, _ := h.Snapshot(); h.Count() != total || buckets != total || c.Value() != total {
		t.Errorf("after %d writes: histogram count %d, bucket total %d, counter %d", total, h.Count(), buckets, c.Value())
	}
}

// TestExpositionValidateRejects feeds Validate the malformed shapes
// metricscheck exists to catch.
func TestExpositionValidateRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "orphan_total 5\n",
		"negative counter":    "# TYPE bad_total counter\nbad_total -1\n",
		"missing +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"count mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n",
		"buckets decrease": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"bounds not increasing": "# TYPE h histogram\n" +
			"h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"missing sum": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_count 1\n",
	}
	for name, text := range cases {
		e, err := ParseExposition(strings.NewReader(text))
		if err != nil {
			t.Errorf("%s: parse error (want validate error): %v", name, err)
			continue
		}
		if err := e.Validate(); err == nil {
			t.Errorf("%s: Validate accepted malformed input", name)
		}
	}
	// Pure syntax errors fail at parse time.
	syntax := map[string]string{
		"bad value":      "x 1.2.3\n",
		"unquoted label": "x{a=b} 1\n",
		"unterminated":   "x{a=\"b} 1\n",
		"bad name":       "1x 5\n",
		"repeated label": "x{a=\"1\",a=\"2\"} 1\n",
	}
	for name, text := range syntax {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parser accepted %q", name, text)
		}
	}
}

// TestRegistryNilAndKinds covers the nil registry and kind-conflict
// panic.
func TestRegistryNilAndKinds(t *testing.T) {
	var r *Registry
	r.Counter("x", "").Add(1)
	r.Gauge("x", "").Set(1)
	r.Histogram("x", "").Observe(1)
	live := NewRegistry()
	c1 := live.Counter("same_total", "", "a", "1")
	if c2 := live.Counter("same_total", "", "a", "1"); c2 != c1 {
		t.Error("same labels returned a different series")
	}
	if c3 := live.Counter("same_total", "", "a", "2"); c3 == c1 {
		t.Error("different labels returned the same series")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind conflict did not panic")
		}
	}()
	live.Gauge("same_total", "")
}

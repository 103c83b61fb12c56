package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pprofenc"
)

// scrape fetches and parses /metrics, failing the test on any syntax or
// structural (Validate) problem — every scrape in these tests doubles
// as a conformance check of the exposition writer.
func scrape(t *testing.T, ts interface{ url() string }) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(ts.url() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain", ct)
	}
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	if err := exp.Validate(); err != nil {
		t.Fatalf("validating /metrics: %v", err)
	}
	return exp
}

type tsURL struct{ u string }

func (t tsURL) url() string { return t.u }

// TestMetricsExposition drives real traffic through the instrumented
// handler and checks the scrape: per-endpoint × per-status series,
// fold-latency and queue-depth histograms, ingest counters, readiness
// gauge, and counter monotonicity across two scrapes.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Window: time.Second})
	u := tsURL{ts.URL}
	_, imageBytes := sortImage(t)
	fp := registerExe(t, ts, imageBytes)
	body := encodeProfile(t, sortProfile(t, 1), 2, false)
	for i := 0; i < 3; i++ {
		mustStatus(t, ingest(t, ts, fp, body), http.StatusAccepted)
	}
	// sync=1 guarantees every accepted upload has folded, so the
	// fold-duration histogram is populated deterministically.
	mustStatus(t, get(t, ts, "/v1/flat?fp="+fp+"&sync=1"), http.StatusOK)

	exp := scrape(t, u)
	if v, ok := exp.Sample("gprofd_http_requests_total",
		"endpoint", "/v1/ingest", "code", "202"); !ok || v != 3 {
		t.Errorf("ingest request counter = %v (present %v), want 3", v, ok)
	}
	if v, ok := exp.Sample("gprofd_http_request_duration_ns_count",
		"endpoint", "/v1/ingest", "code", "202"); !ok || v != 3 {
		t.Errorf("ingest latency count = %v (present %v), want 3", v, ok)
	}
	if v, ok := exp.Sample("gprofd_http_request_bytes_count", "endpoint", "/v1/ingest"); !ok || v != 3 {
		t.Errorf("ingest request-bytes count = %v (present %v), want 3", v, ok)
	}
	if v, ok := exp.Sample("gprofd_profiles_ingested_total"); !ok || v != 3 {
		t.Errorf("profiles ingested = %v (present %v), want 3", v, ok)
	}
	if v, ok := exp.Sample("gprofd_profile_bytes_ingested_total"); !ok || v < float64(len(body)) {
		t.Errorf("profile bytes = %v (present %v), want >= %d", v, ok, len(body))
	}
	if v, ok := exp.Sample("gprofd_shard_fold_duration_ns_count"); !ok || v < 3 {
		t.Errorf("fold duration count = %v (present %v), want >= 3", v, ok)
	}
	if v, ok := exp.Sample("gprofd_shard_queue_depth_count"); !ok || v < 3 {
		t.Errorf("queue depth count = %v (present %v), want >= 3", v, ok)
	}
	if v, ok := exp.Sample("gprofd_ready"); !ok || v != 1 {
		t.Errorf("ready gauge = %v (present %v), want 1", v, ok)
	}
	// The middleware wraps /metrics itself, so the scrape observes its
	// own request in flight.
	if v, ok := exp.Sample("gprofd_http_in_flight"); !ok || v < 1 {
		t.Errorf("in-flight gauge = %v (present %v), want >= 1 during scrape", v, ok)
	}
	if f := exp.Family("gprofd_http_request_duration_ns"); f == nil || f.Kind != "histogram" {
		t.Errorf("latency family = %+v, want histogram", f)
	}
	// An unknown path lands in the bounded "other" label, not a fresh
	// series.
	mustStatus(t, get(t, ts, "/no/such/path"), http.StatusNotFound)
	exp2 := scrape(t, u)
	if v, ok := exp2.Sample("gprofd_http_requests_total",
		"endpoint", "other", "code", "404"); !ok || v != 1 {
		t.Errorf("other/404 counter = %v (present %v), want 1", v, ok)
	}
	// Counters are monotonic scrape over scrape.
	v1, _ := exp.Sample("gprofd_http_requests_total", "endpoint", "/v1/ingest", "code", "202")
	v2, ok := exp2.Sample("gprofd_http_requests_total", "endpoint", "/v1/ingest", "code", "202")
	if !ok || v2 < v1 {
		t.Errorf("ingest counter went %v -> %v across scrapes", v1, v2)
	}
}

// TestDrainReadiness pins the graceful-drain contract: /readyz flips to
// 503 the moment draining begins while /healthz and every query
// endpoint keep answering 200, so a balancer can rotate the instance
// out without failing in-flight work.
func TestDrainReadiness(t *testing.T) {
	s, ts := newTestServer(t, Config{Window: time.Second})
	_, imageBytes := sortImage(t)
	fp := registerExe(t, ts, imageBytes)
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, sortProfile(t, 1), 2, false)), http.StatusAccepted)

	if body := mustStatus(t, get(t, ts, "/healthz"), http.StatusOK); string(body) != "ok\n" {
		t.Errorf("/healthz body = %q", body)
	}
	mustStatus(t, get(t, ts, "/readyz"), http.StatusOK)
	if !s.Ready() {
		t.Fatal("server not ready before drain")
	}

	s.BeginDrain()
	if s.Ready() {
		t.Fatal("server still ready after BeginDrain")
	}
	if body := mustStatus(t, get(t, ts, "/readyz"), http.StatusServiceUnavailable); string(body) != "draining\n" {
		t.Errorf("/readyz body during drain = %q", body)
	}
	// Liveness and queries are unaffected: the drain only stops new
	// traffic from being routed here.
	mustStatus(t, get(t, ts, "/healthz"), http.StatusOK)
	mustStatus(t, get(t, ts, "/v1/flat?fp="+fp+"&sync=1"), http.StatusOK)
	exp := scrape(t, tsURL{ts.URL})
	if v, ok := exp.Sample("gprofd_ready"); !ok || v != 0 {
		t.Errorf("ready gauge during drain = %v (present %v), want 0", v, ok)
	}
	s.BeginDrain() // idempotent
	mustStatus(t, get(t, ts, "/readyz"), http.StatusServiceUnavailable)
}

// TestFlightRecEndpoint checks /debug/flightrec returns valid Chrome
// trace JSON holding the recent request and fold spans.
func TestFlightRecEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Window: time.Second})
	_, imageBytes := sortImage(t)
	fp := registerExe(t, ts, imageBytes)
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, sortProfile(t, 1), 2, false)), http.StatusAccepted)
	mustStatus(t, get(t, ts, "/v1/flat?fp="+fp+"&sync=1"), http.StatusOK)

	body := mustStatus(t, get(t, ts, "/debug/flightrec"), http.StatusOK)
	var trace struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("flight recorder dump is not valid JSON: %v", err)
	}
	var sawHTTP, sawFold bool
	for _, ev := range trace.TraceEvents {
		if strings.HasPrefix(ev.Name, "http /v1/ingest") {
			sawHTTP = true
		}
		if strings.HasPrefix(ev.Name, "fold ") {
			sawFold = true
		}
	}
	if !sawHTTP || !sawFold {
		t.Errorf("flight recorder missing spans: http=%v fold=%v (%d events)",
			sawHTTP, sawFold, len(trace.TraceEvents))
	}
}

// selfCaptureStub encodes a deterministic stacks profile as the raw
// pprof bytes the self-profiler's captureFn contract requires.
func selfCaptureStub(t *testing.T, samples []model.FrameSample) func(time.Duration) ([]byte, error) {
	t.Helper()
	prof := &model.Profile{
		Schema: model.SchemaV2,
		Hz:     100,
		Stacks: model.StacksFromFrames(samples),
	}
	var buf bytes.Buffer
	if err := pprofenc.Encode(&buf, prof); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	return func(time.Duration) ([]byte, error) { return raw, nil }
}

// TestSelfProfileEndpoint stubs the capture and exercises every
// /v1/self view, including the pprof round-trip through the in-repo
// decoder — the on-demand self-profile minus the runtime profiler
// itself.
func TestSelfProfileEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Window: time.Second})
	s.self.captureFn = selfCaptureStub(t, []model.FrameSample{
		{Frames: []string{"serveHTTP", "mergeLoop", "main"}, Count: 7},
		{Frames: []string{"foldWindow", "mergeLoop", "main"}, Count: 3},
	})

	flat := mustStatus(t, get(t, ts, "/v1/self"), http.StatusOK)
	if !strings.Contains(string(flat), "serveHTTP") || !strings.Contains(string(flat), "10 samples") {
		t.Errorf("flat self view missing data:\n%s", flat)
	}
	folded := mustStatus(t, get(t, ts, "/v1/self?view=folded"), http.StatusOK)
	if !strings.Contains(string(folded), "serveHTTP") {
		t.Errorf("folded self view missing routine:\n%s", folded)
	}
	pb := mustStatus(t, get(t, ts, "/v1/self?view=pprof"), http.StatusOK)
	d, err := pprofenc.Decode(bytes.NewReader(pb))
	if err != nil {
		t.Fatalf("decoding /v1/self pprof: %v", err)
	}
	var total int64
	for _, smp := range d.Samples {
		total += smp.Values[0]
	}
	if total != 10 {
		t.Errorf("pprof round-trip total = %d, want 10", total)
	}
	jb := mustStatus(t, get(t, ts, "/v1/self?view=json"), http.StatusOK)
	jsonProf, err := model.Decode(bytes.NewReader(jb))
	if err != nil {
		t.Fatalf("self json: %v", err)
	}
	if jsonProf.Schema != model.SchemaV2 || jsonProf.Stacks == nil || jsonProf.Stacks.Samples != 10 {
		t.Errorf("self json = schema %q, stacks %+v", jsonProf.Schema, jsonProf.Stacks)
	}
	// The body is the versioned schema, key for key, not the Go field
	// names a tag-free struct would produce.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(jb, &keys); err != nil {
		t.Fatalf("self json object: %v", err)
	}
	for _, k := range []string{"schema", "hz", "total_ticks", "total_seconds", "stacks"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("self json lacks key %q", k)
		}
	}
	mustStatus(t, get(t, ts, "/v1/self?view=bogus"), http.StatusBadRequest)

	exp := scrape(t, tsURL{ts.URL})
	// One capture per view; the unknown view is refused before any.
	if v, ok := exp.Sample("gprofd_selfprofile_captures_total"); !ok || v != 4 {
		t.Errorf("selfprofile captures = %v (present %v), want 4", v, ok)
	}
}

// TestSelfProfileFreshCapture checks that every /v1/self request
// captures anew: when the samples change between two requests, the
// second response shows the new ones and none of the old.
func TestSelfProfileFreshCapture(t *testing.T) {
	s, ts := newTestServer(t, Config{Window: time.Second})
	s.self.captureFn = selfCaptureStub(t, []model.FrameSample{
		{Frames: []string{"ingestBurst", "main"}, Count: 4},
	})
	if flat := mustStatus(t, get(t, ts, "/v1/self"), http.StatusOK); !strings.Contains(string(flat), "ingestBurst") {
		t.Errorf("first capture not served:\n%s", flat)
	}
	s.self.captureFn = selfCaptureStub(t, []model.FrameSample{
		{Frames: []string{"queryBurst", "main"}, Count: 6},
	})
	flat := mustStatus(t, get(t, ts, "/v1/self"), http.StatusOK)
	if !strings.Contains(string(flat), "queryBurst") || !strings.Contains(string(flat), "6 samples") ||
		strings.Contains(string(flat), "ingestBurst") {
		t.Errorf("second request did not serve a fresh capture:\n%s", flat)
	}
}

// TestSelfProfileEmptyCapture pins the idle-process behavior: a capture
// with no samples answers 503 and counts as empty, also right after a
// productive capture — nothing captured earlier is served in its place.
func TestSelfProfileEmptyCapture(t *testing.T) {
	s, ts := newTestServer(t, Config{Window: time.Second})
	empty := selfCaptureStub(t, nil)
	s.self.captureFn = empty
	mustStatus(t, get(t, ts, "/v1/self"), http.StatusServiceUnavailable)

	s.self.captureFn = selfCaptureStub(t, []model.FrameSample{
		{Frames: []string{"busy", "main"}, Count: 2},
	})
	mustStatus(t, get(t, ts, "/v1/self"), http.StatusOK)

	s.self.captureFn = empty
	mustStatus(t, get(t, ts, "/v1/self"), http.StatusServiceUnavailable)
	exp := scrape(t, tsURL{ts.URL})
	for name, want := range map[string]float64{
		"gprofd_selfprofile_captures_total": 3,
		"gprofd_selfprofile_empty_total":    2,
		"gprofd_selfprofile_errors_total":   0,
	} {
		if v, ok := exp.Sample(name); !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", name, v, ok, want)
		}
	}
}

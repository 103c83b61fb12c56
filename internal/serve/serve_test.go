package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/symtab"
	"repro/internal/workloads"
)

// fakeClock is an injectable, advanceable clock for window tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// buildSort compiles the sort workload once per test binary.
var buildSort = sync.OnceValues(func() (*object.Image, error) {
	return workloads.Build("sort", true)
})

func sortImage(t *testing.T) (*object.Image, []byte) {
	t.Helper()
	im, err := buildSort()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := object.WriteImage(&buf, im); err != nil {
		t.Fatal(err)
	}
	return im, buf.Bytes()
}

func sortProfile(t *testing.T, seed uint64) *gmon.Profile {
	t.Helper()
	im, _ := sortImage(t)
	p, _, _, err := workloads.Run(im, workloads.RunConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func encodeProfile(t *testing.T, p *gmon.Profile, version int, zip bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	var w io.Writer = &buf
	var zw *gzip.Writer
	if zip {
		zw = gzip.NewWriter(&buf)
		w = zw
	}
	if err := gmon.WriteVersion(w, p, version); err != nil {
		t.Fatal(err)
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func registerExe(t *testing.T, ts *httptest.Server, imageBytes []byte) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/exe", "application/octet-stream", bytes.NewReader(imageBytes))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("register: %s: %s", resp.Status, body)
	}
	var out struct {
		Fingerprint string `json:"fingerprint"`
		Routines    int    `json:"routines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Fingerprint == "" || out.Routines == 0 {
		t.Fatalf("register: empty response %+v", out)
	}
	return out.Fingerprint
}

func ingest(t *testing.T, ts *httptest.Server, fp string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(FingerprintHeader, fp)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func mustStatus(t *testing.T, resp *http.Response, want int) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("status %s, want %d: %s", resp.Status, want, body)
	}
	return body
}

func get(t *testing.T, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestIngestAndQuery uploads the same fingerprint's profiles over every
// transport (v1/v2 × identity/gzip) and checks each query endpoint
// over the merged result — including that /v1/gmon is byte-identical
// to an offline gmon.MergeAll of the uploads.
func TestIngestAndQuery(t *testing.T) {
	_, imageBytes := sortImage(t)
	_, ts := newTestServer(t, Config{})
	fp := registerExe(t, ts, imageBytes)

	p1, p2 := sortProfile(t, 1), sortProfile(t, 2)
	uploads := [][]byte{
		encodeProfile(t, p1, gmon.Version1, false),
		encodeProfile(t, p1, gmon.Version2, false),
		encodeProfile(t, p2, gmon.Version1, true),
		encodeProfile(t, p2, gmon.Version2, true),
	}
	for i, body := range uploads {
		resp := ingest(t, ts, fp, body)
		out := mustStatus(t, resp, http.StatusAccepted)
		if !bytes.Contains(out, []byte(fp)) {
			t.Errorf("upload %d: response lacks fingerprint: %s", i, out)
		}
	}

	// Raw merged profile vs offline MergeAll over the same uploads.
	want, err := gmon.MergeAll(context.Background(), []*gmon.Profile{p1, p1, p2, p2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if err := gmon.WriteVersion(&wantBuf, want, gmon.Version1); err != nil {
		t.Fatal(err)
	}
	got := mustStatus(t, get(t, ts, "/v1/gmon?sync=1&fp="+fp), http.StatusOK)
	if !bytes.Equal(got, wantBuf.Bytes()) {
		t.Errorf("server merge (%d bytes) differs from offline MergeAll (%d bytes)", len(got), wantBuf.Len())
	}

	// The v2 form decodes back to the same profile.
	gotV2 := mustStatus(t, get(t, ts, "/v1/gmon?sync=1&fp="+fp+"&v=2"), http.StatusOK)
	decoded, err := gmon.Open(bytes.NewReader(gotV2))
	if err != nil {
		t.Fatalf("decoding v2 merged profile: %v", err)
	}
	var rebuf bytes.Buffer
	if err := gmon.WriteVersion(&rebuf, decoded, gmon.Version1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuf.Bytes(), wantBuf.Bytes()) {
		t.Error("v2 merged profile does not round-trip to the v1 merge bytes")
	}

	flat := string(mustStatus(t, get(t, ts, "/v1/flat?fp="+fp), http.StatusOK))
	if !strings.Contains(flat, "flat profile") || !strings.Contains(flat, "partition") {
		t.Errorf("flat output missing expected content:\n%s", flat)
	}
	graph := string(mustStatus(t, get(t, ts, "/v1/callgraph?fp="+fp), http.StatusOK))
	if !strings.Contains(graph, "call graph profile") {
		t.Errorf("call graph output missing header:\n%s", graph)
	}

	var prof struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(mustStatus(t, get(t, ts, "/v1/profile?fp="+fp), http.StatusOK), &prof); err != nil {
		t.Fatal(err)
	}
	if prof.Schema != "gprof.profile.v1" {
		t.Errorf("profile schema = %q", prof.Schema)
	}

	var list struct {
		Schema       string `json:"schema"`
		Fingerprints []struct {
			Fingerprint string `json:"fingerprint"`
			Uploads     int64  `json:"uploads"`
			Merged      int64  `json:"merged"`
		} `json:"fingerprints"`
	}
	if err := json.Unmarshal(mustStatus(t, get(t, ts, "/v1/fingerprints"), http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if list.Schema != "gprofd.fingerprints.v1" || len(list.Fingerprints) != 1 {
		t.Fatalf("fingerprints listing: %+v", list)
	}
	if row := list.Fingerprints[0]; row.Fingerprint != fp || row.Uploads != 4 || row.Merged != 4 {
		t.Errorf("fingerprint row: %+v", row)
	}
}

// TestWindowSelection drives the clock across window boundaries and
// checks current/prev/at/all selection plus the two-window diff.
func TestWindowSelection(t *testing.T) {
	_, imageBytes := sortImage(t)
	clock := newFakeClock()
	_, ts := newTestServer(t, Config{Window: time.Minute, Now: clock.Now})
	fp := registerExe(t, ts, imageBytes)

	p1, p2 := sortProfile(t, 1), sortProfile(t, 2)
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, p1, gmon.Version1, false)), http.StatusAccepted)
	firstWindow := clock.Now().Unix() - clock.Now().Unix()%60
	clock.Advance(time.Minute)
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, p2, gmon.Version1, false)), http.StatusAccepted)

	gmonAt := func(window string) []byte {
		return mustStatus(t, get(t, ts, "/v1/gmon?sync=1&fp="+fp+"&window="+window), http.StatusOK)
	}
	var b1, b2 bytes.Buffer
	if err := gmon.WriteVersion(&b1, p1, gmon.Version1); err != nil {
		t.Fatal(err)
	}
	if err := gmon.WriteVersion(&b2, p2, gmon.Version1); err != nil {
		t.Fatal(err)
	}
	if got := gmonAt("prev"); !bytes.Equal(got, b1.Bytes()) {
		t.Error("window=prev is not the first upload")
	}
	if got := gmonAt("current"); !bytes.Equal(got, b2.Bytes()) {
		t.Error("window=current is not the second upload")
	}
	if got := gmonAt(fmt.Sprint(firstWindow)); !bytes.Equal(got, b1.Bytes()) {
		t.Error("window=<start> is not the first upload")
	}
	merged, err := gmon.MergeAll(context.Background(), []*gmon.Profile{p1, p2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var bm bytes.Buffer
	if err := gmon.WriteVersion(&bm, merged, gmon.Version1); err != nil {
		t.Fatal(err)
	}
	if got := gmonAt("all"); !bytes.Equal(got, bm.Bytes()) {
		t.Error("window=all is not the two-window merge")
	}

	// Diff defaults to prev vs current.
	var diff DiffResponse
	if err := json.Unmarshal(mustStatus(t, get(t, ts, "/v1/diff?fp="+fp), http.StatusOK), &diff); err != nil {
		t.Fatal(err)
	}
	if diff.Schema != DiffSchema || diff.Old != "prev" || diff.New != "current" {
		t.Errorf("diff envelope: %+v", diff)
	}
	if len(diff.Deltas) == 0 {
		t.Error("diff of two distinct windows has no deltas")
	}

	// An empty future window is 404, not an empty report.
	clock.Advance(time.Hour)
	mustStatus(t, get(t, ts, "/v1/flat?fp="+fp+"&window=current"), http.StatusNotFound)
}

// TestWindowSpellingsShareSlot checks that two starts inside one
// window name one memo slot: the second spelling is a cache hit, not a
// second analysis of the same window.
func TestWindowSpellingsShareSlot(t *testing.T) {
	_, imageBytes := sortImage(t)
	clock := newFakeClock()
	s, ts := newTestServer(t, Config{Window: time.Minute, Now: clock.Now})
	fp := registerExe(t, ts, imageBytes)
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, sortProfile(t, 1), gmon.Version1, false)), http.StatusAccepted)
	start := clock.Now().Unix() - clock.Now().Unix()%60
	first := mustStatus(t, get(t, ts, fmt.Sprintf("/v1/flat?sync=1&fp=%s&window=%d", fp, start)), http.StatusOK)
	hits0, misses0 := s.metrics.cacheHits.Value(), s.metrics.cacheMisses.Value()
	again := mustStatus(t, get(t, ts, fmt.Sprintf("/v1/flat?fp=%s&window=%d", fp, start+1)), http.StatusOK)
	if !bytes.Equal(again, first) {
		t.Error("two spellings of one window answered differently")
	}
	if hits, misses := s.metrics.cacheHits.Value()-hits0, s.metrics.cacheMisses.Value()-misses0; hits != 1 || misses != 0 {
		t.Errorf("second spelling: %d hits, %d misses, want 1/0", hits, misses)
	}
}

// TestWindowEviction checks Retain bounds the windows a shard keeps.
func TestWindowEviction(t *testing.T) {
	_, imageBytes := sortImage(t)
	clock := newFakeClock()
	_, ts := newTestServer(t, Config{Window: time.Minute, Retain: 2, Now: clock.Now})
	fp := registerExe(t, ts, imageBytes)

	body := encodeProfile(t, sortProfile(t, 1), gmon.Version1, false)
	for i := 0; i < 4; i++ {
		mustStatus(t, ingest(t, ts, fp, body), http.StatusAccepted)
		clock.Advance(time.Minute)
	}
	mustStatus(t, get(t, ts, "/v1/flat?fp="+fp+"&sync=1"), http.StatusOK)
	var list struct {
		Fingerprints []struct {
			Windows []int64 `json:"windows"`
		} `json:"fingerprints"`
	}
	if err := json.Unmarshal(mustStatus(t, get(t, ts, "/v1/fingerprints"), http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if n := len(list.Fingerprints[0].Windows); n != 2 {
		t.Errorf("retained %d windows, want 2 (Retain)", n)
	}
}

// TestBackpressure fills a shard whose worker never runs and checks the
// handler's 429 + Retry-After path deterministically.
func TestBackpressure(t *testing.T) {
	im, _ := sortImage(t)
	s, ts := newTestServer(t, Config{QueueDepth: 1})
	const fp = "test-backpressure-fp"
	sh := newShard(fp, symtab.New(im), s.cfg, s.metrics, s.rec)
	s.mu.Lock()
	s.shards[fp] = sh // worker deliberately not started: queue never drains
	s.mu.Unlock()
	defer sh.start() // let Close drain it at cleanup

	body := encodeProfile(t, sortProfile(t, 1), gmon.Version1, false)
	mustStatus(t, ingest(t, ts, fp, body), http.StatusAccepted)
	resp := ingest(t, ts, fp, body)
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response lacks Retry-After")
	}
	mustStatus(t, resp, http.StatusTooManyRequests)
	if got := s.Snapshot().RejectedBackpressure; got != 1 {
		t.Errorf("RejectedBackpressure = %d, want 1", got)
	}
}

// TestGeometryConflict checks an upload whose histogram geometry
// contradicts the fingerprint's established one is rejected with 409.
func TestGeometryConflict(t *testing.T) {
	_, imageBytes := sortImage(t)
	_, ts := newTestServer(t, Config{})
	fp := registerExe(t, ts, imageBytes)

	a := &gmon.Profile{Hist: gmon.Histogram{Low: 0, High: 16, Step: 1, Counts: make([]uint32, 16)}}
	b := &gmon.Profile{Hist: gmon.Histogram{Low: 0, High: 32, Step: 1, Counts: make([]uint32, 32)}}
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, a, gmon.Version1, false)), http.StatusAccepted)
	out := mustStatus(t, ingest(t, ts, fp, encodeProfile(t, b, gmon.Version1, false)), http.StatusConflict)
	if !bytes.Contains(out, []byte("geometry")) {
		t.Errorf("409 body does not explain the mismatch: %s", out)
	}
}

// TestRequestErrors covers the 4xx surface: bad methods, missing and
// unknown fingerprints, bad window selectors, and querying before any
// upload.
func TestRequestErrors(t *testing.T) {
	_, imageBytes := sortImage(t)
	_, ts := newTestServer(t, Config{})
	fp := registerExe(t, ts, imageBytes)

	// Wrong methods.
	mustStatus(t, get(t, ts, "/v1/exe"), http.StatusMethodNotAllowed)
	mustStatus(t, get(t, ts, "/v1/ingest"), http.StatusMethodNotAllowed)
	resp, err := http.Post(ts.URL+"/v1/flat?fp="+fp, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, resp, http.StatusMethodNotAllowed)

	body := encodeProfile(t, sortProfile(t, 1), gmon.Version1, false)
	mustStatus(t, ingest(t, ts, "", body), http.StatusBadRequest)         // no fingerprint
	mustStatus(t, ingest(t, ts, "no-such-fp", body), http.StatusNotFound) // unknown fingerprint
	mustStatus(t, get(t, ts, "/v1/flat"), http.StatusBadRequest)          // no ?fp=
	mustStatus(t, get(t, ts, "/v1/flat?fp=no-such-fp"), http.StatusNotFound)
	mustStatus(t, get(t, ts, "/v1/flat?fp="+fp+"&window=bogus"), http.StatusBadRequest)
	mustStatus(t, get(t, ts, "/v1/flat?fp="+fp), http.StatusNotFound) // registered but no data
	mustStatus(t, get(t, ts, "/v1/diff?fp="+fp+"&old=bogus"), http.StatusBadRequest)
}

// TestGmonFormatParam checks /v1/gmon's v= parameter: empty and 1 serve
// format version 1, and a version gprofd does not write is refused
// rather than answered in version 1.
func TestGmonFormatParam(t *testing.T) {
	_, imageBytes := sortImage(t)
	_, ts := newTestServer(t, Config{})
	fp := registerExe(t, ts, imageBytes)
	p := sortProfile(t, 1)
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, p, gmon.Version1, false)), http.StatusAccepted)
	var v1 bytes.Buffer
	if err := gmon.WriteVersion(&v1, p, gmon.Version1); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"", "1"} {
		if got := mustStatus(t, get(t, ts, "/v1/gmon?sync=1&fp="+fp+"&v="+v), http.StatusOK); !bytes.Equal(got, v1.Bytes()) {
			t.Errorf("v=%q is not format version 1", v)
		}
	}
	for _, v := range []string{"4", "0", "v2", "2.0"} {
		mustStatus(t, get(t, ts, "/v1/gmon?fp="+fp+"&v="+v), http.StatusBadRequest)
	}
}

// TestMaxShards checks the registry bound: one fingerprint fits, the
// next executable is refused with 507.
func TestMaxShards(t *testing.T) {
	_, imageBytes := sortImage(t)
	_, ts := newTestServer(t, Config{MaxShards: 1})
	registerExe(t, ts, imageBytes)

	other, err := workloads.Build("matrix", true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := object.WriteImage(&buf, other); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/exe", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, resp, http.StatusInsufficientStorage)

	// Re-registering the first image stays idempotent even at the bound.
	_, imageBytes2 := sortImage(t)
	resp, err = http.Post(ts.URL+"/v1/exe", "application/octet-stream", bytes.NewReader(imageBytes2))
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, resp, http.StatusOK)
}

// TestStats checks the always-on counters, with an obs trace attached
// as gprofd -stats attaches one.
func TestStats(t *testing.T) {
	tr := obs.New()
	_, imageBytes := sortImage(t)
	_, ts := newTestServer(t, Config{Trace: tr})
	fp := registerExe(t, ts, imageBytes)
	body := encodeProfile(t, sortProfile(t, 1), gmon.Version1, false)
	mustStatus(t, ingest(t, ts, fp, body), http.StatusAccepted)
	mustStatus(t, get(t, ts, "/v1/flat?fp="+fp+"&sync=1"), http.StatusOK)

	var st Stats
	if err := json.Unmarshal(mustStatus(t, get(t, ts, "/v1/stats"), http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Schema != StatsSchema {
		t.Errorf("schema = %q", st.Schema)
	}
	if st.ProfilesAccepted != 1 || st.BytesIngested != int64(len(body)) {
		t.Errorf("accepted=%d bytes=%d, want 1/%d", st.ProfilesAccepted, st.BytesIngested, len(body))
	}
	if st.ExecutablesRegistered != 1 || st.Queries != 1 {
		t.Errorf("registered=%d queries=%d, want 1/1", st.ExecutablesRegistered, st.Queries)
	}
	if len(st.Shards) != 1 || st.Shards[0].Fingerprint != fp {
		t.Errorf("shards: %+v", st.Shards)
	}
	if st.AnalysisCacheMisses != 1 || st.RejectedBadRequest != 0 || st.RejectedBackpressure != 0 {
		t.Errorf("analysis misses=%d bad=%d 429=%d, want 1/0/0",
			st.AnalysisCacheMisses, st.RejectedBadRequest, st.RejectedBackpressure)
	}
	if st.HeapAllocBytes == 0 || st.NumGoroutine == 0 {
		t.Error("runtime stats missing")
	}
}

// TestClose checks shutdown semantics: ingest is refused but queries
// keep serving the merged windows.
func TestClose(t *testing.T) {
	_, imageBytes := sortImage(t)
	s, ts := newTestServer(t, Config{})
	fp := registerExe(t, ts, imageBytes)
	body := encodeProfile(t, sortProfile(t, 1), gmon.Version1, false)
	mustStatus(t, ingest(t, ts, fp, body), http.StatusAccepted)
	mustStatus(t, get(t, ts, "/v1/flat?fp="+fp+"&sync=1"), http.StatusOK)

	s.Close()
	mustStatus(t, ingest(t, ts, fp, body), http.StatusServiceUnavailable)
	mustStatus(t, get(t, ts, "/v1/flat?fp="+fp), http.StatusOK)
}

// TestParseWindow pins the selector grammar.
func TestParseWindow(t *testing.T) {
	for _, tc := range []struct {
		in   string
		kind int
		ok   bool
	}{
		{"", selAll, true},
		{"all", selAll, true},
		{"current", selCurrent, true},
		{"prev", selPrev, true},
		{"1700000000", selAt, true},
		{"-5", 0, false},
		{"latest", 0, false},
		{"0x10", 0, false},
		{"60abc", 0, false},
		{"60.5", 0, false},
		{"60 70", 0, false},
	} {
		sel, err := parseWindow(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("parseWindow(%q) err=%v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && sel.kind != tc.kind {
			t.Errorf("parseWindow(%q) kind=%d, want %d", tc.in, sel.kind, tc.kind)
		}
	}
}

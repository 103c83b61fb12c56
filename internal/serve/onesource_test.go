package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gmon"
	"repro/internal/obs"
)

// TestStatsOneSource drives a scripted request mix — a 400, an unknown
// fingerprint, a 429 from a depth-1 queue, a copy-on-write fold and a
// coalesced cold query — and checks that every /v1/stats count equals
// the /metrics series or LRU counter it projects, and the script's
// expected value.
func TestStatsOneSource(t *testing.T) {
	im, imageBytes := sortImage(t)
	s, ts := newTestServer(t, Config{QueueDepth: 1})
	fp := registerExe(t, ts, imageBytes)
	body := encodeProfile(t, sortProfile(t, 1), gmon.Version1, false)

	mustStatus(t, ingest(t, ts, "", body), http.StatusBadRequest)
	mustStatus(t, ingest(t, ts, "no-such-fp", body), http.StatusNotFound)

	// A shard whose worker never runs: the second upload finds its
	// depth-1 queue full.
	const stuck = "test-stuck-fp"
	sh := newShard(stuck, im, s.cfg, s.metrics, s.rec)
	s.mu.Lock()
	s.shards[stuck] = sh
	s.mu.Unlock()
	defer sh.start() // let Close drain it at cleanup
	mustStatus(t, ingest(t, ts, stuck, body), http.StatusAccepted)
	mustStatus(t, ingest(t, ts, stuck, body), http.StatusTooManyRequests)

	// The gmon query caches the one-window snapshot, so the next fold
	// into that window clones it.
	mustStatus(t, ingest(t, ts, fp, body), http.StatusAccepted)
	mustStatus(t, get(t, ts, "/v1/gmon?sync=1&fp="+fp), http.StatusOK)
	mustStatus(t, ingest(t, ts, fp, body), http.StatusAccepted)
	live, _ := s.shardFor(fp)
	if err := live.sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A cold flat query that finds the analysis of its key already in
	// flight joins it: the flight is planted, finished, before the
	// query arrives, so the join is deterministic.
	p, _, snapKey := live.snapshot(windowSel{kind: selAll}, s.cfg.Now())
	res, err := core.Run(context.Background(), core.ImageSource{Image: im}, p, s.runOptions())
	if err != nil {
		t.Fatal(err)
	}
	key := "run|" + fp + "|" + snapKey + "|" + s.optKey
	f := &flight{done: make(chan struct{}), val: &analysisEntry{res: res}}
	close(f.done)
	s.flights.mu.Lock()
	s.flights.m = map[string]*flight{key: f}
	s.flights.mu.Unlock()
	mustStatus(t, get(t, ts, "/v1/flat?fp="+fp), http.StatusOK)
	s.flights.mu.Lock()
	delete(s.flights.m, key)
	s.flights.mu.Unlock()
	// The planted flight filled no cache: a cold run, then a warm hit.
	mustStatus(t, get(t, ts, "/v1/flat?fp="+fp), http.StatusOK)
	mustStatus(t, get(t, ts, "/v1/flat?fp="+fp), http.StatusOK)

	var st Stats
	if err := json.Unmarshal(mustStatus(t, get(t, ts, "/v1/stats"), http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	exp := scrape(t, tsURL{ts.URL})
	series := func(name string, labels ...string) int64 {
		v, ok := exp.Sample(name, labels...)
		if !ok {
			t.Fatalf("/metrics lacks %s%v", name, labels)
		}
		return int64(v)
	}
	aHits, aMisses, aEvict := s.queries.Stats()
	var sHits, sMisses, sEvict uint64
	for _, sh := range s.allShards() {
		h, m, e := sh.snaps.Stats()
		sHits, sMisses, sEvict = sHits+h, sMisses+m, sEvict+e
	}
	const unchecked = -1
	for _, c := range []struct {
		field            string
		stats, src, want int64
	}{
		{"profiles_accepted", st.ProfilesAccepted, series("gprofd_profiles_ingested_total"), 3},
		{"bytes_ingested", st.BytesIngested, series("gprofd_profile_bytes_ingested_total"), 3 * int64(len(body))},
		{"rejected_bad_request", st.RejectedBadRequest, series("gprofd_bad_requests_total"), 2},
		{"rejected_backpressure", st.RejectedBackpressure,
			series("gprofd_http_requests_total", "endpoint", "/v1/ingest", "code", "429"), 1},
		{"executables_registered", st.ExecutablesRegistered, series("gprofd_executables_registered_total"), 1},
		{"queries", st.Queries, series("gprofd_queries_total"), 4},
		{"coalesced_queries", st.CoalescedQueries, series("gprofd_coalesced_queries_total"), 1},
		{"snapshot_cow_clones", st.SnapshotCOWClones, series("gprofd_snapshot_cow_clones_total"), 1},
		{"analysis_cache_hits", st.AnalysisCacheHits, int64(aHits), 1},
		{"analysis_cache_misses", st.AnalysisCacheMisses, int64(aMisses), 3},
		{"analysis_cache_evictions", st.AnalysisCacheEvictions, int64(aEvict), 0},
		{"snapshot_cache_hits", st.SnapshotCacheHits, int64(sHits), unchecked},
		{"snapshot_cache_misses", st.SnapshotCacheMisses, int64(sMisses), unchecked},
		{"snapshot_cache_evictions", st.SnapshotCacheEvictions, int64(sEvict), unchecked},
	} {
		if c.stats != c.src {
			t.Errorf("%s = %d, but its source reads %d", c.field, c.stats, c.src)
		}
		if c.want != unchecked && c.stats != c.want {
			t.Errorf("%s = %d, want %d", c.field, c.stats, c.want)
		}
	}
}

// TestTracedServerSpans checks that a server with a trace attached
// records exactly one span per request and one per fold, into the
// trace's recorder.
func TestTracedServerSpans(t *testing.T) {
	tr := obs.New()
	_, imageBytes := sortImage(t)
	s, ts := newTestServer(t, Config{Trace: tr})
	fp := registerExe(t, ts, imageBytes)
	body := encodeProfile(t, sortProfile(t, 1), gmon.Version2, false)
	for i := 0; i < 3; i++ {
		mustStatus(t, ingest(t, ts, fp, body), http.StatusAccepted)
	}
	mustStatus(t, get(t, ts, "/v1/flat?sync=1&fp="+fp), http.StatusOK)
	mustStatus(t, get(t, ts, "/v1/stats"), http.StatusOK)
	mustStatus(t, get(t, ts, "/no/such/path"), http.StatusNotFound)

	got := map[string]int{}
	for _, e := range tr.Events() {
		got[e.Name]++
	}
	want := map[string]int{
		"http /v1/exe":    1,
		"http /v1/ingest": 3,
		"http /v1/flat":   1,
		"http /v1/stats":  1,
		"http other":      1,
		"fold " + fp:      3,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spans by name = %v, want %v", got, want)
	}
	if s.rec != tr.Recorder() {
		t.Error("server records into a recorder other than the trace's")
	}
}

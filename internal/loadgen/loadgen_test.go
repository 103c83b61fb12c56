package loadgen

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// corpus is built once per test binary: compiling and profiling the
// workloads dominates test time, the replay itself is cheap.
var sharedCorpus = sync.OnceValues(func() (*Corpus, error) {
	return BuildCorpus([]string{"sort", "matrix", "hash"})
})

func testCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := sharedCorpus()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func startServer(t *testing.T, cfg serve.Config) (*serve.Server, *Client) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, &Client{Base: ts.URL}
}

// TestReplayAndVerify runs a small fixed-count replay and checks the
// accounting and the byte-identical server-vs-offline merge.
func TestReplayAndVerify(t *testing.T) {
	corpus := testCorpus(t)
	_, client := startServer(t, serve.Config{})
	ctx := context.Background()

	if err := client.WaitReady(ctx, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := client.RegisterAll(ctx, corpus); err != nil {
		t.Fatal(err)
	}
	for _, item := range corpus.Items {
		if item.Fingerprint == "" {
			t.Fatalf("workload %s: no fingerprint after RegisterAll", item.Workload)
		}
	}

	res, err := client.Run(ctx, corpus, Options{Agents: 4, UploadsPerAgent: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("replay errors: %d", res.Errors)
	}
	if want := int64(4 * 25); res.Uploads != want {
		t.Fatalf("uploads = %d, want %d", res.Uploads, want)
	}
	var counted int64
	for _, row := range res.counts {
		for _, n := range row {
			counted += n
		}
	}
	if counted != res.Uploads {
		t.Errorf("per-variant counts sum to %d, uploads %d", counted, res.Uploads)
	}

	if err := client.Verify(ctx, corpus, res); err != nil {
		t.Errorf("verify: %v", err)
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.ProfilesAccepted != res.Uploads {
		t.Errorf("server accepted %d, client counted %d", st.ProfilesAccepted, res.Uploads)
	}
	if st.Schema != serve.StatsSchema {
		t.Errorf("stats schema = %q", st.Schema)
	}
}

// TestMixedReaders runs uploaders and reader agents together: every
// reader response must be a schema-valid 200 (404 only before first
// data), the server merge must still verify byte-identical, and the
// reads must land in the server's analysis cache accounting.
func TestMixedReaders(t *testing.T) {
	corpus := testCorpus(t)
	_, client := startServer(t, serve.Config{})
	ctx := context.Background()
	if err := client.RegisterAll(ctx, corpus); err != nil {
		t.Fatal(err)
	}
	res, err := client.Run(ctx, corpus, Options{Agents: 4, UploadsPerAgent: 25, Readers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.ReadErrors != 0 {
		t.Fatalf("errors: %d uploads, %d reads", res.Errors, res.ReadErrors)
	}
	if want := int64(4 * 25); res.Uploads != want {
		t.Fatalf("uploads = %d, want %d", res.Uploads, want)
	}
	if res.Reads == 0 {
		t.Fatal("reader agents completed no queries")
	}
	if err := client.Verify(ctx, corpus, res); err != nil {
		t.Errorf("verify under mixed traffic: %v", err)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries < res.Reads {
		t.Errorf("server counted %d queries, readers made %d", st.Queries, res.Reads)
	}
	if st.AnalysisCacheHits+st.AnalysisCacheMisses == 0 {
		t.Error("reads did not touch the analysis cache accounting")
	}
}

// TestBackpressureRetry replays against a server with a one-deep queue
// and many agents: agents must see 429s, back off, retry, and still
// land every upload exactly once.
func TestBackpressureRetry(t *testing.T) {
	corpus := testCorpus(t)
	_, client := startServer(t, serve.Config{QueueDepth: 1})
	ctx := context.Background()
	if err := client.RegisterAll(ctx, corpus); err != nil {
		t.Fatal(err)
	}
	res, err := client.Run(ctx, corpus, Options{Agents: 8, UploadsPerAgent: 10, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("replay errors: %d", res.Errors)
	}
	if want := int64(8 * 10); res.Uploads != want {
		t.Fatalf("uploads = %d, want %d (retries must not drop or duplicate)", res.Uploads, want)
	}
	if err := client.Verify(ctx, corpus, res); err != nil {
		t.Errorf("verify after backpressure: %v", err)
	}
}

// TestSoak is the sustained-load check from the issue: a multi-second
// replay must hold at least soakMinRate profiles/sec, the server heap
// must stay flat (windowed merge folds in place — memory tracks the
// aggregate size, not the upload count), and the merged output must
// stay byte-identical to an offline MergeAll over every upload. The
// observability prober runs throughout — /metrics must parse and
// validate under concurrent scrapes, and readiness must hold 200 for
// the whole replay and flip to 503 the moment the drain begins.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	corpus := testCorpus(t)
	srv, client := startServer(t, serve.Config{})
	ctx := context.Background()
	if err := client.RegisterAll(ctx, corpus); err != nil {
		t.Fatal(err)
	}

	// Sample the server heap while the replay runs.
	var (
		heapMu  sync.Mutex
		maxHeap uint64
	)
	sampleCtx, stopSampling := context.WithCancel(ctx)
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-sampleCtx.Done():
				return
			case <-time.After(100 * time.Millisecond):
			}
			st, err := client.Stats(sampleCtx)
			if err != nil {
				continue
			}
			heapMu.Lock()
			if st.HeapAllocBytes > maxHeap {
				maxHeap = st.HeapAllocBytes
			}
			heapMu.Unlock()
		}
	}()

	res, err := client.Run(ctx, corpus, Options{Agents: 8, Duration: 2 * time.Second, Metrics: true})
	stopSampling()
	sampler.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("soak errors: %d", res.Errors)
	}
	t.Logf("soak: %d uploads in %v (%.0f profiles/sec, %d retries), max heap %.1f MB, %d metrics scrapes",
		res.Uploads, res.Elapsed.Round(time.Millisecond), res.PerSecond, res.Retries429,
		float64(maxHeap)/(1<<20), res.MetricsScrapes)
	if res.PerSecond < soakMinRate {
		t.Errorf("sustained %.0f profiles/sec, want >= %.0f", res.PerSecond, soakMinRate)
	}
	// Thousands of ~KB uploads fold into a handful of window
	// aggregates; a growing heap would mean uploads are accumulating.
	if maxHeap > 256<<20 {
		t.Errorf("server heap peaked at %d bytes during the soak", maxHeap)
	}
	// The observability prober scraped a valid exposition and saw 200
	// readiness for the entire replay.
	if res.MetricsScrapes == 0 {
		t.Error("observability prober completed no scrapes during the soak")
	}
	if res.MetricsErrors != 0 {
		t.Errorf("observability probes failed %d times during the soak", res.MetricsErrors)
	}
	// The endpoint latency histograms are populated under the soak
	// floor: every accepted upload observed one /v1/ingest latency.
	exp, err := client.Exposition(ctx)
	if err != nil {
		t.Fatalf("final scrape: %v", err)
	}
	if v, ok := exp.Sample("gprofd_http_request_duration_ns_count",
		"endpoint", "/v1/ingest", "code", "202"); !ok || int64(v) != res.Uploads {
		t.Errorf("ingest latency histogram count = %v (present %v), want %d", v, ok, res.Uploads)
	}
	if v, ok := exp.Sample("gprofd_profiles_ingested_total"); !ok || int64(v) != res.Uploads {
		t.Errorf("profiles ingested counter = %v (present %v), want %d", v, ok, res.Uploads)
	}
	if v, ok := exp.Sample("gprofd_shard_fold_duration_ns_count"); !ok || v <= 0 {
		t.Errorf("fold duration histogram count = %v (present %v), want > 0", v, ok)
	}
	if err := client.Verify(ctx, corpus, res); err != nil {
		t.Errorf("verify after soak: %v", err)
	}
	// Graceful drain: readiness flips to 503 while queries still work.
	srv.BeginDrain()
	status, _, err := client.get(ctx, "/readyz")
	if err != nil || status != 503 {
		t.Errorf("/readyz after BeginDrain = %d (%v), want 503", status, err)
	}
	status, _, err = client.get(ctx, "/healthz")
	if err != nil || status != 200 {
		t.Errorf("/healthz after BeginDrain = %d (%v), want 200", status, err)
	}
	status, _, err = client.get(ctx, "/v1/flat?fp="+corpus.Items[0].Fingerprint)
	if err != nil || status != 200 {
		t.Errorf("query during drain = %d (%v), want 200", status, err)
	}
}

package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/obs"
)

// The incremental read path's correctness bar: every response — cold,
// warm, or mid-ingest — must be byte-identical to an offline
// gmon.MergeAll + core.Run over the same upload multiset. These tests
// interleave ingest, query, and eviction and byte-compare at every
// step.

func offlineMerge(t *testing.T, profiles []*gmon.Profile) []byte {
	t.Helper()
	merged, err := gmon.MergeAll(context.Background(), profiles, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gmon.Write(&buf, merged); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func offlineFlat(t *testing.T, im *object.Image, profiles []*gmon.Profile) []byte {
	t.Helper()
	merged, err := gmon.MergeAll(context.Background(), profiles, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.ImageSource{Image: im}, merged, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteFlat(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeGmon(t *testing.T, p *gmon.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gmon.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIncrementalWarmHit checks the cache accounting across a
// cold query, a warm repeat, and an invalidating fold: hits and misses
// land in /v1/stats, the shard version bumps per fold, and the
// post-fold response reflects the new data (never a stale cache).
func TestIncrementalWarmHit(t *testing.T) {
	tr := obs.New()
	im, imageBytes := sortImage(t)
	s, ts := newTestServer(t, Config{Trace: tr})
	fp := registerExe(t, ts, imageBytes)
	p1 := sortProfile(t, 1)
	body := encodeProfile(t, p1, gmon.Version1, false)

	mustStatus(t, ingest(t, ts, fp, body), http.StatusAccepted)
	cold := mustStatus(t, get(t, ts, "/v1/flat?sync=1&fp="+fp), http.StatusOK)
	if want := offlineFlat(t, im, []*gmon.Profile{p1}); !bytes.Equal(cold, want) {
		t.Error("cold flat differs from offline core.Run")
	}
	warm := mustStatus(t, get(t, ts, "/v1/flat?fp="+fp), http.StatusOK)
	if !bytes.Equal(warm, cold) {
		t.Error("warm flat differs from cold flat")
	}
	// A different endpoint over the same analysis also hits the entry.
	mustStatus(t, get(t, ts, "/v1/profile?fp="+fp), http.StatusOK)

	st := s.Snapshot()
	if st.AnalysisCacheMisses != 1 {
		t.Errorf("analysis misses = %d, want 1", st.AnalysisCacheMisses)
	}
	if st.AnalysisCacheHits < 2 {
		t.Errorf("analysis hits = %d, want >= 2", st.AnalysisCacheHits)
	}
	if st.SnapshotCacheHits < 2 || st.SnapshotCacheMisses != 1 {
		t.Errorf("snapshot hits/misses = %d/%d, want >=2/1", st.SnapshotCacheHits, st.SnapshotCacheMisses)
	}
	if len(st.Shards) != 1 || st.Shards[0].Version != 1 {
		t.Fatalf("shard version: %+v", st.Shards)
	}
	if st.Queries != 3 || st.CoalescedQueries != 0 {
		t.Errorf("queries=%d coalesced=%d, want 3/0", st.Queries, st.CoalescedQueries)
	}

	// A fold invalidates: the next query misses and serves the new merge.
	mustStatus(t, ingest(t, ts, fp, body), http.StatusAccepted)
	refreshed := mustStatus(t, get(t, ts, "/v1/flat?sync=1&fp="+fp), http.StatusOK)
	if want := offlineFlat(t, im, []*gmon.Profile{p1, p1}); !bytes.Equal(refreshed, want) {
		t.Error("post-fold flat differs from offline core.Run of both uploads")
	}
	if bytes.Equal(refreshed, cold) {
		t.Error("post-fold flat still serves the stale single-upload analysis")
	}
	st = s.Snapshot()
	if st.AnalysisCacheMisses != 2 {
		t.Errorf("analysis misses after fold = %d, want 2", st.AnalysisCacheMisses)
	}
	if st.Shards[0].Version != 2 {
		t.Errorf("shard version after fold = %d, want 2", st.Shards[0].Version)
	}
}

// TestIncrementalInterleavedInvalidation interleaves ingest, query,
// window rotation, and retention eviction, byte-comparing every cached
// response (and its warm repeat) against a fresh offline MergeAll +
// core.Run of the same upload multiset, via the ?sync=1 quiesce path.
func TestIncrementalInterleavedInvalidation(t *testing.T) {
	im, imageBytes := sortImage(t)
	clock := newFakeClock()
	_, ts := newTestServer(t, Config{Window: time.Minute, Retain: 2, Now: clock.Now})
	fp := registerExe(t, ts, imageBytes)

	// Mirror of the server's retained state: window start -> uploads.
	retained := map[int64][]*gmon.Profile{}
	winStart := func() int64 {
		sec := clock.Now().Unix()
		return sec - sec%60
	}
	upload := func(p *gmon.Profile) {
		mustStatus(t, ingest(t, ts, fp, encodeProfile(t, p, gmon.Version1, false)), http.StatusAccepted)
		retained[winStart()] = append(retained[winStart()], p)
		for len(retained) > 2 { // Retain
			oldest := int64(0)
			first := true
			for start := range retained {
				if first || start < oldest {
					oldest, first = start, false
				}
			}
			delete(retained, oldest)
		}
	}
	allRetained := func() []*gmon.Profile {
		starts := make([]int64, 0, len(retained))
		for start := range retained {
			starts = append(starts, start)
		}
		for i := range starts { // ascending, as the server folds
			for j := i + 1; j < len(starts); j++ {
				if starts[j] < starts[i] {
					starts[i], starts[j] = starts[j], starts[i]
				}
			}
		}
		var out []*gmon.Profile
		for _, start := range starts {
			out = append(out, retained[start]...)
		}
		return out
	}
	verify := func(label string) {
		t.Helper()
		wantGmon := offlineMerge(t, allRetained())
		got := mustStatus(t, get(t, ts, "/v1/gmon?sync=1&fp="+fp), http.StatusOK)
		if !bytes.Equal(got, wantGmon) {
			t.Errorf("%s: gmon(all) differs from offline MergeAll", label)
		}
		if again := mustStatus(t, get(t, ts, "/v1/gmon?fp="+fp), http.StatusOK); !bytes.Equal(again, got) {
			t.Errorf("%s: warm gmon repeat differs", label)
		}
		wantFlat := offlineFlat(t, im, allRetained())
		gotFlat := mustStatus(t, get(t, ts, "/v1/flat?sync=1&fp="+fp), http.StatusOK)
		if !bytes.Equal(gotFlat, wantFlat) {
			t.Errorf("%s: flat(all) differs from offline core.Run", label)
		}
		if again := mustStatus(t, get(t, ts, "/v1/flat?fp="+fp), http.StatusOK); !bytes.Equal(again, gotFlat) {
			t.Errorf("%s: warm flat repeat differs", label)
		}
		if ps := retained[winStart()]; len(ps) > 0 {
			want := offlineMerge(t, ps)
			got := mustStatus(t, get(t, ts, "/v1/gmon?sync=1&fp="+fp+"&window=current"), http.StatusOK)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: gmon(current) differs from offline MergeAll", label)
			}
		}
	}

	p1, p2, p3 := sortProfile(t, 1), sortProfile(t, 2), sortProfile(t, 3)
	upload(p1)
	verify("first upload")
	upload(p2)
	verify("second fold, same window") // in-window invalidation
	clock.Advance(time.Minute)
	upload(p3)
	verify("second window")
	clock.Advance(time.Minute)
	upload(p1)
	verify("third window evicts first") // retention eviction invalidation
	upload(p2)
	verify("fold into newest window")
}

// TestSnapshotCopyOnWrite holds the shared snapshot a query cached,
// folds more data into its window, and checks the held snapshot is
// frozen (the fold cloned) while the next query sees the new merge
// under a new key.
func TestSnapshotCopyOnWrite(t *testing.T) {
	tr := obs.New()
	_, imageBytes := sortImage(t)
	s, ts := newTestServer(t, Config{Trace: tr})
	fp := registerExe(t, ts, imageBytes)
	p1 := sortProfile(t, 1)
	body := encodeProfile(t, p1, gmon.Version1, false)

	mustStatus(t, ingest(t, ts, fp, body), http.StatusAccepted)
	mustStatus(t, get(t, ts, "/v1/gmon?sync=1&fp="+fp), http.StatusOK)
	sh, ok := s.shardFor(fp)
	if !ok {
		t.Fatal("no shard after register+ingest")
	}
	snap, n, key := sh.snapshot(windowSel{kind: selAll}, s.cfg.Now())
	if n != 1 || key == "" {
		t.Fatalf("snapshot: n=%d key=%q", n, key)
	}
	before := encodeGmon(t, snap)

	mustStatus(t, ingest(t, ts, fp, body), http.StatusAccepted)
	mustStatus(t, get(t, ts, "/v1/gmon?sync=1&fp="+fp), http.StatusOK)

	if after := encodeGmon(t, snap); !bytes.Equal(before, after) {
		t.Error("fold mutated a snapshot shared with a cached query")
	}
	if _, ok := sh.snaps.Get(key); ok {
		t.Error("snapshot cache still holds the entry of the version the fold retired")
	}
	snap2, _, key2 := sh.snapshot(windowSel{kind: selAll}, s.cfg.Now())
	if key2 == key {
		t.Error("fold did not change the snapshot key")
	}
	if want := offlineMerge(t, []*gmon.Profile{p1, p1}); !bytes.Equal(encodeGmon(t, snap2), want) {
		t.Error("post-fold snapshot differs from offline MergeAll")
	}
	if got := s.Snapshot().SnapshotCOWClones; got != 1 {
		t.Errorf("cow clones = %d, want 1", got)
	}
}

// TestFlightGroupCoalesces pins the single-flight contract: callers
// arriving while a flight is in progress join it instead of running
// their own, executions + coalesced joins account for every caller,
// and a retired flight does not absorb later calls.
func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	gate := make(chan struct{})
	started := make(chan struct{})
	want := &analysisEntry{}
	var runs atomic.Int32
	type result struct {
		val       *analysisEntry
		err       error
		coalesced bool
	}
	leaderCh := make(chan result, 1)
	go func() {
		val, err, coalesced := g.do(context.Background(), "k", func() (*analysisEntry, error) {
			runs.Add(1)
			close(started)
			<-gate
			return want, nil
		})
		leaderCh <- result{val, err, coalesced}
	}()
	<-started

	// The flight cannot retire while fn blocks on the gate, so this
	// probe deterministically finds it and must report coalesced.
	probeCtx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err, coalesced := g.do(probeCtx, "k", nil); err == nil || !coalesced {
		t.Errorf("in-flight probe: err=%v coalesced=%v, want ctx error + coalesced", err, coalesced)
	}

	const joiners = 4
	joinCh := make(chan result, joiners)
	for i := 0; i < joiners; i++ {
		go func() {
			val, err, coalesced := g.do(context.Background(), "k", func() (*analysisEntry, error) {
				// A caller that slipped in after the flight retired runs
				// fresh (the server's equivalent hits the LRU the leader
				// filled). Counted below so the accounting stays exact.
				runs.Add(1)
				return want, nil
			})
			joinCh <- result{val, err, coalesced}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the joiners park on the flight
	close(gate)
	if r := <-leaderCh; r.val != want || r.err != nil || r.coalesced {
		t.Errorf("leader: %+v", r)
	}
	coalesced := 0
	for i := 0; i < joiners; i++ {
		r := <-joinCh
		if r.val != want || r.err != nil {
			t.Errorf("joiner: %+v", r)
		}
		if r.coalesced {
			coalesced++
		}
	}
	if coalesced == 0 {
		t.Error("no joiner coalesced onto the in-progress flight")
	}
	if got := int(runs.Load()); got != 1+joiners-coalesced {
		t.Errorf("%d executions for %d coalesced joins, want %d", got, coalesced, 1+joiners-coalesced)
	}

	// The flight retired; a fresh call runs its own fn, uncoalesced.
	ran := false
	if _, err, coalesced := g.do(context.Background(), "k", func() (*analysisEntry, error) {
		ran = true
		return nil, nil
	}); err != nil || coalesced || !ran {
		t.Errorf("post-retire do: err=%v coalesced=%v ran=%v", err, coalesced, ran)
	}
}

// TestFlightGroupContext checks a joiner whose context expires abandons
// the wait without killing the flight.
func TestFlightGroupContext(t *testing.T) {
	var g flightGroup
	gate := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		g.do(context.Background(), "k", func() (*analysisEntry, error) {
			close(started)
			<-gate
			return &analysisEntry{}, nil
		})
		close(done)
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err, coalesced := g.do(ctx, "k", nil); err == nil || !coalesced {
		t.Errorf("canceled joiner: err=%v coalesced=%v", err, coalesced)
	}
	close(gate)
	<-done
}

// TestConcurrentIngestQueryByteIdentity races ingest against queries on
// one window and checks every response equals an offline MergeAll (or
// core.Run) of some prefix of the uploads — the server never serves a
// torn or stale-cache merge — and the quiesced end state equals the
// full multiset. Run under -race this also sweeps the copy-on-write
// sharing between folds and cached snapshots.
func TestConcurrentIngestQueryByteIdentity(t *testing.T) {
	im, imageBytes := sortImage(t)
	clock := newFakeClock() // never advanced: one window, deterministic multiset
	_, ts := newTestServer(t, Config{Now: clock.Now})
	fp := registerExe(t, ts, imageBytes)
	p := sortProfile(t, 1)
	body := encodeProfile(t, p, gmon.Version1, false)

	const uploads = 8
	wantGmon := make(map[string]bool, uploads)
	wantFlat := make(map[string]bool, uploads)
	var prefix []*gmon.Profile
	var finalGmon []byte
	for m := 1; m <= uploads; m++ {
		prefix = append(prefix, p)
		finalGmon = offlineMerge(t, prefix)
		wantGmon[string(finalGmon)] = true
		wantFlat[string(offlineFlat(t, im, prefix))] = true
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < uploads/2; j++ {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/ingest", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set(FingerprintHeader, fp)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("ingest: %s", resp.Status)
				}
			}
		}()
	}
	queries := []struct {
		path string
		want map[string]bool
	}{
		{"/v1/gmon?sync=1&fp=" + fp, wantGmon},
		{"/v1/flat?fp=" + fp, wantFlat},
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				for _, q := range queries {
					resp, err := http.Get(ts.URL + q.path)
					if err != nil {
						t.Error(err)
						return
					}
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusNotFound {
						continue // no merged data yet
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s: %s", q.path, resp.Status)
						continue
					}
					if !q.want[string(b)] {
						t.Errorf("%s: response matches no offline prefix merge", q.path)
					}
				}
			}
		}()
	}
	wg.Wait()

	final := mustStatus(t, get(t, ts, "/v1/gmon?sync=1&fp="+fp), http.StatusOK)
	if !bytes.Equal(final, finalGmon) {
		t.Errorf("quiesced merge differs from offline MergeAll of all %d uploads", uploads)
	}
}

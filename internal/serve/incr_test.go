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
	if err := gmon.WriteVersion(&buf, merged, gmon.Version1); err != nil {
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
	if err := gmon.WriteVersion(&buf, p, gmon.Version1); err != nil {
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

// TestSnapshotCopyOnWrite checks that a fold clones nothing once the
// queries that read its window have finished: a single-window query is
// served zero-copy and released when it returns, so the next fold
// merges in place, and the next snapshot sees the new merge under a new
// key.
func TestSnapshotCopyOnWrite(t *testing.T) {
	tr := obs.New()
	_, imageBytes := sortImage(t)
	s, ts := newTestServer(t, Config{Trace: tr})
	fp := registerExe(t, ts, imageBytes)
	p1 := sortProfile(t, 1)
	body := encodeProfile(t, p1, gmon.Version1, false)

	mustStatus(t, ingest(t, ts, fp, body), http.StatusAccepted)
	if got := mustStatus(t, get(t, ts, "/v1/gmon?sync=1&fp="+fp), http.StatusOK); !bytes.Equal(got, offlineMerge(t, []*gmon.Profile{p1})) {
		t.Error("single-window gmon differs from offline MergeAll")
	}
	sh, ok := s.shardFor(fp)
	if !ok {
		t.Fatal("no shard after register+ingest")
	}
	key := sh.selectionKey(windowSel{kind: selAll}, s.cfg.Now())

	mustStatus(t, ingest(t, ts, fp, body), http.StatusAccepted)
	if err := sh.sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, key2, release, err := sh.snapshot(context.Background(), windowSel{kind: selAll}, s.cfg.Now())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if key2 == key {
		t.Error("fold did not change the snapshot key")
	}
	if want := offlineMerge(t, []*gmon.Profile{p1, p1}); !bytes.Equal(encodeGmon(t, snap), want) {
		t.Error("post-fold snapshot differs from offline MergeAll")
	}
	if got := s.Snapshot().SnapshotCOWClones; got != 0 {
		t.Errorf("cow clones = %d, want 0: no query was reading the window", got)
	}
}

// TestSnapshotHeldAcrossFold holds a reader of a single-window
// snapshot across a fold into its window: the fold clones exactly once,
// the held snapshot stays frozen and analyzes to the offline MergeAll +
// core.Run of the uploads it names, and the window goes on to serve the
// merge of every upload. Releasing the stale reader does not count
// against the window's new aggregate, so a later query-then-fold clones
// nothing.
func TestSnapshotHeldAcrossFold(t *testing.T) {
	im, imageBytes := sortImage(t)
	s, ts := newTestServer(t, Config{})
	fp := registerExe(t, ts, imageBytes)
	p1, p2 := sortProfile(t, 1), sortProfile(t, 2)
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, p1, gmon.Version1, false)), http.StatusAccepted)
	sh, _ := s.shardFor(fp)
	if err := sh.sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	held, _, release, err := sh.snapshot(context.Background(), windowSel{kind: selAll}, s.cfg.Now())
	if err != nil {
		t.Fatal(err)
	}
	before := encodeGmon(t, held)

	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, p2, gmon.Version1, false)), http.StatusAccepted)
	if err := sh.sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().SnapshotCOWClones; got != 1 {
		t.Errorf("cow clones = %d, want 1 for the fold under a running reader", got)
	}
	if !bytes.Equal(encodeGmon(t, held), before) {
		t.Error("fold mutated a snapshot a query was reading")
	}
	res, err := core.Run(context.Background(), core.TableSource{Table: sh.tab}, held, s.runOptions())
	if err != nil {
		t.Fatal(err)
	}
	var flat bytes.Buffer
	if err := res.WriteFlat(&flat); err != nil {
		t.Fatal(err)
	}
	if want := offlineFlat(t, im, []*gmon.Profile{p1}); !bytes.Equal(flat.Bytes(), want) {
		t.Error("held snapshot's analysis differs from offline MergeAll + core.Run")
	}
	release()

	if want := offlineFlat(t, im, []*gmon.Profile{p1, p2}); !bytes.Equal(mustStatus(t, get(t, ts, "/v1/flat?sync=1&fp="+fp), http.StatusOK), want) {
		t.Error("post-fold flat differs from offline MergeAll + core.Run")
	}
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, p1, gmon.Version1, false)), http.StatusAccepted)
	if want := offlineFlat(t, im, []*gmon.Profile{p1, p2, p1}); !bytes.Equal(mustStatus(t, get(t, ts, "/v1/flat?sync=1&fp="+fp), http.StatusOK), want) {
		t.Error("second post-fold flat differs from offline MergeAll + core.Run")
	}
	if got := s.Snapshot().SnapshotCOWClones; got != 1 {
		t.Errorf("cow clones = %d after a released reader, want still 1", got)
	}
}

// TestStaleFlightKeepsNewerEntry holds a cold analysis across a fold
// into its window, lets a query of the new version fill the slot, and
// only then finishes the stale analysis the way a flight does: through
// keep, after the snapshot was released. The stale result is served to
// its own caller but must not displace the newer entry: the slot keeps
// serving the merge of both uploads, with no eviction, and a repeat
// query hits it.
func TestStaleFlightKeepsNewerEntry(t *testing.T) {
	im, imageBytes := sortImage(t)
	s, ts := newTestServer(t, Config{})
	fp := registerExe(t, ts, imageBytes)
	p1, p2 := sortProfile(t, 1), sortProfile(t, 2)
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, p1, gmon.Version1, false)), http.StatusAccepted)
	sh, _ := s.shardFor(fp)
	if err := sh.sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	all := windowSel{kind: selAll}
	slot := runSlot(sh, all)

	// The cold analysis of version 1 starts: snapshot, then core.Run.
	held, staleKey, release, err := sh.snapshot(context.Background(), all, s.cfg.Now())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.TableSource{Table: sh.tab}, held, s.runOptions())
	if err != nil {
		t.Fatal(err)
	}
	release()

	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, p2, gmon.Version1, false)), http.StatusAccepted)
	want := offlineFlat(t, im, []*gmon.Profile{p1, p2})
	if got := mustStatus(t, get(t, ts, "/v1/flat?sync=1&fp="+fp), http.StatusOK); !bytes.Equal(got, want) {
		t.Fatal("post-fold flat differs from offline MergeAll + core.Run")
	}
	newKey := sh.selectionKey(all, s.cfg.Now())
	if newKey == staleKey {
		t.Fatal("fold did not change the selection key")
	}

	stale := &analysisEntry{res: res}
	if got := s.keep(sh, all, slot, staleKey, stale); got != stale {
		t.Error("keep of a stale version did not hand back its own result")
	}
	if _, ok := s.queries.get(slot, staleKey); ok {
		t.Error("the stale version landed in the slot")
	}
	hits0 := s.metrics.cacheHits.Value()
	if got := mustStatus(t, get(t, ts, "/v1/flat?fp="+fp), http.StatusOK); !bytes.Equal(got, want) {
		t.Error("after the stale flight finished, the slot no longer serves the merge of both uploads")
	}
	hits, evictions := s.metrics.cacheHits.Value(), s.metrics.cacheEvictions.Value()
	if hits != hits0+1 || evictions != 0 {
		t.Errorf("repeat query: %d hits, %d evictions, want 1/0", hits-hits0, evictions)
	}
}

// TestMemoBoundedAcrossUploads is the memo's bound: with room for two
// slots, a dozen upload-then-query cycles (a quiesced flat profile and
// a v3 encoding, which is not memoized) evict nothing, because each
// cycle's analysis replaces the previous cycle's in place, so the memo
// never holds more than the current answer; no fold clones, because no
// query overlaps one; and every answer equals an offline MergeAll +
// core.Run of the uploads so far.
func TestMemoBoundedAcrossUploads(t *testing.T) {
	im, imageBytes := sortImage(t)
	clock := newFakeClock()
	s, ts := newTestServer(t, Config{QueryCache: 2, Now: clock.Now})
	fp := registerExe(t, ts, imageBytes)
	const cycles = 12
	var uploaded []*gmon.Profile
	for i := 0; i < cycles; i++ {
		p := sortProfile(t, uint64(i+1))
		uploaded = append(uploaded, p)
		mustStatus(t, ingest(t, ts, fp, encodeProfile(t, p, gmon.Version2, false)), http.StatusAccepted)
		if got := mustStatus(t, get(t, ts, "/v1/flat?sync=1&fp="+fp), http.StatusOK); !bytes.Equal(got, offlineFlat(t, im, uploaded)) {
			t.Errorf("cycle %d: flat differs from offline MergeAll + core.Run", i+1)
		}
		merged, err := gmon.MergeAll(context.Background(), uploaded, 1)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := gmon.WriteVersion(&want, merged, gmon.Version3); err != nil {
			t.Fatal(err)
		}
		if got := mustStatus(t, get(t, ts, "/v1/gmon?v=3&fp="+fp), http.StatusOK); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("cycle %d: v3 gmon differs from offline MergeAll", i+1)
		}
		st := s.Snapshot()
		if st.AnalysisCacheEvictions != 0 || st.SnapshotCOWClones != 0 {
			t.Fatalf("cycle %d: %d evictions, %d cow clones, want 0/0", i+1, st.AnalysisCacheEvictions, st.SnapshotCOWClones)
		}
	}
}

// TestMultiWindowWarmHit checks that a repeat query over a two-window
// selection is answered by the analysis LRU from the selection key
// alone: the same entry, one hit and no miss per query, no read of any
// window aggregate, and no window marked for copy-on-write.
func TestMultiWindowWarmHit(t *testing.T) {
	im, imageBytes := sortImage(t)
	clock := newFakeClock()
	s, ts := newTestServer(t, Config{Window: time.Minute, Now: clock.Now})
	fp := registerExe(t, ts, imageBytes)
	p1, p2 := sortProfile(t, 1), sortProfile(t, 2)
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, p1, gmon.Version1, false)), http.StatusAccepted)
	clock.Advance(time.Minute)
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, p2, gmon.Version1, false)), http.StatusAccepted)
	cold := mustStatus(t, get(t, ts, "/v1/flat?sync=1&fp="+fp), http.StatusOK)
	if want := offlineFlat(t, im, []*gmon.Profile{p1, p2}); !bytes.Equal(cold, want) {
		t.Fatal("two-window flat differs from offline core.Run")
	}

	ctx := context.Background()
	sh, _ := s.shardFor(fp)
	all := windowSel{kind: selAll}
	first, err := s.analyzed(ctx, sh, all)
	if err != nil {
		t.Fatal(err)
	}
	// Hide the aggregates: a query that merged would dereference nil.
	sh.mu.Lock()
	hidden := make(map[*window]*gmon.Profile, len(sh.windows))
	for _, w := range sh.windows {
		hidden[w], w.prof = w.prof, nil
	}
	sh.mu.Unlock()
	hits0, misses0 := s.metrics.cacheHits.Value(), s.metrics.cacheMisses.Value()
	const warm = 3
	for i := 0; i < warm; i++ {
		if e, err := s.analyzed(ctx, sh, all); err != nil || e != first {
			t.Fatalf("warm query: entry %p err %v, want the cached %p", e, err, first)
		}
	}
	hits, misses := s.metrics.cacheHits.Value(), s.metrics.cacheMisses.Value()
	if hits-hits0 != warm || misses != misses0 {
		t.Errorf("%d warm queries: %d hits, %d misses, want %d/0", warm, hits-hits0, misses-misses0, warm)
	}
	sh.mu.Lock()
	for w, p := range hidden {
		w.prof = p
	}
	sh.mu.Unlock()

	// A multi-window merge clones rather than sharing a window, so the
	// next fold into a selected window copies nothing.
	mustStatus(t, ingest(t, ts, fp, encodeProfile(t, p1, gmon.Version1, false)), http.StatusAccepted)
	if want := offlineFlat(t, im, []*gmon.Profile{p1, p2, p1}); !bytes.Equal(mustStatus(t, get(t, ts, "/v1/flat?sync=1&fp="+fp), http.StatusOK), want) {
		t.Error("post-fold two-window flat differs from offline core.Run")
	}
	if got := s.Snapshot().SnapshotCOWClones; got != 0 {
		t.Errorf("cow clones = %d, want 0", got)
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

package serve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/obs"
)

// ingestItem is one unit of shard work: a decoded upload stamped with
// the window it lands in, or a barrier (profile nil) whose ack channel
// closes once everything enqueued before it has merged.
type ingestItem struct {
	profile     *gmon.Profile
	windowStart int64         // unix seconds, truncated to the window
	ack         chan struct{} // barrier only
}

// window is one time bin's aggregate plus the bookkeeping the
// incremental query path needs: a fold version (so snapshot cache keys
// change exactly when the data does) and a shared flag implementing
// copy-on-write (a cached snapshot may reference prof directly; the
// next fold into the window must clone before mutating).
type window struct {
	prof    *gmon.Profile
	version int64 // shard version at the last fold into this window
	shared  bool  // prof is referenced by a cached snapshot
}

// snapCacheEntries bounds each shard's merged-snapshot cache. Live keys
// are one per distinct window selection of the current data version —
// a handful — and every fold retires a generation, so a small LRU
// holds the working set while old generations fall off the tail.
const snapCacheEntries = 8

// shard is the merge pipeline for one executable fingerprint: a
// bounded queue feeding a single worker goroutine that folds uploads
// into time-windowed aggregates. One worker per fingerprint
// serializes merging (Profile.Merge is not concurrency-safe) while
// distinct fingerprints merge in parallel.
//
// The query side is incremental: every fold bumps the shard version
// and stamps it on the folded window, and merged-window snapshots are
// cached per resolved (window start, version) selection, so a query
// against an unchanged shard reuses the previous merge instead of
// re-cloning and re-folding every retained window. Cached snapshots
// are shared read-only with callers; copy-on-write in merge keeps a
// concurrent fold from ever mutating one.
type shard struct {
	fp       string
	im       *object.Image
	window   int64 // window width, seconds
	retain   int
	queue    chan ingestItem
	done     chan struct{}
	snaps    *core.LRU           // resolved selection -> *gmon.Profile (read-only)
	rec      *obs.FlightRecorder // the server's span recorder, one span per fold
	foldName string              // precomputed span label
	// /metrics series, shared across shards.
	foldDur    *obs.Histogram
	queueDepth *obs.Histogram
	cowClones  *obs.Counter

	mu       sync.Mutex
	closed   bool
	version  int64             // bumps on every fold; stamps windows and cache keys
	windows  map[int64]*window // window start -> aggregate
	geom     gmon.Histogram    // geometry of the first accepted upload (Counts nil)
	hz       int64
	geomSet  bool
	accepted int64 // uploads admitted to the queue
	merged   int64 // uploads folded into a window
	dropped  int64 // uploads the worker could not merge
	lastErr  string
}

func newShard(fp string, im *object.Image, cfg Config, m *serverMetrics, rec *obs.FlightRecorder) *shard {
	return &shard{
		fp:         fp,
		im:         im,
		window:     int64(cfg.Window / time.Second),
		retain:     cfg.Retain,
		queue:      make(chan ingestItem, cfg.QueueDepth),
		done:       make(chan struct{}),
		snaps:      core.NewLRU(snapCacheEntries),
		rec:        rec,
		foldName:   "fold " + fp,
		foldDur:    m.foldDur,
		queueDepth: m.queueDepth,
		cowClones:  m.cowClones,
		windows:    make(map[int64]*window),
	}
}

func (s *shard) start() { go s.run() }

// run is the merge worker: it owns every window aggregate, so no merge
// ever races another.
func (s *shard) run() {
	defer close(s.done)
	for it := range s.queue {
		if it.profile == nil {
			close(it.ack)
			continue
		}
		sp := s.rec.Start(s.foldName)
		s.merge(it)
		s.foldDur.Observe(sp.End())
	}
}

// merge folds one upload into its window, opening the window or
// evicting the oldest as needed. Every successful fold bumps the shard
// version and stamps it on the window, invalidating cached snapshots
// that included the window's previous state.
func (s *shard) merge(it ingestItem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.windows[it.windowStart]
	if !ok {
		// The upload becomes the window's accumulator: ownership was
		// transferred at enqueue, exactly like MergeAll's clone-the-
		// first-element fold (the handler decoded a fresh profile).
		s.version++
		s.windows[it.windowStart] = &window{prof: it.profile, version: s.version}
		s.merged++
		s.evictLocked()
		return
	}
	if w.shared {
		// Copy-on-write: a cached snapshot still references prof, so the
		// fold works on a private copy and the snapshot stays frozen at
		// the version its cache key names. This fold retires that
		// version, so no lookup can hit the snapshot's cache entry
		// again: drop it rather than let it pin a whole profile until
		// the LRU evicts it. Callers holding the snapshot keep it.
		w.prof = w.prof.Clone()
		w.shared = false
		s.snaps.Remove(windowKey(it.windowStart, w.version))
		s.cowClones.Add(1)
	}
	if err := w.prof.Merge(it.profile); err != nil {
		// The handler pre-checks geometry, so this is a race between
		// two first uploads with different geometry — count it, keep
		// the error inspectable in /v1/stats.
		s.dropped++
		s.lastErr = err.Error()
		return
	}
	s.version++
	w.version = s.version
	s.merged++
}

// evictLocked drops the oldest windows beyond the retention bound.
// Snapshot-cache entries that included an evicted window become
// unreachable (their key can never resolve again — shard versions are
// monotonic, so a reopened window start gets a fresh version) and age
// off the snapshot LRU.
func (s *shard) evictLocked() {
	for len(s.windows) > s.retain {
		oldest := int64(0)
		first := true
		for start := range s.windows {
			if first || start < oldest {
				oldest, first = start, false
			}
		}
		delete(s.windows, oldest)
	}
}

// errQueueFull is the backpressure signal the ingest handler turns
// into 429 + Retry-After.
var errQueueFull = fmt.Errorf("serve: shard queue full")

// errShardClosed rejects uploads after Close.
var errShardClosed = fmt.Errorf("serve: shard closed")

// enqueue admits a decoded upload, stamping it into the window
// containing now. It never blocks: a full queue reports errQueueFull.
func (s *shard) enqueue(p *gmon.Profile, now time.Time) error {
	it := ingestItem{profile: p, windowStart: s.truncate(now)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errShardClosed
	}
	if !s.geomSet {
		s.geom = gmon.Histogram{Low: p.Hist.Low, High: p.Hist.High, Step: p.Hist.Step}
		s.hz = p.ClockHz()
		s.geomSet = true
	}
	select {
	case s.queue <- it:
		s.accepted++
		s.queueDepth.Observe(int64(len(s.queue)))
		return nil
	default:
		return errQueueFull
	}
}

// checkGeometry reports whether an upload's histogram geometry and
// clock rate match the shard's established ones, so mismatches fail
// the request (409) instead of dying silently in the worker.
func (s *shard) checkGeometry(p *gmon.Profile) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.geomSet {
		return nil
	}
	if s.geom.Low != p.Hist.Low || s.geom.High != p.Hist.High || s.geom.Step != p.Hist.Step {
		return fmt.Errorf("histogram geometry [%#x,%#x)/%d does not match this fingerprint's [%#x,%#x)/%d",
			p.Hist.Low, p.Hist.High, p.Hist.Step, s.geom.Low, s.geom.High, s.geom.Step)
	}
	if p.ClockHz() != s.hz {
		return fmt.Errorf("clock rate %d Hz does not match this fingerprint's %d Hz", p.ClockHz(), s.hz)
	}
	return nil
}

// sync waits until every upload enqueued before the call has merged,
// or ctx expires. Queries use it (?sync=1) to observe a quiesced
// shard; note a full queue makes sync wait for capacity like any
// producer would.
func (s *shard) sync(ctx context.Context) error {
	it := ingestItem{ack: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil // worker drained everything before exiting
	}
	s.mu.Unlock()
	select {
	case s.queue <- it:
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-it.ack:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// truncate maps an arrival time to its window start.
func (s *shard) truncate(now time.Time) int64 {
	sec := now.Unix()
	return sec - sec%s.window
}

// windowSel selects which windows a query merges.
type windowSel struct {
	kind  int   // selAll, selCurrent, selPrev, selAt
	start int64 // selAt only
}

const (
	selAll = iota
	selCurrent
	selPrev
	selAt
)

// parseWindow parses the window query parameter: empty or "all" for
// every retained window, "current" and "prev" relative to the clock,
// or the unix-seconds start of a specific window.
func parseWindow(s string) (windowSel, error) {
	switch s {
	case "", "all":
		return windowSel{kind: selAll}, nil
	case "current":
		return windowSel{kind: selCurrent}, nil
	case "prev":
		return windowSel{kind: selPrev}, nil
	}
	var start int64
	if _, err := fmt.Sscanf(s, "%d", &start); err != nil || start < 0 {
		return windowSel{}, fmt.Errorf("bad window selector %q (want all, current, prev, or a unix-seconds window start)", s)
	}
	return windowSel{kind: selAt, start: start}, nil
}

// snapshot merges the selected windows into one profile, folding
// clones in ascending window order — the same fold gmon.MergeAll
// performs, so the result is byte-identical to an offline merge of the
// uploads. It reports the number of windows merged (zero means no
// matching data) and the resolved selection key — every included
// window's (start, fold version), which names the snapshot's exact
// content and is what the analysis cache keys on.
//
// Snapshots are cached per key: an unchanged shard answers repeat
// queries with the previous merge — for a single-window selection the
// window aggregate itself, zero copies, protected by copy-on-write in
// merge. The returned profile is shared and must be treated read-only
// (gmon.Write and core.Run never mutate their input profile).
func (s *shard) snapshot(sel windowSel, now time.Time) (*gmon.Profile, int, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var starts []int64
	switch sel.kind {
	case selAll:
		for start := range s.windows {
			starts = append(starts, start)
		}
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	case selCurrent:
		starts = []int64{s.truncate(now)}
	case selPrev:
		starts = []int64{s.truncate(now) - s.window}
	case selAt:
		starts = []int64{sel.start - sel.start%s.window}
	}
	var key strings.Builder
	included := make([]*window, 0, len(starts))
	for _, start := range starts {
		w, ok := s.windows[start]
		if !ok {
			continue
		}
		key.WriteString(windowKey(start, w.version))
		included = append(included, w)
	}
	n := len(included)
	if n == 0 {
		return nil, 0, ""
	}
	if v, ok := s.snaps.Get(key.String()); ok {
		return v.(*gmon.Profile), n, key.String()
	}
	var total *gmon.Profile
	if n == 1 {
		// Zero-copy: serve the aggregate itself and mark it shared; the
		// next fold into this window clones first (copy-on-write). The
		// bytes equal an offline MergeAll of the window's uploads, which
		// for one window is exactly the aggregate.
		included[0].shared = true
		total = included[0].prof
	} else {
		total = included[0].prof.Clone()
		for _, w := range included[1:] {
			if err := total.Merge(w.prof); err != nil {
				continue // unreachable: geometry is enforced per shard
			}
		}
	}
	total = s.snaps.Add(key.String(), total).(*gmon.Profile)
	return total, n, key.String()
}

// windowKey is one window's part of a snapshot cache key; a
// single-window selection's key is exactly this.
func windowKey(start, version int64) string {
	return fmt.Sprintf("%d:%d|", start, version)
}

// windowStarts lists the retained window starts, ascending.
func (s *shard) windowStarts() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, 0, len(s.windows))
	for start := range s.windows {
		out = append(out, start)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// counts returns the shard's ingest accounting.
func (s *shard) counts() (accepted, merged, dropped int64, lastErr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accepted, s.merged, s.dropped, s.lastErr
}

// currentVersion returns the shard's fold version (zero before any
// fold).
func (s *shard) currentVersion() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// close stops the worker after draining the queue.
func (s *shard) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	<-s.done
}

// sortShards orders by fingerprint for deterministic listings.
func sortShards(shards []*shard) {
	sort.Slice(shards, func(i, j int) bool { return shards[i].fp < shards[j].fp })
}

package serve

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/gmon"
	"repro/internal/obs"
	"repro/internal/symtab"
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
// incremental query path needs: a fold version (so selection keys
// change exactly when the data does) and a count of running readers
// implementing copy-on-write (a single-window query reads prof
// directly; a fold while it runs must clone before mutating).
type window struct {
	prof    *gmon.Profile
	version int64 // shard version at the last fold into this window
	readers int   // queries reading prof right now; guarded by shard.mu
}

// shard is the merge pipeline for one executable fingerprint: a
// bounded queue feeding a single worker goroutine that folds uploads
// into time-windowed aggregates. One worker per fingerprint
// serializes merging (Profile.Merge is not concurrency-safe) while
// distinct fingerprints merge in parallel.
//
// The shard owns the executable's symbol table, built and validated
// once when the fingerprint registered; every query analyzes against
// it. The query side is incremental: every fold bumps the shard
// version and stamps it on the folded window, so a selection's key —
// each included window's start and version — names its exact content,
// and the server's analysis LRU answers a repeat query against an
// unchanged shard without merging anything.
type shard struct {
	fp       string
	tab      *symtab.Table // validated; read-only, shared by every analysis
	window   int64         // window width, seconds
	retain   int
	queue    chan ingestItem
	done     chan struct{}
	rec      *obs.FlightRecorder // the server's span recorder, one span per fold
	foldName string              // precomputed span label
	// /metrics series, shared across shards.
	foldDur    *obs.Histogram
	queueDepth *obs.Histogram
	cowClones  *obs.Counter

	mu       sync.Mutex
	closed   bool
	version  int64             // bumps on every fold; stamps windows and selection keys
	windows  map[int64]*window // window start -> aggregate
	geom     gmon.Histogram    // geometry of the first accepted upload (Counts nil)
	hz       int64
	geomSet  bool
	accepted int64 // uploads admitted to the queue
	merged   int64 // uploads folded into a window
	dropped  int64 // uploads the worker could not merge
	lastErr  string
}

func newShard(fp string, tab *symtab.Table, cfg Config, m *serverMetrics, rec *obs.FlightRecorder) *shard {
	return &shard{
		fp:         fp,
		tab:        tab,
		window:     int64(cfg.Window / time.Second),
		retain:     cfg.Retain,
		queue:      make(chan ingestItem, cfg.QueueDepth),
		done:       make(chan struct{}),
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
// version and stamps it on the window, changing the key of every
// selection that includes it.
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
	if w.readers > 0 {
		// Copy-on-write: a running query reads prof, so the fold works
		// on a private copy and the query's snapshot stays frozen at
		// the version its selection key names. The readers hold the
		// old aggregate; the window's new one has none.
		w.prof = w.prof.Clone()
		w.readers = 0
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
// The memo needs no notice: its slots are keyed by query shape and
// each stores the selection key it was computed from, which names
// every included window's start and version. A selection that
// included an evicted window now resolves to another key (shard
// versions are monotonic, so a reopened window start gets a fresh
// version), so its next query misses and overwrites the slot.
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

// key names the selection itself, not the data it resolves to: the
// window-selection part of a memo slot. A start names the window of
// the given width that holds it, so every spelling of one window names
// one slot.
func (sel windowSel) key(width int64) string {
	return strconv.Itoa(sel.kind) + ":" + strconv.FormatInt(sel.start-sel.start%width, 10)
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
	start, err := strconv.ParseInt(s, 10, 64)
	if err != nil || start < 0 {
		return windowSel{}, fmt.Errorf("bad window selector %q (want all, current, prev, or a unix-seconds window start)", s)
	}
	return windowSel{kind: selAt, start: start}, nil
}

// includedLocked resolves a selection to the retained windows it
// covers, in ascending window order, and the key naming their content:
// every included window's start and fold version. No key repeats once
// the data moves on, because shard versions are monotonic. The caller
// holds s.mu.
func (s *shard) includedLocked(sel windowSel, now time.Time) ([]*window, string) {
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
		fmt.Fprintf(&key, "%d:%d|", start, w.version)
		included = append(included, w)
	}
	return included, key.String()
}

// selectionKey resolves sel to its key without merging anything; the
// key is empty when no selected window holds data. A query compares it
// with the key its memo slot stores and merges only when they differ.
func (s *shard) selectionKey(sel windowSel, now time.Time) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, key := s.includedLocked(sel, now)
	return key
}

// whileCurrent runs fn if key is still sel's key at now, holding the
// shard lock so no fold lands while fn runs; fn must not take it.
func (s *shard) whileCurrent(sel windowSel, now time.Time, key string, fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, cur := s.includedLocked(sel, now); cur == key {
		fn()
	}
}

// snapshot merges the selected windows into one profile with
// gmon.MergeAll in ascending window order, so the result is
// byte-identical to an offline merge of the uploads. It returns the
// profile and the selection key naming its content; both are empty
// when no selected window holds data. The key differs from an earlier
// selectionKey when a fold landed in between.
//
// A single-window selection is served zero-copy: the window aggregate
// itself, counted as read until the caller calls release, and
// protected by copy-on-write in merge while it is. The returned profile
// must be treated read-only (gmon.WriteVersion and core.Run never mutate
// their input profile), and release must be called once the caller is
// done reading it: neither an analysis nor an encoding keeps the
// profile. release is never nil.
func (s *shard) snapshot(ctx context.Context, sel windowSel, now time.Time) (p *gmon.Profile, key string, release func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	included, key := s.includedLocked(sel, now)
	switch len(included) {
	case 0:
		return nil, "", func() {}, nil
	case 1:
		// The bytes equal an offline MergeAll of the window's uploads,
		// which for one window is exactly the aggregate.
		w := included[0]
		w.readers++
		prof := w.prof
		return prof, key, func() {
			s.mu.Lock()
			// A fold that cloned the aggregate has already let the
			// readers of the old one go.
			if w.prof == prof {
				w.readers--
			}
			s.mu.Unlock()
		}, nil
	}
	profs := make([]*gmon.Profile, len(included))
	for i, w := range included {
		profs[i] = w.prof
	}
	total, err := gmon.MergeAll(ctx, profs, 1)
	if err != nil {
		return nil, "", func() {}, err
	}
	return total, key, func() {}, nil
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

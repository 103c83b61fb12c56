package serve

import (
	"bytes"
	"context"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/gmon"
)

// The incremental read path. A query resolves in two amortized
// layers, each keyed by the shard's fold versions so correctness is
// never traded for speed:
//
//  1. analysis memoization (Server.analyzed): the finished core.Run —
//     the model plus lazily rendered flat/callgraph/JSON bytes — is
//     kept in one memo slot per query shape: fingerprint and window
//     selection. The slot also stores the selection key the analysis
//     was computed from (shard.selectionKey: each included window's
//     start and fold version), which is resolved before any merge; a
//     lookup hits only when the stored key equals the current one, so
//     a hit merges nothing. A finished analysis overwrites its slot in
//     place, and only while its key is still current, so the memo
//     holds at most one analysis per shape and never one that no query
//     can hit again;
//  2. single-flight coalescing (flightGroup): concurrent identical
//     cold queries — same slot, same selection key — share one merge
//     and one core.Run instead of N duplicates.
//
// Any fold bumps the shard version and the next query misses and
// rebuilds, so served bytes are always what an offline gmon.MergeAll +
// core.Run over the same uploads would produce (the invariant the
// incremental tests byte-compare at every interleaving). The /v1/gmon
// encodings are not memoized: each request merges and encodes.

// analysisEntry is one finished analysis: the core.Run result and the
// rendered response bodies, memoized per endpoint on first demand so a
// warm query of any endpoint is a byte-slice write.
type analysisEntry struct {
	res *core.Result

	mu       sync.Mutex
	rendered map[string][]byte
}

// bytesFor returns the endpoint's rendered body, rendering and
// memoizing it on first call. Rendering from the cached model is
// deterministic, so the memoized bytes equal a fresh render.
func (e *analysisEntry) bytesFor(endpoint string, render func(*core.Result, io.Writer) error) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if b, ok := e.rendered[endpoint]; ok {
		return b, nil
	}
	var buf bytes.Buffer
	if err := render(e.res, &buf); err != nil {
		return nil, err
	}
	if e.rendered == nil {
		e.rendered = make(map[string][]byte, 3)
	}
	e.rendered[endpoint] = buf.Bytes()
	return buf.Bytes(), nil
}

// flight is one in-progress shared computation.
type flight struct {
	done chan struct{}
	val  *analysisEntry
	err  error
}

// flightGroup coalesces concurrent computations of the same key into a
// single run: the first caller starts the work, later callers wait for
// its result. The computation runs on its own goroutine detached from
// any request context, so one canceled request neither poisons the
// waiters nor wastes the almost-finished analysis — it completes,
// lands in the cache, and every waiter still holding on gets it.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// do returns the result of fn for key, sharing one execution among
// concurrent callers. coalesced reports whether this caller joined a
// flight another request started (the single-flight stats counter). A
// caller whose ctx expires abandons the wait; the flight itself keeps
// running.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (*analysisEntry, error)) (val *analysisEntry, err error, coalesced bool) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.val, f.err, true
		case <-ctx.Done():
			return nil, ctx.Err(), true
		}
	}
	f := &flight{done: make(chan struct{})}
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	g.m[key] = f
	g.mu.Unlock()
	go func() {
		f.val, f.err = fn()
		// Retire the flight before announcing the result: a request
		// arriving after the delete misses the flight but hits the
		// cache fn filled (fn caches before returning, unless a fold
		// has already made its version stale), so nothing recomputes
		// and nothing waits on a completed flight.
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
	}()
	select {
	case <-f.done:
		return f.val, f.err, false
	case <-ctx.Done():
		return nil, ctx.Err(), false
	}
}

// runOptions is the server's fixed analysis configuration: every
// query runs under it, so it is no part of a memo slot's name.
func (s *Server) runOptions() core.Options {
	return core.Options{Jobs: s.cfg.Jobs}
}

// runSlot names the memo slot of an analysis of sh's windows under
// sel: the query shape, with no data version in it.
func runSlot(sh *shard, sel windowSel) string {
	return "run|" + sh.fp + "|" + sel.key(sh.window)
}

// flightKey names one cold computation: a slot at one selection key.
func flightKey(slot, selKey string) string { return slot + "@" + selKey }

// keep stores val in slot for the selection key selKey and returns
// the value to serve: val, or the slot's incumbent when it already
// holds selKey. It stores only while selKey is still sel's current
// key, checked under the shard lock so that no fold lands between the
// check and the store: a slow computation of an older version never
// displaces a newer one, and is served to its own callers uncached.
func (s *Server) keep(sh *shard, sel windowSel, slot, selKey string, val *analysisEntry) *analysisEntry {
	kept := val
	sh.whileCurrent(sel, s.cfg.Now(), selKey, func() { kept = s.queries.put(slot, selKey, val) })
	return kept
}

// analyzed returns the (possibly cached) analysis of the selected
// windows. The slot is the query shape and the stored version the
// selection key, so any fold into a selected window makes the next
// query miss and reanalyze, and its analysis replaces the old one in
// the same slot; an unchanged shard hits without merging. Cold misses
// merge and analyze in a single flight. Every lookup counts one hit or
// one miss in /metrics.
func (s *Server) analyzed(ctx context.Context, sh *shard, sel windowSel) (*analysisEntry, error) {
	now := s.cfg.Now()
	selKey := sh.selectionKey(sel, now)
	if selKey == "" {
		return nil, errNoData
	}
	slot := runSlot(sh, sel)
	if v, ok := s.queries.get(slot, selKey); ok {
		s.metrics.cacheHits.Add(1)
		return v, nil
	}
	s.metrics.cacheMisses.Add(1)
	e, err, coalesced := s.flights.do(ctx, flightKey(slot, selKey), func() (*analysisEntry, error) {
		// A fold since the lookup gives the merge a newer key; the
		// analysis is of that data and is kept under the key that
		// names it.
		p, selKey, release, err := sh.snapshot(context.Background(), sel, now)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, errNoData
		}
		// Detached context: the shared run serves every waiter (and the
		// cache), so no single request's cancellation may abort it.
		res, err := core.Run(context.Background(), core.TableSource{Table: sh.tab}, p, s.runOptions())
		release() // the Result keeps nothing of p
		if err != nil {
			return nil, err
		}
		return s.keep(sh, sel, slot, selKey, &analysisEntry{res: res}), nil
	})
	if coalesced {
		s.metrics.coalesced.Add(1)
	}
	return e, err
}

// gmonBytes returns the raw encoding of the selected windows' merge in
// the given format version. Nothing repeats this request, so it is not
// memoized: every call snapshots, encodes and releases.
func (s *Server) gmonBytes(ctx context.Context, sh *shard, sel windowSel, version int) ([]byte, error) {
	p, _, release, err := sh.snapshot(ctx, sel, s.cfg.Now())
	if err != nil {
		return nil, err
	}
	defer release()
	if p == nil {
		return nil, errNoData
	}
	var buf bytes.Buffer
	if err := gmon.WriteVersion(&buf, p, version); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

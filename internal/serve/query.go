package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/gmon"
)

// The incremental read path. A query resolves in three amortized
// layers, each keyed by the shard's fold versions so correctness is
// never traded for speed:
//
//  1. snapshot reuse (shard.snapshot): the merged-windows profile is
//     cached per resolved (window start, version) selection;
//  2. analysis memoization (Server.analyzed): the finished core.Run —
//     the model plus lazily rendered flat/callgraph/JSON bytes — is
//     cached per (fingerprint, selection key, normalized options);
//  3. single-flight coalescing (flightGroup): concurrent identical
//     cold queries share one core.Run instead of N duplicates.
//
// An unchanged shard therefore serves repeat queries with two LRU
// lookups and a buffer write; any fold bumps the shard version and the
// whole stack rebuilds on the next query, so served bytes are always
// what an offline gmon.MergeAll + core.Run over the same uploads would
// produce (the invariant the incremental tests byte-compare at every
// interleaving).

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
		// cache fn filled (fn caches before returning), so nothing
		// recomputes and nothing waits on a completed flight.
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

// runOptions is the server's fixed analysis configuration; its
// CacheKey is precomputed in New.
func (s *Server) runOptions() core.Options {
	return core.Options{Jobs: s.cfg.Jobs, Cache: s.cache}
}

// analyzed returns the (possibly cached) analysis of the selected
// windows. The cache key is fingerprint + the snapshot's resolved
// (start, version) selection + the normalized options, so any fold
// into a selected window changes the key and the next query reanalyzes;
// an unchanged shard hits the LRU. Cold misses are single-flighted.
func (s *Server) analyzed(ctx context.Context, sh *shard, sel windowSel) (*analysisEntry, error) {
	p, n, snapKey := sh.snapshot(sel, s.cfg.Now())
	if n == 0 {
		return nil, errNoData
	}
	key := "run|" + sh.fp + "|" + snapKey + "|" + s.optKey
	if v, ok := s.queries.Get(key); ok {
		return v.(*analysisEntry), nil
	}
	e, err, coalesced := s.flights.do(ctx, key, func() (*analysisEntry, error) {
		// Detached context: the shared run serves every waiter (and the
		// cache), so no single request's cancellation may abort it.
		res, err := core.Run(context.Background(), core.ImageSource{Image: sh.im}, p, s.runOptions())
		if err != nil {
			return nil, err
		}
		ent := &analysisEntry{res: res}
		s.queries.Add(key, ent)
		return ent, nil
	})
	if coalesced {
		s.metrics.coalesced.Add(1)
	}
	return e, err
}

// gmonBytes returns the (possibly cached) raw encoding of the selected
// windows' merge in the given format version. The rendered bytes share
// the analysis LRU under their own key family.
func (s *Server) gmonBytes(sh *shard, sel windowSel, version int) ([]byte, error) {
	p, n, snapKey := sh.snapshot(sel, s.cfg.Now())
	if n == 0 {
		return nil, errNoData
	}
	key := fmt.Sprintf("gmon|%d|%s|%s", version, sh.fp, snapKey)
	if v, ok := s.queries.Get(key); ok {
		return v.([]byte), nil
	}
	var buf bytes.Buffer
	if err := gmon.WriteVersion(&buf, p, version); err != nil {
		return nil, err
	}
	return s.queries.Add(key, buf.Bytes()).([]byte), nil
}

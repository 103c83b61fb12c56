// Package serve is the fleet-scale continuous-profiling service behind
// cmd/gprofd: the paper's "profile of many executions" (§3) turned
// into an always-on server. Agents on many machines upload gmon.out
// profile data (either format version, gzip or identity transport)
// keyed by the executable's content fingerprint; the server
// streaming-merges each fingerprint's uploads into time-windowed
// aggregates and answers flat/call-graph/diff/model queries by running
// the ordinary analysis pipeline (core.Run) over the merged windows.
//
// The ingestion hot path is built to survive thousands of agents:
//
//   - every upload decodes through gmon.Open, whose bounded section
//     growth means a lying header cannot drive a large allocation,
//     under an http.MaxBytesReader body cap;
//   - each fingerprint owns a shard: one merge-worker goroutine and a
//     bounded queue of decoded profiles, so merging never blocks the
//     HTTP handler and memory is bounded by queue depth × body cap;
//   - when a shard's queue is full the handler answers 429 with a
//     Retry-After hint instead of buffering without bound — explicit
//     backpressure the load generator (cmd/gprofload) honors.
//
// Aggregates are windowed by upload arrival time (Config.Window wide,
// Config.Retain windows kept per fingerprint), so "what changed in the
// last minute" is a two-window diff away. Because profile merging is
// commutative and canonicalizing (gmon.Profile.Merge), the merged
// output of any set of windows is byte-identical to an offline
// gmon.MergeAll over the same uploads — the property the gprofd-smoke
// target asserts.
//
// Every event is counted once, in the always-on /metrics registry;
// /v1/stats projects its series into typed fields. Each request and
// each fold records one span into one recorder: a bounded
// flight-recorder ring by default, or Config.Trace's growing recorder
// when a CLI trace is attached.
package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Defaults for the zero Config.
const (
	DefaultWindow       = time.Minute
	DefaultRetain       = 8
	DefaultQueueDepth   = 64
	DefaultMaxBodyBytes = 32 << 20
	DefaultMaxShards    = 1024
	DefaultQueryCache   = 128
)

// Config sizes the service. The zero value is usable: every field
// falls back to the package default.
type Config struct {
	// Window is the width of one aggregation window; uploads are
	// binned by arrival time truncated to it. Minimum one second.
	Window time.Duration
	// Retain is how many windows each fingerprint keeps; older windows
	// are evicted as new ones open, bounding per-shard memory.
	Retain int
	// QueueDepth bounds each shard's pending-profile queue; a full
	// queue turns uploads into 429 + Retry-After.
	QueueDepth int
	// MaxBodyBytes caps every upload body (profile data and
	// executables alike) via http.MaxBytesReader.
	MaxBodyBytes int64
	// MaxShards bounds the number of registered fingerprints.
	MaxShards int
	// Jobs is the worker width queries pass to core.Run, which uses it
	// to render the listing.
	// Zero means GOMAXPROCS.
	Jobs int
	// QueryCache bounds the analysis-memoization LRU, in query
	// shapes: one slot per (fingerprint, window selection) for
	// finished core.Run results with their rendered bodies. A slot
	// holds only the answer for the selection's current window
	// versions; a fold makes the next query replace it in place, so
	// uploads alone never grow the memo. /v1/gmon encodings are not
	// memoized. Non-positive means DefaultQueryCache.
	QueryCache int
	// Now is the clock, injectable for tests. Nil means time.Now.
	Now func() time.Time
	// Trace, when set, is the span recorder: request and fold spans
	// go to its growing recorder instead of the bounded ring that
	// /debug/flightrec dumps.
	Trace *obs.Trace
}

// flightTrackSpans is how many spans each track of the default
// flight-recorder ring keeps.
const flightTrackSpans = 1024

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Window < time.Second {
		c.Window = time.Second
	}
	if c.Retain <= 0 {
		c.Retain = DefaultRetain
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxShards <= 0 {
		c.MaxShards = DefaultMaxShards
	}
	if c.QueryCache <= 0 {
		c.QueryCache = DefaultQueryCache
	}
	if c.Jobs <= 0 {
		c.Jobs = runtime.GOMAXPROCS(0)
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Server is one gprofd instance: an executable registry, a merge shard
// per registered fingerprint, and the HTTP API over both. Create with
// New, expose Handler, and Close when done.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	queries *lru        // finished analyses + rendered bodies, one slot per query shape
	flights flightGroup // single-flight coalescing of cold analyses
	start   time.Time

	metrics   *serverMetrics      // always-on /metrics registry
	rec       *obs.FlightRecorder // the one span recorder, dumped at /debug/flightrec
	self      selfProfiler        // serializes /v1/self captures
	endpoints map[string]string   // registered path -> its request span name
	handler   http.Handler        // mux wrapped in the metrics middleware
	draining  atomic.Bool         // flips /readyz to 503

	mu     sync.Mutex
	shards map[string]*shard
	closed bool
}

// New creates a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		start:  cfg.Now(),
		shards: make(map[string]*shard),
	}
	s.metrics = newServerMetrics()
	s.queries = newLRU(cfg.QueryCache, s.metrics.cacheEvictions)
	s.self.captureFn = captureCPUProfile
	s.rec = cfg.Trace.Recorder()
	if s.rec == nil {
		s.rec = obs.NewFlightRecorder(flightTrackSpans)
	}
	s.mux = http.NewServeMux()
	s.endpoints = make(map[string]string)
	s.routes()
	s.handler = s.instrument(s.mux)
	return s
}

// Handler returns the HTTP API (the gprofd.api.v1 surface documented
// in docs/FORMATS.md), wrapped in the metrics middleware so every
// request lands in the /metrics histograms and the flight recorder.
func (s *Server) Handler() http.Handler { return s.handler }

// BeginDrain flips /readyz to 503 so load balancers stop routing new
// traffic here, without touching in-flight or subsequent requests —
// every endpoint keeps answering until the process exits. Call it when
// shutdown begins, ahead of http.Server.Shutdown's connection drain.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.metrics.ready.Set(0)
	}
}

// Ready reports whether the server still advertises readiness.
func (s *Server) Ready() bool { return !s.draining.Load() }

// Close stops every shard worker after draining its queue, after
// flipping readiness off. Uploads arriving during or after Close are
// rejected with 503; queries keep working against the merged windows.
func (s *Server) Close() {
	s.BeginDrain()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	shards := make([]*shard, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.Unlock()
	for _, sh := range shards {
		sh.close()
	}
}

// shardFor returns the shard registered for fp, if any.
func (s *Server) shardFor(fp string) (*shard, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, ok := s.shards[fp]
	return sh, ok
}

// register creates (or returns) the shard for fp. It fails when the
// registry is full or the server is closed.
func (s *Server) register(fp string, sh *shard) (*shard, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("server is shutting down")
	}
	if prev, ok := s.shards[fp]; ok {
		return prev, nil
	}
	if len(s.shards) >= s.cfg.MaxShards {
		return nil, fmt.Errorf("fingerprint registry full (%d shards)", s.cfg.MaxShards)
	}
	s.shards[fp] = sh
	sh.start()
	return sh, nil
}

// allShards snapshots the registry in fingerprint-sorted order.
func (s *Server) allShards() []*shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*shard, 0, len(s.shards))
	for _, sh := range s.shards {
		out = append(out, sh)
	}
	sortShards(out)
	return out
}

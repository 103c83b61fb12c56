package serve

import (
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// Production metrics for gprofd (schema gprofd.metrics.v1, documented
// in docs/FORMATS.md): an always-on obs.Registry the HTTP middleware,
// handlers, shards, and self-profiler record into, exposed in
// Prometheus text format at GET /metrics. It is the server's one count
// source — /v1/stats reads its series rather than keeping counters of
// its own — and holds a fixed set of counters, gauges, and
// log-bucketed histograms, so a gprofd that runs for months pays a few
// atomic adds per request and constant memory.

// serverMetrics owns the registry plus the hot-path series resolved
// once at startup; per-(endpoint, status) series are cached in a map so
// the request path never rebuilds label strings.
type serverMetrics struct {
	reg *obs.Registry

	inFlight     *obs.Gauge
	foldDur      *obs.Histogram
	queueDepth   *obs.Histogram
	profiles     *obs.Counter
	profileBytes *obs.Counter
	backpressure *obs.Counter // the /v1/ingest 429 requests series
	badRequests  *obs.Counter
	executables  *obs.Counter
	queries      *obs.Counter
	coalesced    *obs.Counter
	cowClones    *obs.Counter
	// The analysis memo: lookups that hit or missed, slots evicted, and
	// the misses whose analysis reused its slot's structure.
	cacheHits       *obs.Counter
	cacheMisses     *obs.Counter
	cacheEvictions  *obs.Counter
	structureReuses *obs.Counter

	selfCaptures *obs.Counter
	selfEmpty    *obs.Counter
	selfErrors   *obs.Counter

	// Runtime gauges, set by refreshRuntime on every /metrics and
	// /v1/stats read.
	uptime     *obs.Gauge
	heapAlloc  *obs.Gauge
	heapSys    *obs.Gauge
	goroutines *obs.Gauge
	shards     *obs.Gauge
	ready      *obs.Gauge

	mu     bySeriesMu
	series map[seriesKey]*endpointSeries
	byEp   map[string]*endpointBytes
}

type bySeriesMu = sync.Mutex

// seriesKey keys the per-endpoint × per-status cache without
// allocating a string per request.
type seriesKey struct {
	endpoint string
	code     int
}

// endpointSeries is one (endpoint, status) pair's request counter and
// latency histogram.
type endpointSeries struct {
	requests *obs.Counter
	duration *obs.Histogram
}

// endpointBytes is one endpoint's request/response size histograms
// (status-independent to bound cardinality).
type endpointBytes struct {
	reqBytes  *obs.Histogram
	respBytes *obs.Histogram
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		inFlight: reg.Gauge("gprofd_http_in_flight",
			"HTTP requests currently being served"),
		foldDur: reg.Histogram("gprofd_shard_fold_duration_ns",
			"time to fold one accepted upload into its window aggregate"),
		queueDepth: reg.Histogram("gprofd_shard_queue_depth",
			"shard queue length observed at each enqueue"),
		profiles: reg.Counter("gprofd_profiles_ingested_total",
			"profile uploads accepted into a shard queue"),
		profileBytes: reg.Counter("gprofd_profile_bytes_ingested_total",
			"upload bytes consumed by the profile decoder"),
		badRequests: reg.Counter("gprofd_bad_requests_total",
			"requests rejected as malformed, unknown, oversized or conflicting (4xx other than 429)"),
		executables: reg.Counter("gprofd_executables_registered_total",
			"executable registrations accepted, re-registrations included"),
		queries: reg.Counter("gprofd_queries_total",
			"query requests admitted against a registered fingerprint"),
		coalesced: reg.Counter("gprofd_coalesced_queries_total",
			"cold queries that joined another request's analysis"),
		cowClones: reg.Counter("gprofd_snapshot_cow_clones_total",
			"folds that cloned a window aggregate a query held zero-copy"),
		cacheHits: reg.Counter("gprofd_analysis_cache_hits_total",
			"query lookups answered by a memoized analysis"),
		cacheMisses: reg.Counter("gprofd_analysis_cache_misses_total",
			"query lookups that found no analysis of the current data"),
		cacheEvictions: reg.Counter("gprofd_analysis_cache_evictions_total",
			"memo slots evicted to admit a new query shape"),
		structureReuses: reg.Counter("gprofd_analysis_structure_reuses_total",
			"cold analyses that reused their slot's graph structure and cycles"),
		selfCaptures: reg.Counter("gprofd_selfprofile_captures_total",
			"self-profile captures attempted"),
		selfEmpty: reg.Counter("gprofd_selfprofile_empty_total",
			"self-profile captures that held no samples (idle process)"),
		selfErrors: reg.Counter("gprofd_selfprofile_errors_total",
			"self-profile captures that failed (profiler busy or decode error)"),
		uptime: reg.Gauge("gprofd_uptime_seconds",
			"seconds since the server started"),
		heapAlloc: reg.Gauge("gprofd_heap_alloc_bytes",
			"Go heap bytes currently allocated"),
		heapSys: reg.Gauge("gprofd_heap_sys_bytes",
			"Go heap bytes obtained from the operating system"),
		goroutines: reg.Gauge("gprofd_goroutines",
			"goroutines currently live"),
		shards: reg.Gauge("gprofd_shards",
			"registered fingerprint shards"),
		ready: reg.Gauge("gprofd_ready",
			"1 while serving, 0 once draining has begun"),
		series: make(map[seriesKey]*endpointSeries),
		byEp:   make(map[string]*endpointBytes),
	}
	m.ready.Set(1)
	m.backpressure = m.endpointSeries("/v1/ingest", http.StatusTooManyRequests).requests
	return m
}

// endpointSeries resolves (and caches) the counter/histogram pair for
// one endpoint and status code.
func (m *serverMetrics) endpointSeries(endpoint string, code int) *endpointSeries {
	key := seriesKey{endpoint, code}
	m.mu.Lock()
	es, ok := m.series[key]
	m.mu.Unlock()
	if ok {
		return es
	}
	es = &endpointSeries{
		requests: m.reg.Counter("gprofd_http_requests_total",
			"HTTP requests served, by endpoint and status code",
			"endpoint", endpoint, "code", strconv.Itoa(code)),
		duration: m.reg.Histogram("gprofd_http_request_duration_ns",
			"request latency in nanoseconds, by endpoint and status code",
			"endpoint", endpoint, "code", strconv.Itoa(code)),
	}
	m.mu.Lock()
	if prev, ok := m.series[key]; ok {
		es = prev
	} else {
		m.series[key] = es
	}
	m.mu.Unlock()
	return es
}

// endpointBytes resolves (and caches) the size histograms for one
// endpoint.
func (m *serverMetrics) endpointBytes(endpoint string) *endpointBytes {
	m.mu.Lock()
	eb, ok := m.byEp[endpoint]
	m.mu.Unlock()
	if ok {
		return eb
	}
	eb = &endpointBytes{
		reqBytes: m.reg.Histogram("gprofd_http_request_bytes",
			"request body bytes read, by endpoint", "endpoint", endpoint),
		respBytes: m.reg.Histogram("gprofd_http_response_bytes",
			"response body bytes written, by endpoint", "endpoint", endpoint),
	}
	m.mu.Lock()
	if prev, ok := m.byEp[endpoint]; ok {
		eb = prev
	} else {
		m.byEp[endpoint] = eb
	}
	m.mu.Unlock()
	return eb
}

// endpointLabel maps a request path to its metric label and request
// span name. Unknown paths collapse into "other" so a scanner probing
// random URLs cannot grow the series set without bound.
func (s *Server) endpointLabel(path string) (label, span string) {
	if span, ok := s.endpoints[path]; ok {
		return path, span
	}
	return "other", "http other"
}

// statusWriter observes the status code and body size of a response.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// countingBody counts the request-body bytes handlers actually read.
type countingBody struct {
	rc io.ReadCloser
	n  int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error { return b.rc.Close() }

// instrument is the HTTP middleware: per-endpoint × per-status request
// counts and latency histograms, per-endpoint body-size histograms, the
// in-flight gauge, and one span per request, whose duration is the
// latency the histogram observes. It wraps the whole mux, so every
// endpoint — including /metrics itself — is measured.
func (s *Server) instrument(next http.Handler) http.Handler {
	m := s.metrics
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep, name := s.endpointLabel(r.URL.Path)
		sp := s.rec.Start(name)
		m.inFlight.Add(1)
		body := &countingBody{rc: r.Body}
		r.Body = body
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		m.inFlight.Add(-1)
		dur := sp.End()
		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		es := m.endpointSeries(ep, code)
		es.requests.Add(1)
		es.duration.Observe(dur)
		eb := m.endpointBytes(ep)
		eb.reqBytes.Observe(body.n)
		eb.respBytes.Observe(sw.bytes)
	})
}

// refreshRuntime reads the runtime once — one ReadMemStats, which
// stops the world briefly — and sets the runtime gauges that /metrics
// and /v1/stats both report.
func (s *Server) refreshRuntime() {
	m := s.metrics
	m.uptime.Set(int64(s.cfg.Now().Sub(s.start).Seconds()))
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.heapAlloc.Set(int64(mem.HeapAlloc))
	m.heapSys.Set(int64(mem.HeapSys))
	m.goroutines.Set(int64(runtime.NumGoroutine()))
	s.mu.Lock()
	m.shards.Set(int64(len(s.shards)))
	s.mu.Unlock()
}

// handleMetrics serves the registry in Prometheus text exposition
// format, refreshing the runtime gauges first.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET /metrics")
		return
	}
	s.refreshRuntime()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteExposition(w, s.metrics.reg)
}

// handleHealthz is liveness: the process is up and serving HTTP. Always
// 200 — use /readyz for load-balancer rotation decisions.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

// handleReadyz is readiness: 200 while the server accepts work, 503
// once draining has begun (BeginDrain or Close) so a balancer stops
// routing new traffic while in-flight requests finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Ready() {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ready\n"))
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write([]byte("draining\n"))
}

// handleFlightRec dumps the span recorder as Chrome trace-event JSON
// — the last few thousand request and fold spans (every one, when a
// trace is attached), always available, for after-the-fact incident
// forensics (load in Perfetto or validate with cmd/tracecheck).
func (s *Server) handleFlightRec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET /debug/flightrec")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.rec.WriteChromeTrace(w)
}

package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/gmon"
	"repro/internal/model"
	"repro/internal/object"
)

// FingerprintHeader carries the executable fingerprint on ingest
// requests (the ?fp query parameter is an alternative).
const FingerprintHeader = "X-Gprof-Fingerprint"

func (s *Server) routes() {
	s.handle("/v1/exe", s.handleExe)
	s.handle("/v1/ingest", s.handleIngest)
	s.handle("/v1/flat", s.queryText("flat", (*core.Result).WriteFlat))
	s.handle("/v1/callgraph", s.queryText("callgraph", (*core.Result).WriteCallGraph))
	s.handle("/v1/profile", s.handleProfile)
	s.handle("/v1/folded", s.queryText("folded", (*core.Result).WriteFolded))
	s.handle("/v1/pprof", s.handlePprof)
	s.handle("/v1/diff", s.handleDiff)
	s.handle("/v1/gmon", s.handleGmon)
	s.handle("/v1/stats", s.handleStats)
	s.handle("/v1/fingerprints", s.handleFingerprints)
	s.handle("/v1/self", s.handleSelf)
	s.handle("/metrics", s.handleMetrics)
	s.handle("/healthz", s.handleHealthz)
	s.handle("/readyz", s.handleReadyz)
	s.handle("/debug/flightrec", s.handleFlightRec)
}

// handle registers a route and records its path so the metrics
// middleware can label known endpoints exactly and collapse everything
// else into "other", and name their request spans without allocating.
func (s *Server) handle(path string, fn http.HandlerFunc) {
	s.endpoints[path] = "http " + path
	s.mux.HandleFunc(path, fn)
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	if code >= 400 && code < 500 && code != http.StatusTooManyRequests {
		s.metrics.badRequests.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(apiError{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// countReader counts the bytes a decoder actually consumed, for the
// ingest byte counters.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// handleExe registers an executable: the body is the linked image in
// the repo's a.out encoding, and the response carries the content
// fingerprint subsequent uploads and queries are keyed by.
// Re-registering the same image is idempotent.
func (s *Server) handleExe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST an executable image to /v1/exe")
		return
	}
	body := &countReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
	im, err := object.ReadImage(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, "executable exceeds the %d-byte upload cap", s.cfg.MaxBodyBytes)
			return
		}
		s.fail(w, http.StatusBadRequest, "bad executable image: %v", err)
		return
	}
	fp, err := object.Fingerprint(im)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "fingerprinting image: %v", err)
		return
	}
	sh, err := s.register(fp, newShard(fp, im, s.cfg, s.metrics, s.rec))
	if err != nil {
		s.fail(w, http.StatusInsufficientStorage, "registering %s: %v", fp, err)
		return
	}
	s.metrics.executables.Add(1)
	writeJSON(w, http.StatusOK, struct {
		Fingerprint string `json:"fingerprint"`
		Routines    int    `json:"routines"`
	}{Fingerprint: sh.fp, Routines: len(im.Funcs)})
}

// handleIngest accepts one gmon.out upload: either format version,
// gzip or identity transport (sniffed by gmon.OpenReader — no
// Content-Encoding negotiation needed), keyed by fingerprint. Malformed
// bodies are 4xx; a full shard queue is 429 with Retry-After.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST profile data to /v1/ingest")
		return
	}
	fp := r.Header.Get(FingerprintHeader)
	if fp == "" {
		fp = r.URL.Query().Get("fp")
	}
	if fp == "" {
		s.fail(w, http.StatusBadRequest, "missing executable fingerprint (%s header or ?fp=)", FingerprintHeader)
		return
	}
	sh, ok := s.shardFor(fp)
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown fingerprint %s; register the executable via POST /v1/exe first", fp)
		return
	}
	body := &countReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
	p, err := gmon.Open(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, "profile exceeds the %d-byte upload cap", s.cfg.MaxBodyBytes)
			return
		}
		s.fail(w, http.StatusBadRequest, "bad profile data: %v", err)
		return
	}
	if err := sh.checkGeometry(p); err != nil {
		s.fail(w, http.StatusConflict, "unmergeable upload: %v", err)
		return
	}
	now := s.cfg.Now()
	if err := sh.enqueue(p, now); err != nil {
		switch {
		case errors.Is(err, errQueueFull):
			w.Header().Set("Retry-After", "1")
			s.fail(w, http.StatusTooManyRequests, "shard %s queue full; retry", fp)
		default:
			s.fail(w, http.StatusServiceUnavailable, "shard %s: %v", fp, err)
		}
		return
	}
	s.rate.add(now.Unix())
	s.metrics.profiles.Add(1)
	s.metrics.profileBytes.Add(body.n)
	writeJSON(w, http.StatusAccepted, struct {
		Fingerprint string `json:"fingerprint"`
		WindowStart int64  `json:"window_start"`
	}{Fingerprint: fp, WindowStart: sh.truncate(now)})
}

// queryShard parses the fp and window parameters shared by every query
// endpoint, honoring ?sync=1 (wait for the shard's queue to drain so
// the snapshot covers every accepted upload), and counts the query once
// it is admitted.
func (s *Server) queryShard(w http.ResponseWriter, r *http.Request) (*shard, windowSel, bool) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "query endpoints are GET")
		return nil, windowSel{}, false
	}
	fp := r.URL.Query().Get("fp")
	if fp == "" {
		s.fail(w, http.StatusBadRequest, "missing ?fp= fingerprint")
		return nil, windowSel{}, false
	}
	sh, ok := s.shardFor(fp)
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown fingerprint %s", fp)
		return nil, windowSel{}, false
	}
	sel, err := parseWindow(r.URL.Query().Get("window"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return nil, windowSel{}, false
	}
	if r.URL.Query().Get("sync") == "1" {
		if err := sh.sync(r.Context()); err != nil {
			s.fail(w, http.StatusServiceUnavailable, "waiting for shard %s to quiesce: %v", fp, err)
			return nil, windowSel{}, false
		}
	}
	s.metrics.queries.Add(1)
	return sh, sel, true
}

var errNoData = fmt.Errorf("no profile data in the selected window(s)")

// queryText builds a handler serving one of the Result text reports
// (the flat profile or the call graph profile) through the incremental
// path: snapshot reuse, analysis memoization, and a per-entry memo of
// the rendered bytes, all invalidated by the shard's fold version.
func (s *Server) queryText(endpoint string, render func(*core.Result, io.Writer) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sh, sel, ok := s.queryShard(w, r)
		if !ok {
			return
		}
		e, err := s.analyzed(r.Context(), sh, sel)
		if err != nil {
			s.queryFail(w, sh, err)
			return
		}
		body, err := e.bytesFor(endpoint, render)
		if err != nil {
			s.queryFail(w, sh, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(body)
	}
}

// handleProfile serves the merged windows as an analyzed
// gprof.profile.v1 JSON document — the same bytes gprof -json writes.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	sh, sel, ok := s.queryShard(w, r)
	if !ok {
		return
	}
	e, err := s.analyzed(r.Context(), sh, sel)
	if err != nil {
		s.queryFail(w, sh, err)
		return
	}
	body, err := e.bytesFor("profile", (*core.Result).WriteJSON)
	if err != nil {
		s.queryFail(w, sh, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// DiffResponse is the /v1/diff payload: per-routine deltas between two
// window selections of one fingerprint, most-regressed first.
type DiffResponse struct {
	Schema      string        `json:"schema"`
	Fingerprint string        `json:"fingerprint"`
	Old         string        `json:"old"`
	New         string        `json:"new"`
	Deltas      []model.Delta `json:"deltas"`
}

// DiffSchema tags every /v1/diff response.
const DiffSchema = "gprofd.diff.v1"

// handleDiff compares two window selections (?old=, ?new=; default
// prev vs current) and returns model.Diff's per-routine deltas.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	sh, _, ok := s.queryShard(w, r)
	if !ok {
		return
	}
	oldParam := r.URL.Query().Get("old")
	if oldParam == "" {
		oldParam = "prev"
	}
	newParam := r.URL.Query().Get("new")
	if newParam == "" {
		newParam = "current"
	}
	oldSel, err := parseWindow(oldParam)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "old: %v", err)
		return
	}
	newSel, err := parseWindow(newParam)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "new: %v", err)
		return
	}
	oldEnt, err := s.analyzed(r.Context(), sh, oldSel)
	if err != nil {
		s.queryFail(w, sh, err)
		return
	}
	newEnt, err := s.analyzed(r.Context(), sh, newSel)
	if err != nil {
		s.queryFail(w, sh, err)
		return
	}
	writeJSON(w, http.StatusOK, DiffResponse{
		Schema:      DiffSchema,
		Fingerprint: sh.fp,
		Old:         oldParam,
		New:         newParam,
		Deltas:      model.Diff(oldEnt.res.Model, newEnt.res.Model),
	})
}

// handlePprof serves the merged windows' stacks view as a gzipped
// pprof protobuf — what a flame-graph UI or go tool pprof would fetch.
// 404 when the uploads carried no stack samples (pre-v3 collectors).
func (s *Server) handlePprof(w http.ResponseWriter, r *http.Request) {
	sh, sel, ok := s.queryShard(w, r)
	if !ok {
		return
	}
	e, err := s.analyzed(r.Context(), sh, sel)
	if err != nil {
		s.queryFail(w, sh, err)
		return
	}
	body, err := e.bytesFor("pprof", (*core.Result).WritePprof)
	if err != nil {
		s.queryFail(w, sh, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(body)
}

// handleGmon serves the merged windows as raw profile data (?v=2 for
// the compressed format, ?v=3 to include the stack-sample section) —
// the bytes an offline gmon.MergeAll over the same uploads would
// produce, which is what `make gprofd-smoke` asserts.
func (s *Server) handleGmon(w http.ResponseWriter, r *http.Request) {
	sh, sel, ok := s.queryShard(w, r)
	if !ok {
		return
	}
	version := gmon.Version1
	switch r.URL.Query().Get("v") {
	case "2":
		version = gmon.Version2
	case "3":
		version = gmon.Version3
	}
	body, err := s.gmonBytes(sh, sel, version)
	if err != nil {
		s.queryFail(w, sh, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(body)
}

// queryFail maps analysis errors to status codes.
func (s *Server) queryFail(w http.ResponseWriter, sh *shard, err error) {
	if errors.Is(err, errNoData) || errors.Is(err, model.ErrNoStacks) {
		s.fail(w, http.StatusNotFound, "%s: %v", sh.fp, err)
		return
	}
	s.fail(w, http.StatusInternalServerError, "analyzing %s: %v", sh.fp, err)
}

// handleFingerprints lists the registered executables and their ingest
// accounting.
func (s *Server) handleFingerprints(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET /v1/fingerprints")
		return
	}
	type row struct {
		Fingerprint string  `json:"fingerprint"`
		Routines    int     `json:"routines"`
		Uploads     int64   `json:"uploads"`
		Merged      int64   `json:"merged"`
		Dropped     int64   `json:"dropped,omitempty"`
		Windows     []int64 `json:"windows,omitempty"`
		LastError   string  `json:"last_error,omitempty"`
	}
	shards := s.allShards()
	rows := make([]row, 0, len(shards))
	for _, sh := range shards {
		accepted, merged, dropped, lastErr := sh.counts()
		rows = append(rows, row{
			Fingerprint: sh.fp,
			Routines:    len(sh.im.Funcs),
			Uploads:     accepted,
			Merged:      merged,
			Dropped:     dropped,
			Windows:     sh.windowStarts(),
			LastError:   lastErr,
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Schema       string `json:"schema"`
		Fingerprints []row  `json:"fingerprints"`
	}{Schema: "gprofd.fingerprints.v1", Fingerprints: rows})
}

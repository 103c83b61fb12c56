package serve

import "net/http"

// StatsSchema tags every /v1/stats response.
const StatsSchema = "gprofd.stats.v1"

// ShardStats is one fingerprint's row in the stats payload.
type ShardStats struct {
	Fingerprint string  `json:"fingerprint"`
	Uploads     int64   `json:"uploads"`
	Merged      int64   `json:"merged"`
	Dropped     int64   `json:"dropped,omitempty"`
	QueueLen    int     `json:"queue_len"`
	QueueCap    int     `json:"queue_cap"`
	Version     int64   `json:"version"` // fold version; bumps on every merged upload
	Windows     []int64 `json:"windows,omitempty"`
	LastError   string  `json:"last_error,omitempty"`
}

// Stats is the /v1/stats payload (schema gprofd.stats.v1): ingest
// accounting, the lifetime profiles/sec headline, the Go heap (the
// soak test's bounded-RSS check reads it), and per-shard queue depths.
// Every count and runtime reading is a projection of one /metrics
// series, so the two surfaces cannot disagree.
type Stats struct {
	Schema        string  `json:"schema"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	ProfilesAccepted      int64   `json:"profiles_accepted"`
	BytesIngested         int64   `json:"bytes_ingested"`
	RejectedBadRequest    int64   `json:"rejected_bad_request"`
	RejectedBackpressure  int64   `json:"rejected_backpressure"`
	ExecutablesRegistered int64   `json:"executables_registered"`
	Queries               int64   `json:"queries"`
	ProfilesPerSecond     float64 `json:"profiles_per_second"`

	// The incremental query path's accounting: the analysis memo's
	// lookups and evictions (gprofd_analysis_cache_*_total), how many
	// cold queries were coalesced into another request's analysis, and
	// how many folds cloned a window a query held.
	AnalysisCacheHits      int64 `json:"analysis_cache_hits"`
	AnalysisCacheMisses    int64 `json:"analysis_cache_misses"`
	AnalysisCacheEvictions int64 `json:"analysis_cache_evictions"`
	CoalescedQueries       int64 `json:"coalesced_queries"`
	SnapshotCOWClones      int64 `json:"snapshot_cow_clones"`

	// The /v1/self captures' accounting (additive in
	// gprofd.stats.v1; the gprofd.metrics.v1 selfprofile counters).
	SelfProfileCaptures int64 `json:"selfprofile_captures,omitempty"`
	SelfProfileEmpty    int64 `json:"selfprofile_empty,omitempty"`
	SelfProfileErrors   int64 `json:"selfprofile_errors,omitempty"`

	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes"`
	NumGoroutine   int    `json:"num_goroutine"`

	Shards []ShardStats `json:"shards"`
}

// Snapshot assembles the current stats payload.
func (s *Server) Snapshot() Stats {
	uptime := s.cfg.Now().Sub(s.start).Seconds()
	m := s.metrics
	st := Stats{
		Schema:                 StatsSchema,
		UptimeSeconds:          uptime,
		ProfilesAccepted:       m.profiles.Value(),
		BytesIngested:          m.profileBytes.Value(),
		RejectedBadRequest:     m.badRequests.Value(),
		RejectedBackpressure:   m.backpressure.Value(),
		ExecutablesRegistered:  m.executables.Value(),
		Queries:                m.queries.Value(),
		AnalysisCacheHits:      m.cacheHits.Value(),
		AnalysisCacheMisses:    m.cacheMisses.Value(),
		AnalysisCacheEvictions: m.cacheEvictions.Value(),
		CoalescedQueries:       m.coalesced.Value(),
		SnapshotCOWClones:      m.cowClones.Value(),
		SelfProfileCaptures:    m.selfCaptures.Value(),
		SelfProfileEmpty:       m.selfEmpty.Value(),
		SelfProfileErrors:      m.selfErrors.Value(),
	}
	if uptime > 0 {
		st.ProfilesPerSecond = float64(st.ProfilesAccepted) / uptime
	}
	s.refreshRuntime()
	st.HeapAllocBytes = uint64(m.heapAlloc.Value())
	st.HeapSysBytes = uint64(m.heapSys.Value())
	st.NumGoroutine = int(m.goroutines.Value())
	shards := s.allShards()
	st.Shards = make([]ShardStats, 0, len(shards))
	for _, sh := range shards {
		accepted, merged, dropped, lastErr := sh.counts()
		st.Shards = append(st.Shards, ShardStats{
			Fingerprint: sh.fp,
			Uploads:     accepted,
			Merged:      merged,
			Dropped:     dropped,
			QueueLen:    len(sh.queue),
			QueueCap:    cap(sh.queue),
			Version:     sh.currentVersion(),
			Windows:     sh.windowStarts(),
			LastError:   lastErr,
		})
	}
	return st
}

// handleStats serves the Snapshot as JSON.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET /v1/stats")
		return
	}
	writeJSON(w, http.StatusOK, s.Snapshot())
}

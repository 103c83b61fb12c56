package serve

import (
	"net/http"
	"runtime"
	"sync"
)

// StatsSchema tags every /v1/stats response.
const StatsSchema = "gprofd.stats.v1"

// rateWindow is how many whole seconds the recent-rate estimate
// averages over.
const rateWindow = 10

// rateTracker keeps per-second accept counts in a small ring so
// /v1/stats can report a recent profiles/sec figure alongside the
// lifetime average.
type rateTracker struct {
	mu    sync.Mutex
	slots [rateWindow + 2]struct{ sec, n int64 }
}

func (t *rateTracker) add(sec int64) {
	i := sec % int64(len(t.slots))
	t.mu.Lock()
	if t.slots[i].sec != sec {
		t.slots[i].sec, t.slots[i].n = sec, 0
	}
	t.slots[i].n++
	t.mu.Unlock()
}

// recent averages the accept rate over the last rateWindow whole
// seconds (the current partial second is excluded).
func (t *rateTracker) recent(now int64) float64 {
	var sum int64
	t.mu.Lock()
	for _, s := range t.slots {
		if s.sec >= now-rateWindow && s.sec < now {
			sum += s.n
		}
	}
	t.mu.Unlock()
	return float64(sum) / rateWindow
}

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
// accounting, the profiles/sec headline both lifetime and over the
// last few seconds, the Go heap (the soak test's bounded-RSS check
// reads it), and per-shard queue depths. Every count is a projection
// of one source — a /metrics series or a cache's own LRU counters —
// so the two surfaces cannot disagree.
type Stats struct {
	Schema        string  `json:"schema"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	ProfilesAccepted        int64   `json:"profiles_accepted"`
	BytesIngested           int64   `json:"bytes_ingested"`
	RejectedBadRequest      int64   `json:"rejected_bad_request"`
	RejectedBackpressure    int64   `json:"rejected_backpressure"`
	ExecutablesRegistered   int64   `json:"executables_registered"`
	Queries                 int64   `json:"queries"`
	ProfilesPerSecond       float64 `json:"profiles_per_second"`
	RecentProfilesPerSecond float64 `json:"recent_profiles_per_second"`

	// The incremental query path's accounting: the snapshot layer
	// (merged-window reuse, summed over shards) and the analysis layer
	// (memoized core.Run results and rendered bodies), plus how many
	// cold queries were coalesced into another request's analysis.
	SnapshotCacheHits      int64 `json:"snapshot_cache_hits"`
	SnapshotCacheMisses    int64 `json:"snapshot_cache_misses"`
	SnapshotCacheEvictions int64 `json:"snapshot_cache_evictions"`
	AnalysisCacheHits      int64 `json:"analysis_cache_hits"`
	AnalysisCacheMisses    int64 `json:"analysis_cache_misses"`
	AnalysisCacheEvictions int64 `json:"analysis_cache_evictions"`
	CoalescedQueries       int64 `json:"coalesced_queries"`
	SnapshotCOWClones      int64 `json:"snapshot_cow_clones"`

	// The dogfood loop's accounting (additive in gprofd.stats.v1; see
	// /v1/self and the gprofd.metrics.v1 selfprofile counters).
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
	now := s.cfg.Now()
	uptime := now.Sub(s.start).Seconds()
	m := s.metrics
	aHits, aMisses, aEvict := s.queries.Stats()
	st := Stats{
		Schema:                  StatsSchema,
		UptimeSeconds:           uptime,
		ProfilesAccepted:        m.profiles.Value(),
		BytesIngested:           m.profileBytes.Value(),
		RejectedBadRequest:      m.badRequests.Value(),
		RejectedBackpressure:    m.backpressure.Value(),
		ExecutablesRegistered:   m.executables.Value(),
		Queries:                 m.queries.Value(),
		RecentProfilesPerSecond: s.rate.recent(now.Unix()),
		AnalysisCacheHits:       int64(aHits),
		AnalysisCacheMisses:     int64(aMisses),
		AnalysisCacheEvictions:  int64(aEvict),
		CoalescedQueries:        m.coalesced.Value(),
		SnapshotCOWClones:       m.cowClones.Value(),
		SelfProfileCaptures:     m.selfCaptures.Value(),
		SelfProfileEmpty:        m.selfEmpty.Value(),
		SelfProfileErrors:       m.selfErrors.Value(),
	}
	if uptime > 0 {
		st.ProfilesPerSecond = float64(st.ProfilesAccepted) / uptime
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	st.HeapAllocBytes = mem.HeapAlloc
	st.HeapSysBytes = mem.HeapSys
	st.NumGoroutine = runtime.NumGoroutine()
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
		hits, misses, evictions := sh.snaps.Stats()
		st.SnapshotCacheHits += int64(hits)
		st.SnapshotCacheMisses += int64(misses)
		st.SnapshotCacheEvictions += int64(evictions)
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

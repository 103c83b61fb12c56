package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs, p given in
// tenths of a percent (990 is p99).
func percentile(xs []float64, permille int) float64 {
	s := sortedCopy(xs)
	k := (permille*len(s) + 999) / 1000 // ceil(p·n), the 1-based rank
	k = min(max(k, 1), len(s))
	return s[k-1]
}

// tailPermille lists the percentiles a tail is reported at, highest
// first, in tenths of a percent.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, and its value: p99 needs 1000 samples, p75 needs
// 40. ok is false below 20 samples, where not even the median has ten
// samples beyond it.
func tail(xs []float64) (permille int, v float64, ok bool) {
	n := len(xs)
	for _, p := range tailPermille {
		if rank := (p*n + 999) / 1000; n-rank >= 10 {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// tailName names a tail percentile the way metric names spell it:
// 990 → "p99", 999 → "p99.9".
func tailName(permille int) string {
	return "p" + strconv.FormatFloat(float64(permille)/10, 'f', -1, 64)
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so compare's spreads match that common tool's on the same
// values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// bucket is one histogram bucket of a scrape delta: the observations
// at or below upper that were not counted in an earlier bucket.
type bucket struct {
	upper float64
	count float64
}

// cumulative returns the (le, cumulative count) pairs of each histogram
// series in a scrape whose labels include every key/value in want,
// keyed by the series' other labels and sorted by le; +Inf is dropped.
func cumulative(e *obs.Exposition, family string, want map[string]string) map[string][][2]float64 {
	f := e.Family(family)
	if f == nil {
		return nil
	}
	out := map[string][][2]float64{}
	for _, s := range f.Samples {
		if s.Name != family+"_bucket" || !hasLabels(s.Labels, want) {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil || math.IsInf(le, 1) {
			continue
		}
		key := make([]string, 0, len(s.Labels))
		for k, v := range s.Labels {
			if k != "le" {
				key = append(key, k+"="+v)
			}
		}
		sort.Strings(key)
		id := strings.Join(key, ",")
		out[id] = append(out[id], [2]float64{le, s.Value})
	}
	for _, c := range out {
		sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	}
	return out
}

func hasLabels(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// cumAt is the cumulative count at bound le summed over series: gprofd's
// exposition writes only non-empty buckets, so a missing bound carries
// the count of the nearest bound below it.
func cumAt(series map[string][][2]float64, le float64) float64 {
	sum := 0.0
	for _, c := range series {
		if i := sort.Search(len(c), func(i int) bool { return c[i][0] > le }); i > 0 {
			sum += c[i-1][1]
		}
	}
	return sum
}

// histogramDelta returns the buckets the matching histogram series
// gained together between two scrapes of /metrics, in ascending bound
// order.
func histogramDelta(before, after *obs.Exposition, family string, labels map[string]string) []bucket {
	b, a := cumulative(before, family, labels), cumulative(after, family, labels)
	var bounds []float64
	for _, c := range a {
		for _, p := range c {
			bounds = append(bounds, p[0])
		}
	}
	sort.Float64s(bounds)
	var out []bucket
	prev := 0.0
	for _, le := range bounds {
		d := cumAt(a, le) - cumAt(b, le)
		if d > prev {
			out = append(out, bucket{upper: le, count: d - prev})
		}
		prev = d
	}
	return out
}

// bucketQuantile returns the upper bound of the bucket holding the q-th
// observation, or NaN when the delta holds none.
func bucketQuantile(bs []bucket, q float64) float64 {
	total := 0.0
	for _, b := range bs {
		total += b.count
	}
	if total == 0 {
		return math.NaN()
	}
	cum := 0.0
	for _, b := range bs {
		cum += b.count
		if cum >= q*total {
			return b.upper
		}
	}
	return bs[len(bs)-1].upper
}

// counterDelta returns how much one counter series grew between scrapes.
func counterDelta(before, after *obs.Exposition, name string, labels ...string) float64 {
	a, _ := after.Sample(name, labels...)
	b, _ := before.Sample(name, labels...)
	return a - b
}

// serveStats is the part of gprofd's /v1/stats document (schema
// gprofd.stats.v1) the benchmark reads.
type serveStats struct {
	AnalysisCacheHits   int64 `json:"analysis_cache_hits"`
	AnalysisCacheMisses int64 `json:"analysis_cache_misses"`
	SnapshotCacheHits   int64 `json:"snapshot_cache_hits"`
	SnapshotCacheMisses int64 `json:"snapshot_cache_misses"`
	CoalescedQueries    int64 `json:"coalesced_queries"`
}

// scrape is one reading of a gprofd's /metrics and /v1/stats.
type scrape struct {
	expo  *obs.Exposition
	stats serveStats
}

func takeScrape(do doFunc) (scrape, error) {
	var sc scrape
	status, body, err := do(http.MethodGet, "/metrics", nil, "")
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		return sc, fmt.Errorf("scraping /metrics: %w", err)
	}
	if sc.expo, err = obs.ParseExposition(bytes.NewReader(body)); err != nil {
		return sc, fmt.Errorf("parsing /metrics: %w", err)
	}
	status, body, err = do(http.MethodGet, "/v1/stats", nil, "")
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		return sc, fmt.Errorf("reading /v1/stats: %w", err)
	}
	if err := json.Unmarshal(body, &sc.stats); err != nil {
		return sc, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return sc, nil
}

// ratio returns hits/(hits+misses), or NaN with no lookups.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return math.NaN()
	}
	return float64(hits) / float64(hits+misses)
}

// serveDelta turns two scrapes of one gprofd into the serve-layer
// numbers of the phase between them.
func serveDelta(b, a scrape) []metric {
	ingest := histogramDelta(b.expo, a.expo, "gprofd_http_request_duration_ns",
		map[string]string{"endpoint": "/v1/ingest", "code": "202"})
	fold := histogramDelta(b.expo, a.expo, "gprofd_shard_fold_duration_ns", nil)
	depth := histogramDelta(b.expo, a.expo, "gprofd_shard_queue_depth", nil)
	depthMax := 0.0
	if len(depth) > 0 {
		depthMax = depth[len(depth)-1].upper
	}
	return []metric{
		{Name: "serve.ingest_handler_p50_ms", Unit: "ms", Value: bucketQuantile(ingest, 0.50) / 1e6},
		{Name: "serve.ingest_handler_p99_ms", Unit: "ms", Value: bucketQuantile(ingest, 0.99) / 1e6},
		{Name: "serve.fold_p50_ms", Unit: "ms", Value: bucketQuantile(fold, 0.50) / 1e6},
		{Name: "serve.queue_depth_max", Unit: "count", Value: depthMax},
		{Name: "serve.rejected_429", Unit: "count", Value: counterDelta(b.expo, a.expo,
			"gprofd_http_requests_total", "endpoint", "/v1/ingest", "code", "429")},
		{Name: "serve.analysis_cache_hit_ratio", Unit: "ratio", Value: ratio(
			a.stats.AnalysisCacheHits-b.stats.AnalysisCacheHits,
			a.stats.AnalysisCacheMisses-b.stats.AnalysisCacheMisses)},
		{Name: "serve.snapshot_cache_hit_ratio", Unit: "ratio", Value: ratio(
			a.stats.SnapshotCacheHits-b.stats.SnapshotCacheHits,
			a.stats.SnapshotCacheMisses-b.stats.SnapshotCacheMisses)},
		{Name: "serve.coalesced_queries", Unit: "count",
			Value: float64(a.stats.CoalescedQueries - b.stats.CoalescedQueries)},
	}
}

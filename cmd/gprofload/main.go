// Command gprofload replays the built-in workload corpus against a
// running gprofd: the simulated fleet. It compiles and profiles each
// workload a few times with distinct seeds, registers the executables,
// then uploads the profiles from -agents concurrent agents, cycling
// through format versions (v1/v2) and transports (identity/gzip) and
// honoring the server's 429 backpressure with a short backoff.
//
// Usage:
//
//	gprofload [flags]
//
//	gprofload -addr http://127.0.0.1:7421 -agents 8 -uploads 100 -verify
//	gprofload -agents 8 -uploads 100 -readers 4 -verify
//
// With -readers N, N query agents run alongside the uploaders for the
// whole ingest phase, cycling deterministically over /v1/flat and
// /v1/profile across every fingerprint and requiring 200s with
// schema-valid bodies — mixed read/write traffic against the server's
// incremental query path. Any reader failure exits nonzero, and so
// does a run whose completed reads left the server's analysis cache
// without a hit, or that made the cache evict: the readers ask one
// query shape per fingerprint, far fewer than the server's default
// -querycache slots, and a fold replaces its shape's slot in place, so
// an eviction means uploads, not queries, are growing the memo.
//
// With -metrics, an observability prober runs alongside the agents:
// every ~100ms it scrapes /metrics (the body must parse and validate as
// Prometheus text exposition) and requires 200 from /healthz and
// /readyz — the monitoring stack a production gprofd lives under. Any
// probe failure exits nonzero.
//
// With -verify it fetches each fingerprint's merged profile back
// (quiesced with ?sync=1) and byte-compares it against an offline
// gmon.MergeAll over the exact multiset of accepted uploads; any
// difference is a server merge bug and exits nonzero. The summary line
// reports accepted uploads, the achieved profiles/sec, 429 retries,
// and the server's heap as seen by /v1/stats.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/workloads"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:7421", "gprofd base URL")
		agents   = flag.Int("agents", 4, "concurrent simulated agents")
		uploads  = flag.Int("uploads", 50, "uploads per agent (ignored with -duration)")
		readers  = flag.Int("readers", 0, "concurrent query agents hitting /v1/flat and /v1/profile during ingest")
		duration = flag.Duration("duration", 0, "replay for this long instead of a fixed count")
		names    = flag.String("workloads", "", "comma-separated workload names (default all)")
		verify   = flag.Bool("verify", false, "byte-compare server merges against offline MergeAll")
		wait     = flag.Duration("wait", 5*time.Second, "how long to wait for the server to come up")
		jsonOut  = flag.Bool("json", false, "print the result as JSON instead of a summary line")
		metrics  = flag.Bool("metrics", false, "scrape and validate /metrics, /healthz, /readyz every ~100ms during the replay")
	)
	flag.Parse()
	if err := run(*addr, *agents, *uploads, *readers, *duration, *names, *verify, *wait, *jsonOut, *metrics); err != nil {
		fmt.Fprintln(os.Stderr, "gprofload:", err)
		os.Exit(1)
	}
}

func run(addr string, agents, uploads, readers int, duration time.Duration, names string, verify bool, wait time.Duration, jsonOut, metrics bool) error {
	var list []string
	if names != "" {
		for _, n := range strings.Split(names, ",") {
			list = append(list, strings.TrimSpace(n))
		}
	} else {
		list = workloads.Names()
	}
	ctx := context.Background()
	corpus, err := loadgen.BuildCorpus(list)
	if err != nil {
		return err
	}
	client := &loadgen.Client{Base: strings.TrimRight(addr, "/")}
	if err := client.WaitReady(ctx, wait); err != nil {
		return err
	}
	if err := client.RegisterAll(ctx, corpus); err != nil {
		return err
	}
	res, err := client.Run(ctx, corpus, loadgen.Options{
		Agents:          agents,
		UploadsPerAgent: uploads,
		Duration:        duration,
		Readers:         readers,
		Metrics:         metrics,
	})
	if err != nil {
		return err
	}
	stats, statsErr := client.Stats(ctx)
	if jsonOut {
		out := struct {
			Uploads      int64   `json:"uploads"`
			PerSecond    float64 `json:"profiles_per_second"`
			Retries429   int64   `json:"retries_429"`
			Errors       int64   `json:"errors"`
			Reads        int64   `json:"reads,omitempty"`
			ReadErrors   int64   `json:"read_errors,omitempty"`
			ReadsPerSec  float64 `json:"reads_per_second,omitempty"`
			Scrapes      int64   `json:"metrics_scrapes,omitempty"`
			ScrapeErrors int64   `json:"metrics_errors,omitempty"`
			ElapsedMs    int64   `json:"elapsed_ms"`
			ServerHeapMB float64 `json:"server_heap_mb,omitempty"`
		}{res.Uploads, res.PerSecond, res.Retries429, res.Errors,
			res.Reads, res.ReadErrors, res.ReadsPerSecond,
			res.MetricsScrapes, res.MetricsErrors, res.Elapsed.Milliseconds(), 0}
		if statsErr == nil {
			out.ServerHeapMB = float64(stats.HeapAllocBytes) / (1 << 20)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		fmt.Printf("uploaded %d profiles from %d agents in %v (%.0f profiles/sec, %d retries after 429, %d errors)\n",
			res.Uploads, agents, res.Elapsed.Round(time.Millisecond), res.PerSecond, res.Retries429, res.Errors)
		if readers > 0 {
			fmt.Printf("readers: %d queries from %d agents (%.0f queries/sec, %d errors)\n",
				res.Reads, readers, res.ReadsPerSecond, res.ReadErrors)
		}
		if metrics {
			fmt.Printf("metrics: %d valid scrapes, %d errors\n", res.MetricsScrapes, res.MetricsErrors)
		}
		if statsErr == nil {
			fmt.Printf("server: %d accepted, %.1f MB heap, %d shards\n",
				stats.ProfilesAccepted, float64(stats.HeapAllocBytes)/(1<<20), len(stats.Shards))
			if readers > 0 {
				fmt.Printf("server cache: %d/%d analysis hits/misses, %d evictions, %d coalesced\n",
					stats.AnalysisCacheHits, stats.AnalysisCacheMisses, stats.AnalysisCacheEvictions, stats.CoalescedQueries)
			}
		}
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d uploads failed", res.Errors)
	}
	if res.ReadErrors > 0 {
		return fmt.Errorf("%d reader queries failed", res.ReadErrors)
	}
	if metrics {
		if res.MetricsErrors > 0 {
			return fmt.Errorf("%d observability probes failed", res.MetricsErrors)
		}
		if res.MetricsScrapes == 0 {
			return fmt.Errorf("no observability probes completed")
		}
	}
	// Readers that completed queries must have hit the server's
	// analysis cache; a server serving every read from scratch is a
	// query-path regression (the make query-smoke gate).
	if readers > 0 && res.Reads > 0 && statsErr == nil && stats.AnalysisCacheHits == 0 {
		return fmt.Errorf("%d reads but the server reports zero analysis cache hits", res.Reads)
	}
	// Nor may they have made it evict (see the package comment).
	if readers > 0 && statsErr == nil && stats.AnalysisCacheEvictions > 0 {
		return fmt.Errorf("the server's analysis cache evicted %d entries; the readers ask at most %d query shapes", stats.AnalysisCacheEvictions, len(corpus.Items))
	}
	if res.Uploads == 0 {
		return fmt.Errorf("no uploads were accepted")
	}
	if verify {
		if err := client.Verify(ctx, corpus, res); err != nil {
			return err
		}
		fmt.Println("verify: server merges are byte-identical to offline MergeAll")
	}
	return nil
}

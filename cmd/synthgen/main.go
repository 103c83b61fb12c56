// Command synthgen emits deterministic synthetic call-graph workloads
// (internal/synth) as real artifacts: a gmon.out profile (-o, either
// format version) and optionally a matching executable image (-image),
// so the unmodified gprof post-processor — or any other consumer of
// profile data — can be driven at production scale (10^5–10^6 routines)
// with a known graph shape.
//
// Usage:
//
//	synthgen -nodes 100000 -seed 7 -image a.out -o gmon.out
//	synthgen -nodes 1000000 -analyze -jobs 8 -minrate 100000
//
// -analyze runs the full in-process analysis pipeline (graph build →
// SCC → propagation → model) over the generated workload and prints the
// node/arc counts, elapsed time, and analysis rate in nodes/sec;
// -minrate turns that into an assertion, exiting nonzero below the
// floor — which is how `make scale-smoke` pins a throughput regression
// gate in CI.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/synth"
)

func main() {
	var prof obs.Pprof
	prof.RegisterFlags(flag.CommandLine)
	var (
		nodes   = flag.Int("nodes", 100000, "routine count of the synthetic graph")
		seed    = flag.Uint64("seed", 1, "generator seed (same seed, same bytes)")
		out     = flag.String("o", "", "write the profile data file here")
		format  = flag.Int("format", gmon.Version1, "gmon format version to write (1 or 2)")
		imgPath = flag.String("image", "", "write a matching executable image here")
		analyze = flag.Bool("analyze", false, "run the full analysis pipeline over the workload")
		jobs    = flag.Int("jobs", runtime.GOMAXPROCS(0), "worker-pool width for -analyze")
		minRate = flag.Float64("minrate", 0, "with -analyze: fail below this many nodes/sec")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if err := prof.Start(); err != nil {
		fail(err)
	}
	defer prof.Stop()
	if *out == "" && *imgPath == "" && !*analyze {
		fail(fmt.Errorf("nothing to do: pass -o, -image, or -analyze"))
	}

	w := synth.Generate(synth.Tier(*nodes, *seed))
	fmt.Printf("synth: %d routines, %d arc records, %d ticks (seed %d)\n",
		w.Cfg.Nodes, len(w.Prof.Arcs), w.Prof.Hist.TotalTicks(), *seed)

	if *out != "" {
		if err := gmon.WriteFileVersion(*out, w.Prof, *format); err != nil {
			fail(err)
		}
		if st, err := os.Stat(*out); err == nil {
			fmt.Printf("synth: wrote %s (v%d, %d bytes)\n", *out, *format, st.Size())
		}
	}
	if *imgPath != "" {
		if err := object.WriteImageFile(*imgPath, w.Image()); err != nil {
			fail(err)
		}
		fmt.Printf("synth: wrote %s\n", *imgPath)
	}
	if !*analyze {
		return
	}

	start := time.Now()
	res, err := core.Run(context.Background(), core.TableSource{Table: w.Table()},
		w.Prof, core.Options{Jobs: *jobs})
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)
	rate := float64(w.Cfg.Nodes) / elapsed.Seconds()
	fmt.Printf("analyze: %d nodes, %d graph arcs, %d cycles in %v (jobs %d) = %.0f nodes/sec\n",
		len(res.Model.Routines), len(res.Model.Arcs), len(res.Model.Cycles), elapsed.Round(time.Millisecond), *jobs, rate)
	if *minRate > 0 && rate < *minRate {
		fail(fmt.Errorf("analysis rate %.0f nodes/sec below floor %.0f", rate, *minRate))
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "synthgen: %v\n", err)
	os.Exit(1)
}

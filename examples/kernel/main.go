// Kernel: the retrospective's Berkeley-kernel scenario, end to end —
// profile a long-running service without stopping it, discover that a
// cycle between subsystems ruins the timing, and break it with the arc
// removal heuristic. Also demonstrates summing profiles over several
// runs (§3).
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/workloads"
)

func main() {
	im, err := workloads.Build("service", true)
	if err != nil {
		log.Fatal(err)
	}

	// "The ability to sum the data over several profiled runs, to
	// accumulate enough time in short-running methods": three runs of
	// the service, merged.
	total, _, _, err := workloads.Run(im, workloads.RunConfig{Seed: 1, TickCycles: 300, MaxCycles: 1 << 32})
	if err != nil {
		log.Fatal(err)
	}
	for seed := uint64(2); seed <= 3; seed++ {
		p, _, _, err := workloads.Run(im, workloads.RunConfig{Seed: seed, TickCycles: 300, MaxCycles: 1 << 32})
		if err != nil {
			log.Fatal(err)
		}
		if err := total.Merge(p); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("merged 3 runs: %d samples, %d arcs\n\n", total.Hist.TotalTicks(), len(total.Arcs))

	// First analysis: dispatch and retry form a cycle, so their times
	// cannot be separated — the kernel problem.
	before, err := core.Run(context.Background(), core.ImageSource{Image: im}, total, core.Options{
		Report: report.Options{Focus: []string{"dispatch"}, NoHeaders: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before cycle breaking: %d cycle(s) in the graph\n", len(before.Model.Cycles))
	if err := before.WriteCallGraph(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// "We added a heuristic to help choose arcs to remove. The
	// underlying problem is NP-complete, so we added a bound."
	after, err := core.Run(context.Background(), core.ImageSource{Image: im}, total, core.Options{
		AutoBreak:    true,
		MaxBreakArcs: 4,
		Report:       report.Options{Focus: []string{"dispatch"}, NoHeaders: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter the heuristic:")
	for i, a := range after.Suggestion.Arcs {
		fmt.Printf("  removed %s, losing only %d traversals\n", a, after.Suggestion.Counts[i])
	}
	fmt.Printf("cycles now: %d\n", len(after.Model.Cycles))
	if err := after.WriteCallGraph(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwith the cycle gone, dispatch's own cost separates from retry's.")
}

// Command figures regenerates every figure and evaluation claim of the
// paper (see DESIGN.md §4 for the index).
//
// Usage:
//
//	figures -all          run everything, print the summary table
//	figures -id F4        run one experiment and print its full detail
//	figures -list         list experiment identifiers
//	figures -md           emit the summary as a Markdown table (for
//	                      EXPERIMENTS.md)
//
// The experiments run on the production (fast) interpreter loop; the
// differential tests guarantee the reference loop would reproduce the
// same profiles bit for bit. Host-level performance is measured
// separately, by the benchmark in bench/ (bash bench/run.sh).
//
// -stats, -tracefile, and -runreport observe the analyses behind the
// experiments themselves (stage spans across every core.Run the run
// performs); all three write to stderr or named files, never stdout.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	var (
		all  = flag.Bool("all", false, "run every experiment")
		id   = flag.String("id", "", "run a single experiment by id (e.g. F4, E8)")
		list = flag.Bool("list", false, "list experiment ids")
		md   = flag.Bool("md", false, "emit the summary as Markdown")
		jobs = flag.Int("jobs", runtime.GOMAXPROCS(0),
			"worker-pool width for the analyses behind each experiment (1 = serial)")
	)
	var o obs.CLI
	o.Register(flag.CommandLine)
	flag.Parse()
	experiments.SetJobs(*jobs)
	experiments.SetTrace(o.Trace())
	// exit routes every termination through the observability outputs so
	// a failing experiment still leaves a diagnosable trace behind.
	exit := func(code int, runErr error) {
		o.Finish(runErr)
		os.Exit(code)
	}

	switch {
	case *list:
		for _, r := range experiments.All() {
			fmt.Printf("%-6s %s\n", r.ID, r.Title)
		}
	case *id != "":
		r, ok := experiments.ByID(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *id)
			exit(1, fmt.Errorf("unknown experiment %q", *id))
		}
		printOne(r)
		if !r.Pass {
			exit(1, fmt.Errorf("experiment %s failed", r.ID))
		}
	case *all || *md:
		results := experiments.All()
		if *md {
			printMarkdown(results)
		} else {
			printSummary(results)
		}
		for _, r := range results {
			if !r.Pass {
				exit(1, errors.New("one or more experiments failed"))
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err := o.Finish(nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func printOne(r experiments.Result) {
	fmt.Printf("%s — %s\n", r.ID, r.Title)
	fmt.Printf("  paper:    %s\n", r.Claim)
	fmt.Printf("  measured: %s\n", r.Measure)
	fmt.Printf("  status:   %s\n", status(r.Pass))
	if r.Detail != "" {
		fmt.Println(strings.Repeat("-", 72))
		fmt.Println(r.Detail)
	}
}

func printSummary(results []experiments.Result) {
	fmt.Printf("%-6s %-6s %s\n", "id", "status", "result")
	for _, r := range results {
		fmt.Printf("%-6s %-6s %s\n      paper: %s\n      measured: %s\n",
			r.ID, status(r.Pass), r.Title, r.Claim, r.Measure)
	}
}

func printMarkdown(results []experiments.Result) {
	fmt.Println("| id | artifact | paper | measured | status |")
	fmt.Println("|---|---|---|---|---|")
	for _, r := range results {
		fmt.Printf("| %s | %s | %s | %s | %s |\n",
			r.ID, r.Title, r.Claim, r.Measure, status(r.Pass))
	}
}

func status(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}

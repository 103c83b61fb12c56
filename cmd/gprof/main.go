// Command gprof is the call graph execution profiler's post-processor:
// it combines an executable image with one or more profile data files
// and produces the call graph profile, the flat profile, and the index
// (paper §4-§5).
//
// Usage:
//
//	gprof [flags] [a.out [gmon.out ...]]
//
// Multiple profile data files are summed, the paper's "profile of many
// executions"; -jobs sets the worker-pool width of the merge
// and of the listing's render. The analysis stages between them are
// serial, and the output is byte-identical at every width. Flags
// expose the retrospective's later features: -k removes arcs, -C runs
// the bounded cycle-breaking heuristic, -s merges the static call
// graph scanned from the executable, -m and -focus filter the output.
//
// The profile data this tool consumes is gathered by the fast-path
// execution engine (internal/vm's deadline-batched loop feeding
// internal/mon's arena arc table); the gathering cost itself is measured
// by the root package's BenchmarkOverhead and BenchmarkMcountFastPath.
//
// The profiler profiles itself: -stats prints a per-stage timing and
// counter summary to stderr, -tracefile writes a Chrome trace-event
// JSON of the run (concurrent spans laid on nesting tracks; open in
// Perfetto),
// and -runreport writes the machine-readable gprof.runreport.v1
// document. None of the three touch stdout.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/cyclebreak"
	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/report"
)

type arcList []cyclebreak.ArcID

func (a *arcList) String() string {
	var parts []string
	for _, id := range *a {
		parts = append(parts, id.String())
	}
	return strings.Join(parts, ",")
}

func (a *arcList) Set(s string) error {
	id, err := cyclebreak.ParseArcID(s)
	if err != nil {
		return err
	}
	*a = append(*a, id)
	return nil
}

func main() {
	var removeArcs arcList
	var (
		flatOnly  = flag.Bool("flat", false, "print only the flat profile")
		graphOnly = flag.Bool("graph", false, "print only the call graph profile")
		lines     = flag.Bool("lines", false, "print the per-source-line profile")
		dot       = flag.Bool("dot", false, "emit the call graph in Graphviz DOT form")
		jsonOut   = flag.Bool("json", false, "emit the analyzed profile as versioned JSON (docs/FORMATS.md)")
		folded    = flag.Bool("folded", false, "emit collapsed call stacks for flame graphs (needs v3 profile data with stacks)")
		pprofOut  = flag.String("pprof", "", "write the stacks view as a gzipped pprof protobuf to this file")
		static    = flag.Bool("s", false, "merge the static call graph from the executable")
		autoBreak = flag.Bool("C", false, "run the cycle-breaking heuristic")
		maxBreak  = flag.Int("b", 0, "bound on arcs the heuristic may remove (0 = default)")
		minPct    = flag.Float64("m", 0, "suppress entries below this %time")
		focus     = flag.String("focus", "", "comma-separated routines: show only them and their neighbors")
		exclude   = flag.String("E", "", "comma-separated routines to suppress from the listings")
		brief     = flag.Bool("brief", false, "omit explanatory headers")
		jobs      = flag.Int("jobs", runtime.GOMAXPROCS(0),
			"worker-pool width for profile merging and rendering (1 = serial)")
		sumFile = flag.String("sum", "", "write the merged profile data to this file and exit")
		format  = flag.Int("format", gmon.Version1, "profile data format version for -sum (1, 2, or 3)")
	)
	flag.Var(&removeArcs, "k", "remove arc caller/callee before analysis (repeatable)")
	var o obs.CLI
	o.Register(flag.CommandLine)
	var prof obs.Pprof
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer prof.Stop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// The trace rides the context into every pipeline stage; with no
	// observability flag it is nil and costs a pointer check per stage.
	tr := o.Trace()
	ctx = obs.NewContext(ctx, tr)
	// fail emits the partial observability outputs (summary, trace,
	// report) before exiting, so an aborted run stays diagnosable.
	fail := func(err error) {
		o.Finish(err)
		prof.Stop()
		fatal(err)
	}

	exe := "a.out"
	profiles := []string{"gmon.out"}
	if args := flag.Args(); len(args) > 0 {
		if *sumFile != "" {
			// -sum needs no executable; every operand is profile data.
			profiles = args
		} else {
			exe = args[0]
			if len(args) > 1 {
				profiles = args[1:]
			}
		}
	}
	// Profiles load before the image: -sum needs no executable at all.
	p, err := gmon.ReadFiles(ctx, profiles, *jobs)
	if err != nil {
		fail(err)
	}
	if *sumFile != "" {
		if err := gmon.WriteFileVersion(*sumFile, p, *format); err != nil {
			fail(err)
		}
		if err := o.Finish(nil); err != nil {
			fatal(err)
		}
		return
	}
	imageSpan := tr.Span("load.image")
	im, imBytes, err := object.ReadImageFileStats(exe)
	imageSpan.End()
	if err != nil {
		fail(err)
	}
	tr.Counter("object.bytes_read").Add(imBytes)
	opt := core.Options{
		Static:       *static,
		RemoveArcs:   removeArcs,
		AutoBreak:    *autoBreak,
		MaxBreakArcs: *maxBreak,
		Jobs:         *jobs,
		Report: report.Options{
			MinPercent: *minPct,
			NoHeaders:  *brief,
		},
	}
	if *focus != "" {
		opt.Report.Focus = strings.Split(*focus, ",")
	}
	if *exclude != "" {
		opt.Report.Exclude = strings.Split(*exclude, ",")
	}
	res, err := core.Run(ctx, core.ImageSource{Image: im}, p, opt)
	if err != nil {
		fail(err)
	}
	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			fail(err)
		}
		if err := res.WritePprof(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	// One buffered writer, flushed with the error checked: a full disk
	// must fail loudly, not truncate the listing silently.
	w := bufio.NewWriter(os.Stdout)
	renderSpan := tr.Span("render")
	switch {
	case *lines:
		err = report.LineProfile(w, im, p, nil)
	case *dot:
		err = report.WriteDOT(w, res.Model, opt.Report)
	case *jsonOut:
		err = res.WriteJSON(w)
	case *folded:
		err = res.WriteFolded(w)
	case *flatOnly:
		err = res.WriteFlat(w)
	case *graphOnly:
		err = res.WriteCallGraph(w)
	default:
		err = res.WriteAll(w)
	}
	if err == nil {
		err = w.Flush()
	}
	renderSpan.End()
	if err != nil {
		fail(err)
	}
	// Observability outputs go last, after stdout is complete, and only
	// to stderr or the named files — stdout stays byte-identical.
	if err := o.Finish(nil); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

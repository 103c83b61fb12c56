// Command vmrun compiles, links, and executes programs on the simulated
// machine, optionally with profiling.
//
// Usage:
//
//	vmrun [flags] file.tl [file2.tl ... file.s ...]
//	vmrun [flags] -workload name
//
// With -p, every routine is compiled with a monitoring-routine call in
// its prologue, a collector gathers the call-graph arcs and the
// program-counter histogram during execution, and the condensed profile
// is written to the -o file (default gmon.out) when the program exits —
// the workflow of the paper's §3. With -save, the linked executable is
// also written (default a.out) so the gprof and prof commands can map
// addresses back to routine names.
//
// With -stacks, the collector also records the complete call stack at
// every clock tick — the retrospective's "modern profilers" technique,
// which measures inclusive time instead of estimating it from call
// counts. Without -p the program is built uninstrumented and runs at
// full speed between samples. The profile is written to -o as version-3
// profile data (gprof -folded and gprof -pprof render it), and a
// self/inclusive table is printed to stdout after the program's own
// output.
//
// The schedule flags drive the collector from outside the program, the
// interface the retrospective added for profiling a long-running
// kernel — "turn the profiler on and off, extract the profiling data,
// and reset the data" — at simulated-cycle thresholds:
//
//	vmrun -p -workload service -enable-at 1e6 -dump-at 5e6 -disable-at 9e6
//
// At -dump-at the profile is extracted mid-run to <o>.mid while data
// keeps accumulating.
//
// -stats surfaces the tool's own internals on stderr: build/run/write
// stage timings plus the engine and collector counters — vm.cycles and
// the fast loop's deadline batches, and the mon arc table's shape
// (arena cells, last-arc cache hits, hash chain lengths) that decide
// whether MCOUNT really runs "as fast as possible" (§3). -tracefile
// writes the same run as Chrome trace-event JSON.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/gmon"
	"repro/internal/lang"
	"repro/internal/mon"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	var (
		profile   = flag.Bool("p", false, "compile with profiling prologues and write profile data at exit")
		stacks    = flag.Bool("stacks", false, "sample whole call stacks at each tick: write version-3 profile data and print a self/inclusive table")
		gmonOut   = flag.String("o", "gmon.out", "profile data output file (with -p or -stacks)")
		saveExe   = flag.String("save", "a.out", "write the linked executable here ('' to skip)")
		workload  = flag.String("workload", "", "run a built-in workload instead of source files")
		entry     = flag.String("entry", "main", "entry routine")
		tick      = flag.Int64("tick", vm.DefaultTickCycles, "cycles per profiling clock tick")
		gran      = flag.Int64("gran", 1, "histogram granularity (text words per bucket)")
		hz        = flag.Int64("hz", gmon.DefaultHz, "clock rate recorded in the profile")
		seed      = flag.Uint64("seed", 1, "seed for the program's rand() builtin")
		maxCyc    = flag.Int64("maxcycles", 1<<32, "abort after this many cycles")
		quiet     = flag.Bool("q", false, "suppress the run summary")
		trace     = flag.Bool("trace", false, "print every executed instruction to stderr (slow)")
		enableAt  = flag.Int64("enable-at", 0, "enable collection at this cycle count (0 = start enabled)")
		disableAt = flag.Int64("disable-at", 0, "disable collection at this cycle count")
		resetAt   = flag.Int64("reset-at", 0, "clear collected data at this cycle count")
		dumpAt    = flag.Int64("dump-at", 0, "extract a mid-run profile to <o>.mid at this cycle count")
	)
	var o obs.CLI
	o.Register(flag.CommandLine)
	flag.Parse()
	tr := o.Trace()
	fail := func(err error) {
		o.Finish(err)
		fatal(err)
	}
	scheduled := *enableAt > 0 || *disableAt > 0 || *resetAt > 0 || *dumpAt > 0
	if scheduled && !*profile && !*stacks {
		fail(errors.New("vmrun: -enable-at, -disable-at, -reset-at and -dump-at need -p or -stacks"))
	}

	buildSpan := tr.Span("build")
	im, err := buildImage(*workload, flag.Args(), *profile, *entry)
	buildSpan.End()
	if err != nil {
		fail(err)
	}
	if *saveExe != "" {
		saveSpan := tr.Span("save.image")
		err := object.WriteImageFile(*saveExe, im)
		saveSpan.End()
		if err != nil {
			fail(err)
		}
	}

	cfg := vm.Config{
		TickCycles: *tick,
		MaxCycles:  *maxCyc,
		RandSeed:   *seed,
		Stdout:     os.Stdout,
	}
	if *trace {
		cfg.Trace = os.Stderr
	}
	// Stack samples only fit the version-3 format; an arcs-only profile
	// keeps the historical version-1 bytes.
	version := gmon.Version1
	if *stacks {
		version = gmon.Version3
	}
	var collector *mon.Collector
	var ctl *controller
	if *profile || *stacks {
		collector = mon.New(im, mon.Config{
			Granularity:   *gran,
			Hz:            *hz,
			StartDisabled: *enableAt > 0,
			Stacks:        *stacks,
		})
		cfg.Monitor = collector
		if scheduled {
			ctl = &controller{
				inner:    collector,
				enableAt: *enableAt, disableAt: *disableAt,
				resetAt: *resetAt, dumpAt: *dumpAt,
				dumpPath: *gmonOut + ".mid",
				version:  version,
				tr:       tr,
			}
			cfg.Monitor = ctl
		}
	}
	m := vm.New(im, cfg)
	if ctl != nil {
		ctl.machine = m
	}
	if *stacks {
		collector.AttachWalker(m)
	}
	runSpan := tr.Span("run")
	res, err := m.Run()
	runSpan.End()
	recordVMStats(tr, m, res, collector, *stacks)
	if err != nil {
		fail(err)
	}
	if ctl != nil && ctl.err != nil {
		fail(ctl.err)
	}
	var snap *gmon.Profile
	if collector != nil {
		writeSpan := tr.Span("write.profile")
		snap = collector.Snapshot()
		err := gmon.WriteFileVersion(*gmonOut, snap, version)
		writeSpan.End()
		if err != nil {
			fail(err)
		}
	}
	if *stacks {
		if err := writeStackTable(obs.NewContext(context.Background(), tr), im, snap); err != nil {
			fail(err)
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "exit %d, %d cycles, %d instructions, %d ticks\n",
			res.ExitCode, res.Cycles, res.Retired, res.Ticks)
		if collector != nil {
			st := collector.Stats()
			fmt.Fprintf(os.Stderr, "profile: %d mcount calls, %d arcs, %d samples -> %s\n",
				st.McountCalls, st.Inserts, st.Ticks, *gmonOut)
			if *stacks {
				fmt.Fprintf(os.Stderr, "stacks: %d samples, %d distinct paths\n",
					st.StackSamples, st.StackInserts)
			}
		}
		if ctl != nil && ctl.dumped {
			fmt.Fprintf(os.Stderr, "mid-run extract in %s.mid\n", *gmonOut)
		}
	}
	if err := o.Finish(nil); err != nil {
		fatal(err)
	}
	os.Exit(int(res.ExitCode & 0xff))
}

// writeStackTable analyzes the collected profile and prints its stacks
// view as the self/inclusive table. The buffer is flushed explicitly so
// a short write (full disk, closed pipe) is an error, not a silent loss.
func writeStackTable(ctx context.Context, im *object.Image, snap *gmon.Profile) error {
	res, err := core.Run(ctx, core.ImageSource{Image: im}, snap, core.Options{})
	if err != nil {
		return fmt.Errorf("vmrun: analyze stacks: %w", err)
	}
	w := bufio.NewWriter(os.Stdout)
	err = report.StackTable(w, res.Model)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		return fmt.Errorf("vmrun: write stack table: %w", err)
	}
	return nil
}

// recordVMStats publishes the engine's and the collector's internal
// counters — previously test-only — as obs counters, so -stats and
// -tracefile expose whether the fast loop batches well and whether the
// mon arena's last-arc cache is actually hitting.
func recordVMStats(tr *obs.Trace, m *vm.Machine, res vm.Result, collector *mon.Collector, stacks bool) {
	if tr == nil {
		return
	}
	tr.Counter("vm.cycles").Add(res.Cycles)
	tr.Counter("vm.instructions").Add(res.Retired)
	tr.Counter("vm.ticks").Add(res.Ticks)
	tr.Counter("vm.batches").Add(m.FastBatches())
	if collector == nil {
		return
	}
	st := collector.Stats()
	tr.Counter("mon.mcount_calls").Add(st.McountCalls)
	tr.Counter("mon.arc_cache_hits").Add(st.CacheHits)
	tr.Counter("mon.probes").Add(st.Probes)
	tr.Counter("mon.inserts").Add(st.Inserts)
	tr.Counter("mon.spontaneous").Add(st.Spontaneous)
	tr.Counter("mon.ticks").Add(st.Ticks)
	tr.Counter("mon.lost_ticks").Add(st.LostTicks)
	if stacks {
		tr.Counter("mon.stack_samples").Add(st.StackSamples)
		tr.Counter("mon.stack_inserts").Add(st.StackInserts)
		tr.Counter("mon.stack_probes").Add(st.StackProbes)
	}
	ts := collector.TableStats()
	tr.Gauge("mon.arena_cells").Set(int64(ts.ArenaCells))
	tr.Gauge("mon.arena_cap").Set(int64(ts.ArenaCap))
	tr.Gauge("mon.hash_chains").Set(int64(ts.Chains))
	tr.Gauge("mon.hash_max_chain").Set(int64(ts.MaxChain))
	tr.Gauge("mon.spont_entries").Set(int64(ts.SpontEntries))
}

func buildImage(workload string, files []string, profile bool, entry string) (*object.Image, error) {
	if workload != "" {
		if len(files) > 0 {
			return nil, fmt.Errorf("vmrun: -workload and source files are mutually exclusive")
		}
		return workloads.Build(workload, profile)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("vmrun: no input files (try -workload %s)",
			strings.Join(workloads.Names(), "|"))
	}
	var objs []*object.Object
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var obj *object.Object
		switch filepath.Ext(name) {
		case ".s":
			obj, err = asm.Assemble(name, string(src))
		default:
			obj, err = lang.Compile(name, string(src), lang.Options{Profile: profile})
		}
		if err != nil {
			return nil, err
		}
		objs = append(objs, obj)
	}
	return object.Link(objs, object.LinkConfig{Entry: entry})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

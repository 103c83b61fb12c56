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
// -stats surfaces the tool's own internals on stderr: build/run/write
// stage timings plus the engine and collector counters — vm.cycles and
// the fast loop's deadline batches, and the mon arc table's shape
// (arena cells, last-arc cache hits, hash chain lengths) that decide
// whether MCOUNT really runs "as fast as possible" (§3). -tracefile
// writes the same run as Chrome trace-event JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/asm"
	"repro/internal/gmon"
	"repro/internal/lang"
	"repro/internal/mon"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	var (
		profile  = flag.Bool("p", false, "compile with profiling prologues and write profile data at exit")
		gmonOut  = flag.String("o", "gmon.out", "profile data output file (with -p)")
		saveExe  = flag.String("save", "a.out", "write the linked executable here ('' to skip)")
		workload = flag.String("workload", "", "run a built-in workload instead of source files")
		entry    = flag.String("entry", "main", "entry routine")
		tick     = flag.Int64("tick", vm.DefaultTickCycles, "cycles per profiling clock tick")
		gran     = flag.Int64("gran", 1, "histogram granularity (text words per bucket)")
		hz       = flag.Int64("hz", gmon.DefaultHz, "clock rate recorded in the profile")
		seed     = flag.Uint64("seed", 1, "seed for the program's rand() builtin")
		maxCyc   = flag.Int64("maxcycles", 1<<32, "abort after this many cycles")
		quiet    = flag.Bool("q", false, "suppress the run summary")
		trace    = flag.Bool("trace", false, "print every executed instruction to stderr (slow)")
	)
	var o obs.CLI
	o.Register(flag.CommandLine)
	flag.Parse()
	tr := o.Trace()
	fail := func(err error) {
		o.Finish(err)
		fatal(err)
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
	var collector *mon.Collector
	if *profile {
		collector = mon.New(im, mon.Config{Granularity: *gran, Hz: *hz})
		cfg.Monitor = collector
	}
	m := vm.New(im, cfg)
	runSpan := tr.Span("run")
	res, err := m.Run()
	runSpan.End()
	recordVMStats(tr, m, res, collector)
	if err != nil {
		fail(err)
	}
	if collector != nil {
		writeSpan := tr.Span("write.profile")
		snap := collector.Snapshot()
		err := gmon.WriteFile(*gmonOut, snap)
		writeSpan.End()
		if err != nil {
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
		}
	}
	if err := o.Finish(nil); err != nil {
		fatal(err)
	}
	os.Exit(int(res.ExitCode & 0xff))
}

// recordVMStats publishes the engine's and the collector's internal
// counters — previously test-only — as obs counters, so -stats and
// -tracefile expose whether the fast loop batches well and whether the
// mon arena's last-arc cache is actually hitting.
func recordVMStats(tr *obs.Trace, m *vm.Machine, res vm.Result, collector *mon.Collector) {
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

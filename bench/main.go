// Command bench is the repository benchmark. It measures what a user
// of this profiler waits for: the wall time of `gprof a.out gmon.out`
// and of summing many runs with `gprof -sum`, and the time from a
// gprofd upload until a query can see it. A traced phase then splits
// that time over the layers (gmon, object, symtab, callgraph, scc,
// propagate, model, report, serve).
//
// Run it from the repository root through its wrapper, which builds the
// harness and keeps every build output under .bench_build/:
//
//	bash bench/run.sh --workload cli-report-100k --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh compare base/*.json change/*.json
//
// bench/README.md describes the workloads, the metrics and their bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement with its unit and sample count.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
}

// gate is one correctness check.
type gate struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Err  string `json:"error,omitempty"`
}

// hostFacts are the settings that make a number interpretable; compare
// refuses to compare results whose comparable facts differ.
type hostFacts struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Jobs       int    `json:"jobs"` // -jobs given to gprof and gprofd
	Commit     string `json:"commit,omitempty"`
	Seed       uint64 `json:"seed"`
}

// comparable returns the facts two result sets must share.
func (h hostFacts) comparable() string {
	return fmt.Sprintf("gomaxprocs=%d num_cpu=%d go=%s os_arch=%s jobs=%d",
		h.GOMAXPROCS, h.NumCPU, h.GoVersion, h.OSArch, h.Jobs)
}

// result is one run's full record, written by --out and read by compare.
type result struct {
	Schema    string    `json:"schema"`
	Workload  string    `json:"workload"`
	Trace     bool      `json:"trace"`
	Seconds   float64   `json:"seconds"`
	Host      hostFacts `json:"host"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Gates     []gate    `json:"gates"`
	// Metrics holds the end-to-end metrics (and, traced, the per-layer
	// ones) the final line reports; Detail holds the workload's own
	// breakdown, which no bound applies to.
	Metrics []metric `json:"metrics"`
	Detail  []metric `json:"detail"`
}

const resultSchema = "gprof.bench.v1"

// sizes scales the workloads. defaultSizes is what the benchmark runs;
// the smoke test shrinks it.
type sizes struct {
	reportNodes  int // cli-report routines
	sumNodes     int // cli-sum routines per summed file
	sumFiles     int // cli-sum files
	visibleNodes int // gprofd-visible routines
	variants     int // distinct uploads gprofd-visible cycles through
	warmPerCycle int // warm queries after each visible upload
	scaleNodes   int // gprofd-mixed's scale-probe size (the toy corpus has none)
	// ladder is gprofd-mixed's offered rates in requests/s; refRung
	// indexes the rung its latency metrics come from.
	ladder  []float64
	refRung int
	setups  int // set-ups per run; setup_s is their median
}

var defaultSizes = sizes{
	reportNodes:  100000,
	sumNodes:     100000,
	sumFiles:     8,
	visibleNodes: 100000,
	variants:     8,
	warmPerCycle: 25,
	scaleNodes:   10000,
	ladder:       []float64{1000, 1500, 2250, 3400, 5000, 7500},
	refRung:      0,
	setups:       5,
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string // checkout root: the module the programs build from
	work     string // directory for this run's generated inputs
	bin      string // directory holding the built gprof and gprofd
	jobs     int
	sz       sizes
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain("BENCHMARK.json", os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "input seed (same seed, same inputs)")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 adds the traced per-layer phase and reports per-layer metrics")
		out      = flag.String("out", "", "also write the full result document (host facts, gates, detail) here")
	)
	flag.Parse()
	if _, ok := benchmarks[*workload]; !ok || flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: bench --workload {%s} [--seed n] [--seconds s] [--trace 0|1] [--out file]\n       bench compare base/*.json change/*.json\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	build := filepath.Join(root, ".bench_build")
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		root:     root,
		work:     filepath.Join(build, "work", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		bin:      filepath.Join(build, "bin"),
		jobs:     runtime.GOMAXPROCS(0),
		sz:       defaultSizes,
	}
	if err := buildTools(ctx, root, cfg.bin); err != nil {
		fatal(err)
	}
	res, err := run(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	printResult(os.Stdout, res)
	if *out != "" {
		if err := writeResult(*out, res); err != nil {
			fatal(err)
		}
	}
	if err := finalLine(os.Stdout, res); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// buildTools builds the programs under test from the checkout's source.
func buildTools(ctx context.Context, root, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/gprof", "./cmd/gprofd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building cmd/gprof and cmd/gprofd in %s: %w", root, err)
	}
	return nil
}

// run performs one benchmark run: set-up (several times; setup_s is the
// median), the untraced end-to-end phase, the traced phase when asked,
// then the correctness gates.
func run(ctx context.Context, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)
	w := benchmarks[cfg.workload](cfg)
	defer w.close()
	rec := &recorder{}
	var setups []float64
	for i := 0; i < cfg.sz.setups; i++ {
		if i > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		// Set-up seconds at the reference speed: scaled by the reference
		// kernel timed right after, so the host's drift between runs
		// cancels as it does in latency_p50_rel.
		took := time.Since(start)
		setups = append(setups, took.Seconds()*(refNominal/refKernel().Seconds()))
	}

	e2e := cfg.seconds
	if cfg.trace {
		e2e = cfg.seconds / 3 // the untraced reference for trace.overhead_s
	}
	if err := w.measure(ctx, e2e, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if len(rec.lat) == 0 {
		return nil, fmt.Errorf("%s: no operation completed", cfg.workload)
	}
	var layers []metric
	var ref *stagedRun
	if cfg.trace {
		in, err := w.staged(ctx)
		if err == nil {
			layers, ref, err = traced(ctx, cfg, in, cfg.seconds-e2e, median(rec.lat)/1e3)
		}
		if err != nil {
			return nil, fmt.Errorf("%s traced phase: %w", cfg.workload, err)
		}
	}
	if err := w.check(ctx, rec, ref); err != nil {
		return nil, fmt.Errorf("%s correctness check: %w", cfg.workload, err)
	}

	res := &result{
		Schema:    resultSchema,
		Workload:  cfg.workload,
		Trace:     cfg.trace,
		Seconds:   cfg.seconds.Seconds(),
		Host:      host(ctx, cfg),
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Gates:     rec.gates,
		Detail:    rec.detail,
	}
	res.Correct = res.Failed == 0
	if cfg.trace {
		res.Metrics = layers
	} else {
		// Latency in multiples of a reference operation timed beside it:
		// other tenants of the host slow whole stretches of a run by up
		// to 80%, and the ratio cancels that drift.
		res.Metrics = []metric{
			{Name: "latency_p50_rel", Unit: "x", Value: median(rec.rel), N: len(rec.lat)},
			{Name: "peak_rss_mb", Unit: "MB", Value: median(rec.rssMB), N: len(rec.rssMB)},
			{Name: "setup_s", Unit: "s", Value: median(setups), N: len(setups)},
		}
	}
	res.Detail = append(res.Detail, series("latency", rec.lat)...)
	res.Detail = append(res.Detail,
		metric{Name: "ref_p50_ms", Unit: "ms", Value: median(rec.ref), N: len(rec.ref)},
		metric{Name: "cpu_ms_per_op", Unit: "ms", Value: rec.cpuMs / float64(rec.ops), N: int(rec.ops)})
	return res, nil
}

// recorder collects one run's samples and outcomes.
type recorder struct {
	attempted, failed int64
	lat               []float64 // the workload's primary-operation latency, ms
	ref               []float64 // reference-operation times, ms
	rel               []float64 // latency ÷ the reference operation timed beside it
	cpuMs             float64   // CPU the program under test spent on ops
	ops               int64     // operations cpuMs covers
	rssMB             []float64 // peak resident set of the program under test, per process
	gates             []gate
	detail            []metric
}

// reference times the reference kernel right after an operation that
// took latency ms, and records the ratio of the two.
func (r *recorder) reference(latency float64) {
	k := ms(refKernel())
	r.ref = append(r.ref, k)
	r.rel = append(r.rel, latency/k)
}

// op counts one attempted operation.
func (r *recorder) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check records one correctness gate; a failed gate counts as a failed
// operation.
func (r *recorder) check(name string, err error) {
	g := gate{Name: name, OK: err == nil}
	if err != nil {
		g.Err = err.Error()
	}
	r.gates = append(r.gates, g)
	r.op(err == nil)
}

// latencies adds a latency series to the detail section.
func (r *recorder) latencies(name string, ms []float64) {
	r.detail = append(r.detail, series(name, ms)...)
}

// series reports a latency series by its median and the highest
// percentile with ten samples beyond it.
func series(name string, ms []float64) []metric {
	if len(ms) == 0 {
		return nil
	}
	out := []metric{{Name: name + "_p50_ms", Unit: "ms", Value: median(ms), N: len(ms)}}
	if p, v, ok := tail(ms); ok && p != 500 {
		out = append(out, metric{Name: name + "_" + tailName(p) + "_ms", Unit: "ms", Value: v, N: len(ms)})
	}
	return out
}

// note adds one detail metric; a value the phase could not measure,
// such as a cache ratio with no lookups, is left out.
func (r *recorder) note(name, unit string, v float64, n int) {
	if !math.IsNaN(v) {
		r.detail = append(r.detail, metric{Name: name, Unit: unit, Value: v, N: n})
	}
}

func host(ctx context.Context, cfg config) hostFacts {
	h := hostFacts{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Jobs:       cfg.jobs,
		Seed:       cfg.seed,
	}
	// A checkout without its own git history has no commit to report;
	// git is not asked, so it never reads a repository above the checkout.
	if _, err := os.Stat(filepath.Join(cfg.root, ".git")); err == nil {
		cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
		cmd.Dir = cfg.root
		if out, err := cmd.Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

func printResult(w io.Writer, r *result) {
	h := r.Host
	fmt.Fprintf(w, "workload %s  seed %d  trace %t  seconds %g\n", r.Workload, h.Seed, r.Trace, r.Seconds)
	fmt.Fprintf(w, "host %s  commit %s\n", h.comparable(), orNone(h.Commit))
	for _, group := range []struct {
		title string
		ms    []metric
	}{{"metrics", r.Metrics}, {"detail", r.Detail}} {
		fmt.Fprintln(w, group.title)
		for _, m := range group.ms {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
	// A gate checked once per operation prints once, with its tally and
	// first failure.
	var order []string
	passed, failed, first := map[string]int{}, map[string]int{}, map[string]string{}
	for _, g := range r.Gates {
		if passed[g.Name]+failed[g.Name] == 0 {
			order = append(order, g.Name)
		}
		if g.OK {
			passed[g.Name]++
		} else if failed[g.Name]++; first[g.Name] == "" {
			first[g.Name] = g.Err
		}
	}
	for _, name := range order {
		fmt.Fprintf(w, "gate %-44s %d/%d ok", name, passed[name], passed[name]+failed[name])
		if failed[name] > 0 {
			fmt.Fprintf(w, "  first failure: %s", first[name])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "attempted %d  failed %d\n", r.Attempted, r.Failed)
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

func writeResult(name string, r *result) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(name, append(data, '\n'), 0o644)
}

// finalLine prints the one-line summary the last line of stdout carries.
func finalLine(w io.Writer, r *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.Metrics))
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value", m.Name)
		}
		ms[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func workloadNames() []string {
	names := make([]string, 0, len(benchmarks))
	for n := range benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

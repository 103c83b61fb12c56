// Benchmarks regenerating the paper's quantitative artifacts (see
// DESIGN.md §4 for the experiment index). Each benchmark reports the
// domain metric the paper talks about — simulated cycles, overhead
// percent, probes per call — alongside Go's wall-clock numbers.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/cyclebreak"
	"repro/internal/gmon"
	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/mon"
	"repro/internal/object"
	"repro/internal/propagate"
	"repro/internal/report"
	"repro/internal/scc"
	"repro/internal/symtab"
	"repro/internal/synth"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// --- E1: profiling overhead (paper §7: 5-30%) ------------------------

func BenchmarkOverhead(b *testing.B) {
	for _, name := range workloads.Names() {
		if name == "service" || name == "unequal" {
			continue
		}
		plainIm, err := workloads.Build(name, false)
		if err != nil {
			b.Fatal(err)
		}
		profIm, err := workloads.Build(name, true)
		if err != nil {
			b.Fatal(err)
		}
		var plainCycles, profCycles int64
		b.Run(name+"/plain", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := workloads.RunPlain(plainIm, workloads.RunConfig{Seed: 9, MaxCycles: 1 << 32})
				if err != nil {
					b.Fatal(err)
				}
				plainCycles = res.Cycles
			}
			b.ReportMetric(float64(plainCycles), "simcycles")
		})
		b.Run(name+"/profiled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, res, _, err := workloads.Run(profIm, workloads.RunConfig{Seed: 9, MaxCycles: 1 << 32})
				if err != nil {
					b.Fatal(err)
				}
				profCycles = res.Cycles
			}
			b.ReportMetric(float64(profCycles), "simcycles")
			if plainCycles > 0 {
				b.ReportMetric(100*float64(profCycles-plainCycles)/float64(plainCycles), "overhead%")
			}
		})
	}
}

// --- E9: arc-table keying ablation (paper §3.1) ----------------------

func benchmarkArcHash(b *testing.B, strategy mon.Strategy) {
	im, err := workloads.Build("fanin", true)
	if err != nil {
		b.Fatal(err)
	}
	var probes, calls int64
	for i := 0; i < b.N; i++ {
		_, _, c, err := workloads.Run(im, workloads.RunConfig{Strategy: strategy, MaxCycles: 1 << 32})
		if err != nil {
			b.Fatal(err)
		}
		probes, calls = c.Stats().Probes, c.Stats().McountCalls
	}
	b.ReportMetric(float64(probes)/float64(calls), "probes/call")
}

func BenchmarkArcHashSiteKeyed(b *testing.B)   { benchmarkArcHash(b, mon.SiteKeyed) }
func BenchmarkArcHashCalleeKeyed(b *testing.B) { benchmarkArcHash(b, mon.CalleeKeyed) }

// BenchmarkMcountFastPath measures the monitoring routine itself: the
// repeated-arc fast path the paper needed "as fast as possible".
func BenchmarkMcountFastPath(b *testing.B) {
	im, err := workloads.Build("sort", true)
	if err != nil {
		b.Fatal(err)
	}
	c := mon.New(im, mon.Config{})
	site, callee := im.TextBase+10, im.TextBase+100
	c.Mcount(callee, site) // insert once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Mcount(callee, site)
	}
}

// --- F1/F2: SCC + topological numbering scaling ----------------------

func randomGraph(n int, degree float64, seed int64) *callgraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := callgraph.New()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
		g.AddNode(names[i])
		g.MustNode(names[i]).SelfTicks = float64(rng.Intn(100))
	}
	edges := int(float64(n) * degree)
	for i := 0; i < edges; i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from != to {
			g.AddArc(names[from], names[to], int64(rng.Intn(20)+1))
		}
	}
	return g
}

func BenchmarkTopoNumbering(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		g := randomGraph(n, 3, 42)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scc.Analyze(g)
			}
			b.ReportMetric(float64(len(g.Cycles)), "cycles")
		})
	}
}

// --- §4: time propagation scaling -------------------------------------

func BenchmarkPropagate(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		g := randomGraph(n, 3, 43)
		scc.Analyze(g)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				propagate.Run(g)
			}
		})
	}
}

// --- end-to-end post-processing (what `gprof a.out gmon.out` does) ---

func BenchmarkAnalyzePipeline(b *testing.B) {
	im, err := workloads.Build("sort", true)
	if err != nil {
		b.Fatal(err)
	}
	p, _, _, err := workloads.Run(im, workloads.RunConfig{TickCycles: 300, MaxCycles: 1 << 32})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(context.Background(), core.ImageSource{Image: im}, p, core.Options{Static: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F4: rendering the call graph profile ----------------------------

// BenchmarkReportCallGraph renders the call graph profile of a
// 10^4-routine synthetic program inline on one worker: about 5 MB of
// listing, enough for the gathered render's chunk batches, sorts and
// formatter to dominate.
func BenchmarkReportCallGraph(b *testing.B) {
	w := synth.Generate(synth.Tier(10000, 1))
	res, err := core.Run(context.Background(), core.TableSource{Table: w.Table()}, w.Prof, core.Options{Jobs: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := res.WriteCallGraph(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- profile model: build and JSON encode ----------------------------

// BenchmarkModelBuild times condensing an analyzed graph into the
// serializable profile model — the step core.Run added between
// propagation and rendering.
func BenchmarkModelBuild(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		g := randomGraph(n, 3, 43)
		scc.Analyze(g)
		propagate.Run(g)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				model.Build(g)
			}
		})
	}
}

// BenchmarkModelJSONEncode times serializing the model (gprof -json).
func BenchmarkModelJSONEncode(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		g := randomGraph(n, 3, 43)
		scc.Analyze(g)
		propagate.Run(g)
		m := model.Build(g)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := model.Encode(io.Discard, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5: gmon encode/decode/merge -------------------------------------

func syntheticProfile(arcs int) *gmon.Profile {
	p := &gmon.Profile{
		Hist: gmon.Histogram{Low: 0x1000, High: 0x1000 + int64(4*arcs), Step: 1,
			Counts: make([]uint32, 4*arcs)},
		Hz: 60,
	}
	for i := 0; i < arcs; i++ {
		p.Arcs = append(p.Arcs, gmon.Arc{
			FromPC: 0x1000 + int64(i), SelfPC: 0x1000 + int64(2*i), Count: int64(i%97 + 1),
		})
		p.Hist.Counts[i] = uint32(i % 13)
	}
	return p
}

func BenchmarkGmonRoundTrip(b *testing.B) {
	p := syntheticProfile(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := gmon.Write(&buf, p); err != nil {
			b.Fatal(err)
		}
		if _, err := gmon.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// workloadProfiles runs every workload once under the profiler and
// caches the collected profiles with their v1 and v2 encodings, so the
// codec benchmarks below measure real profile shapes, not synthetic
// ones.
var (
	suiteOnce sync.Once
	suiteErr  error
	suiteP    []*gmon.Profile
	suiteEnc  map[int][][]byte // format version -> per-workload encoding
)

func workloadProfiles(b *testing.B) ([]*gmon.Profile, map[int][][]byte) {
	suiteOnce.Do(func() {
		suiteEnc = map[int][][]byte{}
		for _, name := range workloads.Names() {
			im, err := workloads.Build(name, true)
			if err != nil {
				suiteErr = err
				return
			}
			p, _, _, err := workloads.Run(im, workloads.RunConfig{TickCycles: 300, MaxCycles: 1 << 32})
			if err != nil {
				suiteErr = err
				return
			}
			suiteP = append(suiteP, p)
			var buf bytes.Buffer
			if err := gmon.Write(&buf, p); err != nil {
				suiteErr = err
				return
			}
			suiteEnc[gmon.Version1] = append(suiteEnc[gmon.Version1], append([]byte(nil), buf.Bytes()...))
			buf.Reset()
			if err := gmon.WriteV2(&buf, p); err != nil {
				suiteErr = err
				return
			}
			suiteEnc[gmon.Version2] = append(suiteEnc[gmon.Version2], append([]byte(nil), buf.Bytes()...))
		}
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteP, suiteEnc
}

// BenchmarkGmonRead decodes every workload profile in both format
// versions — the hot loop of gprof startup when summing many runs.
func BenchmarkGmonRead(b *testing.B) {
	_, enc := workloadProfiles(b)
	for _, version := range []int{gmon.Version1, gmon.Version2} {
		encs := enc[version]
		var total int64
		for _, e := range encs {
			total += int64(len(e))
		}
		b.Run(fmt.Sprintf("v%d", version), func(b *testing.B) {
			b.SetBytes(total)
			var p gmon.Profile
			for i := 0; i < b.N; i++ {
				for _, e := range encs {
					if err := gmon.ReadInto(bytes.NewReader(e), &p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkGmonWrite encodes every workload profile in both format
// versions.
func BenchmarkGmonWrite(b *testing.B) {
	ps, enc := workloadProfiles(b)
	for _, version := range []int{gmon.Version1, gmon.Version2} {
		var total int64
		for _, e := range enc[version] {
			total += int64(len(e))
		}
		b.Run(fmt.Sprintf("v%d", version), func(b *testing.B) {
			b.SetBytes(total)
			for i := 0; i < b.N; i++ {
				for _, p := range ps {
					if err := gmon.WriteVersion(io.Discard, p, version); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkMergeAll sums 16 on-disk copies of a workload profile
// through the streaming merge (4 workers), in both format versions —
// the full decode+merge path behind `gprof a.out gmon.out.*`.
func BenchmarkMergeAll(b *testing.B) {
	ps, _ := workloadProfiles(b)
	p := ps[0]
	for _, version := range []int{gmon.Version1, gmon.Version2} {
		b.Run(fmt.Sprintf("v%d", version), func(b *testing.B) {
			dir := b.TempDir()
			names := make([]string, 16)
			for i := range names {
				names[i] = filepath.Join(dir, fmt.Sprintf("gmon.%d", i))
				if err := gmon.WriteFileVersion(names[i], p, version); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gmon.MergeAllStreaming(context.Background(), names, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGmonMerge(b *testing.B) {
	p := syntheticProfile(2000)
	q := syntheticProfile(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := p.Clone()
		if err := total.Merge(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: cycle-breaking heuristic --------------------------------------

func BenchmarkCycleBreak(b *testing.B) {
	// A graph with several cycles closed by low-count arcs.
	g := randomGraph(400, 4, 44)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sug := cyclebreak.Suggest(g, cyclebreak.Options{MaxArcs: 50})
		if len(sug.Arcs) == 0 {
			b.Fatal("nothing suggested on a cyclic graph")
		}
	}
}

// --- E8: stack sampling vs arc counting -------------------------------

func BenchmarkStackSampling(b *testing.B) {
	im, err := workloads.Build("unequal", false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, _, err := workloads.Run(im, workloads.RunConfig{TickCycles: 200, MaxCycles: 1 << 32, Stacks: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate benchmarks ---------------------------------------------

func BenchmarkCompile(b *testing.B) {
	src, _ := workloads.Source("parser")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lang.Compile("parser.tl", src, lang.Options{Profile: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVMExecution(b *testing.B) {
	im, err := workloads.Build("matrix", false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var retired int64
	for i := 0; i < b.N; i++ {
		res, err := vm.New(im, vm.Config{MaxCycles: 1 << 32}).Run()
		if err != nil {
			b.Fatal(err)
		}
		retired = res.Retired
	}
	b.ReportMetric(float64(retired), "instructions")
}

func BenchmarkImageIO(b *testing.B) {
	im, err := workloads.Build("sort", true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := object.WriteImage(&buf, im); err != nil {
			b.Fatal(err)
		}
		if _, err := object.ReadImage(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- histogram granularity ablation ------------------------------------

func BenchmarkGranularity(b *testing.B) {
	im, err := workloads.Build("sort", true)
	if err != nil {
		b.Fatal(err)
	}
	tab := symtab.New(im)
	// Baseline: exact attribution at one-to-one granularity (the
	// paper's "full 32-bit count for each possible program counter
	// value").
	base, _, _, err := workloads.Run(im, workloads.RunConfig{
		Granularity: 1, TickCycles: 300, MaxCycles: 1 << 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	exact, _ := tab.AttributeHist(&base.Hist)
	total := float64(base.Hist.TotalTicks())
	for _, gran := range []int64{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("words=%d", gran), func(b *testing.B) {
			var blur float64
			for i := 0; i < b.N; i++ {
				p, _, _, err := workloads.Run(im, workloads.RunConfig{
					Granularity: gran, TickCycles: 300, MaxCycles: 1 << 32,
				})
				if err != nil {
					b.Fatal(err)
				}
				// Attribution blur vs the exact baseline: half the L1
				// distance of the per-routine tick vectors, as a
				// percentage of the run. Coarse buckets straddling
				// routine boundaries smear time proportionally.
				ticks, _ := tab.AttributeHist(&p.Hist)
				var l1 float64
				for name, v := range exact {
					d := v - ticks[name]
					if d < 0 {
						d = -d
					}
					l1 += d
				}
				blur = 100 * l1 / 2 / total
			}
			b.ReportMetric(blur, "blur%")
		})
	}
}

// --- report filtering -------------------------------------------------

func BenchmarkReportFiltered(b *testing.B) {
	im, err := workloads.Build("sort", true)
	if err != nil {
		b.Fatal(err)
	}
	p, _, _, err := workloads.Run(im, workloads.RunConfig{TickCycles: 300, MaxCycles: 1 << 32})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.ImageSource{Image: im}, p, core.Options{
		Report: report.Options{Focus: []string{"partition"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := res.WriteCallGraph(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: inline expansion ---------------------------------------------

func BenchmarkInlineAblation(b *testing.B) {
	src := `
func format(d) { return (d * 100) / 7 + d % 13; }
func output(d) { return format(d) & 255; }
func main() {
	var out = 0;
	var i = 0;
	while (i < 400) {
		out = (out + output(i)) & 65535;
		i = i + 1;
	}
	return out;
}`
	for _, inline := range []bool{false, true} {
		name := "calls"
		if inline {
			name = "inlined"
		}
		b.Run(name, func(b *testing.B) {
			obj, err := lang.Compile("bench.tl", src, lang.Options{Inline: inline})
			if err != nil {
				b.Fatal(err)
			}
			im, err := object.Link([]*object.Object{obj}, object.LinkConfig{})
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := vm.New(im, vm.Config{MaxCycles: 1 << 30}).Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// --- §2: per-line presentation ------------------------------------------

func BenchmarkLineProfile(b *testing.B) {
	im, err := workloads.Build("sort", true)
	if err != nil {
		b.Fatal(err)
	}
	p, _, _, err := workloads.Run(im, workloads.RunConfig{TickCycles: 300, MaxCycles: 1 << 32})
	if err != nil {
		b.Fatal(err)
	}
	src, _ := workloads.Source("sort")
	reader := report.MapSource{"sort.tl": src}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := report.LineProfile(&buf, im, p, reader); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §3.2: sampling interval vs attribution accuracy --------------------

// BenchmarkSamplingInterval reproduces §3.2's tension: sample too often
// and the interruptions dominate; too rarely and "the distribution of
// the samples" stops representing the distribution of time. Attribution
// error is measured against the finest interval's per-routine shares.
func BenchmarkSamplingInterval(b *testing.B) {
	im, err := workloads.Build("sort", true)
	if err != nil {
		b.Fatal(err)
	}
	tab := symtab.New(im)
	shares := func(tick int64) (map[string]float64, int64) {
		p, _, _, err := workloads.Run(im, workloads.RunConfig{TickCycles: tick, MaxCycles: 1 << 32})
		if err != nil {
			b.Fatal(err)
		}
		ticks, _ := tab.AttributeHist(&p.Hist)
		total := ticks.Total()
		out := make(map[string]float64, len(ticks))
		if total > 0 {
			for name, v := range ticks {
				out[name] = v / total
			}
		}
		return out, p.Hist.TotalTicks()
	}
	exact, _ := shares(50) // ~160k samples: the reference distribution
	for _, tick := range []int64{200, 2000, 20000, 200000} {
		b.Run(fmt.Sprintf("tick=%d", tick), func(b *testing.B) {
			var errPct float64
			var samples int64
			for i := 0; i < b.N; i++ {
				got, n := shares(tick)
				samples = n
				var l1 float64
				for name, v := range exact {
					d := v - got[name]
					if d < 0 {
						d = -d
					}
					l1 += d
				}
				errPct = 100 * l1 / 2
			}
			b.ReportMetric(errPct, "err%")
			b.ReportMetric(float64(samples), "samples")
		})
	}
}

// --- parallel pipeline stages (the -jobs flag) -----------------------

// BenchmarkMergeParallel measures the tree-parallel fan-in merge of 16
// profiles at several worker-pool widths (jobs=1 is the sequential
// fold). The acceptance target is >= 1.5x at 4 workers on a
// multi-core host.
func BenchmarkMergeParallel(b *testing.B) {
	ps := make([]*gmon.Profile, 16)
	for i := range ps {
		ps[i] = syntheticProfile(20000)
	}
	for _, jobs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gmon.MergeAll(context.Background(), ps, jobs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- fast-path execution engine ----------------------------------------

// BenchmarkDispatch compares the two interpreter loops over the whole
// workload suite (plain builds, machines reused via Reset, so decoding
// is outside the timed region). The fast loop's deadline batching and
// inlined memory paths must keep it well ahead of the per-instruction
// reference loop; the differential tests pin the two to identical
// behaviour, so this is a pure dispatch-cost comparison.
func BenchmarkDispatch(b *testing.B) {
	names := workloads.Names()
	machines := make([]*vm.Machine, len(names))
	for i, name := range names {
		im, err := workloads.Build(name, false)
		if err != nil {
			b.Fatal(err)
		}
		machines[i] = vm.New(im, vm.Config{MaxCycles: 1 << 32})
	}
	for _, loop := range []string{"fast", "reference"} {
		b.Run(loop, func(b *testing.B) {
			var instr int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				instr = 0
				for _, m := range machines {
					m.Reset()
					var (
						res vm.Result
						err error
					)
					if loop == "reference" {
						res, err = m.RunReference()
					} else {
						res, err = m.Run()
					}
					if err != nil {
						b.Fatal(err)
					}
					instr += res.Retired
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(instr), "instructions")
			if instr > 0 && b.N > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(instr), "ns/instr")
			}
		})
	}
}

// --- PR9: whole-stack sampling as a first-class sample kind -----------

// BenchmarkStackCollect measures the tick-time frame walk plus intern
// on a real machine mid-run: the steady-state cost every stack-enabled
// tick pays.
func BenchmarkStackCollect(b *testing.B) {
	im, err := workloads.Build("sort", false)
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(im, vm.Config{MaxCycles: 1 << 20})
	// Run into the cycle limit on purpose: the machine halts mid-call
	// with live frames, giving the walker a realistic stack.
	_, _ = m.Run()
	col := mon.NewStackCollector(m, 0)
	pc := im.TextBase
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		col.Record(pc)
	}
	b.StopTimer()
	if col.Samples() != int64(b.N) {
		b.Fatalf("recorded %d of %d samples", col.Samples(), b.N)
	}
}

// BenchmarkGmonV3ReadWrite round-trips stack-carrying profiles through
// the v3 codec — the wire cost whole-stack sampling adds to ingest.
func BenchmarkGmonV3ReadWrite(b *testing.B) {
	im, err := workloads.Build("sort", true)
	if err != nil {
		b.Fatal(err)
	}
	p, _, _, err := workloads.Run(im, workloads.RunConfig{Seed: 5, Stacks: true})
	if err != nil {
		b.Fatal(err)
	}
	if len(p.Stacks) == 0 {
		b.Fatal("no stacks collected")
	}
	var buf bytes.Buffer
	if err := gmon.WriteVersion(&buf, p, gmon.Version3); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if err := gmon.WriteVersion(io.Discard, p, gmon.Version3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		var q gmon.Profile
		for i := 0; i < b.N; i++ {
			if err := gmon.ReadInto(bytes.NewReader(enc), &q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFoldedRender builds the Stacks view's folded rendering from
// an analyzed profile — the /v1/folded hot path after the analysis
// cache hits.
func BenchmarkFoldedRender(b *testing.B) {
	im, err := workloads.Build("sort", true)
	if err != nil {
		b.Fatal(err)
	}
	p, _, _, err := workloads.Run(im, workloads.RunConfig{Seed: 5, Stacks: true})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.ImageSource{Image: im}, p, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := report.Folded(io.Discard, res.Model); err != nil {
			b.Fatal(err)
		}
	}
}

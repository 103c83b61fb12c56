package core_test

import (
	"context"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/cputime"
	"repro/internal/cyclebreak"
	"repro/internal/gmon"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/propagate"
	"repro/internal/report"
	"repro/internal/scc"
	"repro/internal/synth"
)

// The linearity gate's bounds. A stage given 2n items may take at most
// timeBound times the CPU time, and allocate at most byteBound times
// the heap bytes, of the stage given n. Linear cost reads 2 on both.
// Anything quadratic reads 4 in time, and so does growing a result by
// a fixed batch at a time, which copies O(n^2) bytes. Time is noisy, so
// its bound is the midpoint of 2 and 4. A byte count is not: it reads
// the same on every run, so its bound sits just above the 1.35–2.17
// that the linear stages read; a part of a stage's allocation that
// does not grow with n pulls its ratio below 2.
const (
	timeBound = 3
	byteBound = 2.5
)

// stageRow is one stage of the linearity gate: at prepares the stage at
// size n and returns the call the gate times and weighs, which may be
// run any number of times.
type stageRow struct {
	name string
	n    int
	at   func(t *testing.T, n int) func() error
}

// stageRows lists every stage from profile data to listing, in
// pipeline order. The graph stages and the window fold run on the
// analysis of synth.Tier(n, 1); the listings on its model.
var stageRows = []stageRow{
	{"gmon.ReadFile", 1 << 20, func(t *testing.T, n int) func() error {
		name := filepath.Join(t.TempDir(), "gmon.out")
		if err := gmon.WriteFileVersion(name, scaleProfile(n), gmon.Version1); err != nil {
			t.Fatal(err)
		}
		return func() error { _, err := gmon.ReadFile(name); return err }
	}},
	// Four profiles, each with its call sites shifted a quarter of the
	// way past the previous one's, so every merge both adds into
	// existing keys and brings new ones. One that scans the
	// accumulator from its start for every incoming arc reads near 4.
	{"gmon.MergeAll", 1 << 15, func(t *testing.T, n int) func() error {
		ps := make([]*gmon.Profile, 4)
		for j := range ps {
			ps[j] = scaleProfile(n)
			for i := range ps[j].Arcs {
				ps[j].Arcs[i].FromPC += int64(j * n / 4)
			}
		}
		return func() error { _, err := gmon.MergeAll(context.Background(), ps, 1); return err }
	}},
	{"object.ReadImageFile", 1 << 20, func(t *testing.T, n int) func() error {
		name := filepath.Join(t.TempDir(), "a.out")
		if err := object.WriteImageFile(name, scaleImage(n)); err != nil {
			t.Fatal(err)
		}
		return func() error { _, err := object.ReadImageFile(name); return err }
	}},
	{"callgraph.BuildCtx", 50000, func(t *testing.T, n int) func() error {
		w := synth.Generate(synth.Tier(n, 1))
		tab := w.Table()
		return func() error { _, err := callgraph.BuildCtx(context.Background(), tab, w.Prof, 1); return err }
	}},
	// The build under -s and -k: a static arc for every arc and for n
	// new pairs, and n/100 pairs removed. Resolving a name by a scan
	// of the table reads near 4.
	{"callgraph.BuildWith", 50000, func(t *testing.T, n int) func() error {
		w := synth.Generate(synth.Tier(n, 1))
		tab := w.Table()
		g, err := callgraph.BuildCtx(context.Background(), tab, w.Prof, 1)
		if err != nil {
			t.Fatal(err)
		}
		name := func(v int32) string {
			if v < 0 {
				return ""
			}
			return g.Names[v]
		}
		var static []object.StaticArc
		for a := range int32(g.NumArcs()) {
			static = append(static, object.StaticArc{Caller: name(g.Caller[a]), Callee: name(g.Callee[a])})
		}
		nn := g.Len()
		for i := range n {
			static = append(static, object.StaticArc{Caller: name(int32(i % nn)), Callee: name(int32((i*7 + 3) % nn))})
		}
		var remove []cyclebreak.ArcID
		for a := 0; len(remove) < n/100; a += 97 {
			remove = append(remove, cyclebreak.ArcID{Caller: name(g.Caller[a]), Callee: name(g.Callee[a])})
		}
		return func() error {
			_, err := callgraph.BuildWith(context.Background(), tab, w.Prof, static, remove)
			return err
		}
	}},
	{"scc.Analyze", 50000, func(t *testing.T, n int) func() error {
		g := graph(t, n)
		return func() error { scc.Analyze(g); return nil }
	}},
	{"propagate.RunCtx", 50000, func(t *testing.T, n int) func() error {
		g := graph(t, n)
		scc.Analyze(g)
		return func() error { return propagate.RunCtx(context.Background(), g, 1) }
	}},
	{"model.Build", 50000, func(t *testing.T, n int) func() error {
		g := graph(t, n)
		scc.Analyze(g)
		if err := propagate.RunCtx(context.Background(), g, 1); err != nil {
			t.Fatal(err)
		}
		return func() error { model.Build(g); return nil }
	}},
	// gprofd's cold query after a fold that added no arc: the values
	// refilled on the structure of the previous analysis.
	{"core.RunFrom", 50000, func(t *testing.T, n int) func() error {
		w := synth.Generate(synth.Tier(n, 1))
		src := core.TableSource{Table: w.Table()}
		base, err := core.RunFrom(context.Background(), nil, src, w.Prof, core.Options{Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		p := w.Prof.Clone()
		for i := range p.Arcs {
			p.Arcs[i].Count += int64(i % 3)
		}
		return func() error {
			res, err := core.RunFrom(context.Background(), base, src, p, core.Options{Jobs: 1})
			if err == nil && !res.Reused() {
				t.Fatal("RunFrom rebuilt a structure it could reuse")
			}
			return err
		}
	}},
	// The full listing, each part inline on the calling goroutine.
	{"report.listing", 10000, func(t *testing.T, n int) func() error {
		m := analyze(t, synth.Generate(synth.Tier(n, 1)))
		return func() error {
			if err := report.CallGraph(io.Discard, m, report.Options{}); err != nil {
				return err
			}
			if err := report.Flat(io.Discard, m, report.Options{}); err != nil {
				return err
			}
			return report.IndexListing(io.Discard, m)
		}
	}},
	// synth names routines in address order, which the symbol table's
	// name sort finds already sorted; real programs' names do not
	// arrive in order, so the index row shuffles them across the
	// symbols.
	{"report.IndexListing", 10000, func(t *testing.T, n int) func() error {
		w := synth.Generate(synth.Tier(n, 1))
		rand.New(rand.NewSource(1)).Shuffle(len(w.Syms), func(i, j int) {
			w.Syms[i].Name, w.Syms[j].Name = w.Syms[j].Name, w.Syms[i].Name
		})
		m := analyze(t, w)
		return func() error { return report.IndexListing(io.Discard, m) }
	}},
	// gprofd's shard worker folds each upload into its window's
	// aggregate on the worker's own goroutine. The uploads are one
	// program's runs: the same call graph with other counts.
	{"gmon.Profile.Merge", 50000, func(t *testing.T, n int) func() error {
		w := synth.Generate(synth.Tier(n, 1))
		window, upload := w.Prof.Clone(), w.Prof.Clone()
		for i := range upload.Arcs {
			upload.Arcs[i].Count = upload.Arcs[i].Count%7 + 1
		}
		for i := range upload.Hist.Counts {
			upload.Hist.Counts[i] = upload.Hist.Counts[i]%5 + 1
		}
		return func() error { return window.Merge(upload) }
	}},
}

// TestStagesScaleLinearly is the linearity gate of every stage: each
// row runs its stage at n and at 2n. The time ratio is the median of
// cputime.PairRatio's pairs; the byte ratio compares one run of each
// size under cputime.Allocated, after a first run of each has built
// whatever the stage builds once.
func TestStagesScaleLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate")
	}
	for _, row := range stageRows {
		t.Run(row.name, func(t *testing.T) {
			run := func(f func() error) func() {
				return func() {
					if err := f(); err != nil {
						t.Fatal(err)
					}
				}
			}
			small, large := run(row.at(t, row.n)), run(row.at(t, 2*row.n))
			small()
			large()
			bs, bl := cputime.Allocated(small), cputime.Allocated(large)
			bytes := float64(bl) / float64(bs)
			ratio, ratios := cputime.PairRatio(small, large)
			t.Logf("%s: GOMAXPROCS %d, %d CPUs, n=%d: time pairs t(2n)/t(n) %.2f, median %.2f; bytes %d at n, %d at 2n, ratio %.3f",
				row.name, runtime.GOMAXPROCS(0), runtime.NumCPU(), row.n, ratios, ratio, bs, bl, bytes)
			if ratio > timeBound {
				t.Errorf("%s of %d items took a median %.2fx the time for %d, more than %vx", row.name, 2*row.n, ratio, row.n, timeBound)
			}
			if float64(bl) > byteBound*float64(bs) {
				t.Errorf("%s of %d items allocated %.3fx the bytes for %d, more than %vx", row.name, 2*row.n, bytes, row.n, byteBound)
			}
		})
	}
}

// scaleProfile returns a profile with n histogram buckets and n arcs.
func scaleProfile(n int) *gmon.Profile {
	p := &gmon.Profile{Hist: gmon.Histogram{Low: 0, High: int64(n), Step: 1, Counts: make([]uint32, n)}}
	p.Arcs = make([]gmon.Arc, n)
	for i := range p.Arcs {
		p.Arcs[i] = gmon.Arc{FromPC: int64(i), SelfPC: int64(i / 2), Count: int64(i%7 + 1)}
		p.Hist.Counts[i] = uint32(i % 5)
	}
	return p
}

// scaleImage returns an image of n text words split into n/16
// routines of 16 words each.
func scaleImage(n int) *object.Image {
	im := &object.Image{Text: make([]isa.Word, n)}
	for i := range im.Text {
		im.Text[i] = isa.Word(i)
	}
	for a := 0; a < n; a += 16 {
		im.Funcs = append(im.Funcs, object.Sym{Name: "f" + string(rune('a'+a%26)), Addr: int64(a), Size: 16})
	}
	return im
}

// graph builds the call graph of synth.Tier(n, 1).
func graph(t *testing.T, n int) *callgraph.Graph {
	w := synth.Generate(synth.Tier(n, 1))
	g, err := callgraph.BuildCtx(context.Background(), w.Table(), w.Prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// analyze returns the model of w's analysis.
func analyze(t *testing.T, w *synth.Workload) *model.Profile {
	res, err := core.Run(context.Background(), core.TableSource{Table: w.Table()}, w.Prof, core.Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Model
}

package report_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/propagate"
	"repro/internal/report"
	"repro/internal/scc"
	"repro/internal/synth"
)

// widths are the render widths every parallel test compares; 1 is the
// inline reference.
var widths = []int{1, 2, 3, 8}

// withProcs raises GOMAXPROCS for the test so the worker path runs on
// hosts with fewer CPUs than the widest width, since Width clamps to it.
func withProcs(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(8)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// listing renders the call graph profile, the flat profile and the
// index of m at one width, each section separately.
func listing(t *testing.T, m *model.Profile, opt report.Options) [3]string {
	t.Helper()
	var out [3]string
	for i, render := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return report.CallGraph(b, m, opt) },
		func(b *bytes.Buffer) error { return report.Flat(b, m, opt) },
		func(b *bytes.Buffer) error { return report.Index(b, m, opt) },
	} {
		var b bytes.Buffer
		if err := render(&b); err != nil {
			t.Fatal(err)
		}
		out[i] = b.String()
	}
	return out
}

// checkWidths renders m at every width and fails unless each section's
// bytes equal the inline render's. It returns the inline render.
func checkWidths(t *testing.T, m *model.Profile, opt report.Options) [3]string {
	t.Helper()
	opt.Jobs = 1
	want := listing(t, m, opt)
	for _, jobs := range widths[1:] {
		opt.Jobs = jobs
		got := listing(t, m, opt)
		for i, name := range []string{"call graph", "flat", "index"} {
			if got[i] != want[i] {
				t.Errorf("%s profile at width %d differs from width 1 (%+v)", name, jobs, opt)
			}
		}
	}
	return want
}

// TestParallelRenderByteIdentity renders the 10^4-routine synthetic
// listing at several widths, with and without headers.
func TestParallelRenderByteIdentity(t *testing.T) {
	withProcs(t)
	m := synthModel(t, 10000)
	for _, noHeaders := range []bool{false, true} {
		checkWidths(t, m, report.Options{NoHeaders: noHeaders})
	}
	// Rows dropped all through the flat profile move its running total
	// in every chunk.
	var exclude []string
	for i := 0; i < len(m.Flat); i += 7 {
		exclude = append(exclude, m.Flat[i].Name)
	}
	checkWidths(t, m, report.Options{Exclude: exclude, MinPercent: 0.001})
}

var ruleLine = strings.Repeat("-", 72)

// checkRules is an independent check on the call-graph separators: a
// rule sits between every two selected entries, and nowhere else.
func checkRules(t *testing.T, out string, opt report.Options) {
	t.Helper()
	entries, rules := 0, 0
	prevRule := true // no rule before the first entry
	for _, line := range strings.Split(out, "\n") {
		switch {
		case line == ruleLine:
			if prevRule {
				t.Errorf("misplaced rule (%+v)", opt)
				return
			}
			rules++
			prevRule = true
		case strings.HasPrefix(line, "["):
			entries++
			prevRule = false
		}
	}
	if entries > 0 && rules != entries-1 {
		t.Errorf("%d rules between %d entries (%+v)", rules, entries, opt)
	}
}

// chunkEdgeModel builds a call chain through n routines. From the
// third chunk on, every fifth routine forms a two-routine cycle with
// the next: a cycle entry then comes every six entries, which meets
// every chunk position of one parity, so some cycle entry sits at a
// chunk edge. The first two chunks hold no cycle, so excluding their
// routines leaves nothing selected there.
func chunkEdgeModel(n int) *model.Profile {
	var b callgraph.Builder
	name := func(i int) string { return fmt.Sprintf("r%03d", i) }
	b.Arc("main", name(0), 1)
	for i := 0; i+1 < n; i++ {
		b.Arc(name(i), name(i+1), int64(i%5+1))
		if i >= 2*report.EntryChunk && i%5 == 0 {
			b.Arc(name(i+1), name(i), 2)
		}
	}
	var total float64
	g := b.Graph()
	g.Hz = 1
	for i := 0; i < n; i++ {
		ticks := float64(i%7 + 1)
		g.SelfTicks[b.Node(name(i))] = ticks
		total += ticks
	}
	g.TotalTicks = total
	scc.Analyze(g)
	propagate.Run(g)
	return model.Build(g)
}

// TestParallelRenderChunkEdges covers the selections whose entries fall
// at or across chunk edges: cycle entries at an edge, and -E, focus and
// minimum-percent filters that put the first selected entry mid-chunk.
func TestParallelRenderChunkEdges(t *testing.T) {
	withProcs(t)
	m := chunkEdgeModel(6 * report.EntryChunk)
	atEdge := false
	for _, c := range m.Cycles {
		if pos := c.Index - 1; pos > 0 && (pos%report.EntryChunk == 0 || pos%report.EntryChunk == report.EntryChunk-1) {
			atEdge = true
		}
	}
	if !atEdge {
		t.Fatal("fixture has no cycle entry at a chunk edge")
	}
	byIndex := make([]string, len(m.Routines)+len(m.Cycles)+1)
	for _, r := range m.Routines {
		byIndex[r.Index] = r.Name
	}
	// The routines of the first entries, up to position p.
	before := func(p int) []string {
		var names []string
		for _, name := range byIndex[1 : p+1] {
			if name != "" {
				names = append(names, name)
			}
		}
		return names
	}
	mid := report.EntryChunk + report.EntryChunk/2
	for _, opt := range []report.Options{
		{},
		{NoHeaders: true},
		{Exclude: before(mid)},
		{Exclude: before(report.EntryChunk - 1)},
		{Focus: []string{byIndex[mid]}},
		{Focus: []string{byIndex[2*report.EntryChunk], byIndex[4*report.EntryChunk+3]}},
		{MinPercent: 5},
		{MinPercent: 20, Exclude: before(mid)},
	} {
		out := checkWidths(t, m, opt)
		checkRules(t, out[0], opt)
	}
}

// TestParallelRenderNoEntries: a selection that matches nothing reads
// the same at every width.
func TestParallelRenderNoEntries(t *testing.T) {
	withProcs(t)
	m := chunkEdgeModel(4 * report.EntryChunk)
	for _, noHeaders := range []bool{false, true} {
		opt := report.Options{Focus: []string{"no-such-routine"}, NoHeaders: noHeaders}
		out := checkWidths(t, m, opt)
		if !strings.HasSuffix(out[0], "no entries selected\n") {
			t.Errorf("empty selection rendered %q", out[0])
		}
	}
}

// errAfter accepts k bytes, then fails every write, counting the
// failed ones.
type errAfter struct{ k, failed int }

var errFull = errors.New("disk full")

func (w *errAfter) Write(p []byte) (int, error) {
	if len(p) > w.k {
		n := w.k
		w.k = 0
		w.failed++
		return n, errFull
	}
	w.k -= len(p)
	return len(p), nil
}

// TestParallelRenderWriteError: a destination that fails part way
// through makes every renderer return its error at every width; no
// write is attempted after the failed one, and no render worker
// outlives the call.
func TestParallelRenderWriteError(t *testing.T) {
	withProcs(t)
	m := synthModel(t, 10000)
	sections := map[string]func(w io.Writer, opt report.Options) error{
		"callgraph": func(w io.Writer, opt report.Options) error { return report.CallGraph(w, m, opt) },
		"flat":      func(w io.Writer, opt report.Options) error { return report.Flat(w, m, opt) },
		"index":     func(w io.Writer, opt report.Options) error { return report.Index(w, m, opt) },
	}
	base := runtime.NumGoroutine()
	for name, render := range sections {
		var full bytes.Buffer
		if err := render(&full, report.Options{}); err != nil {
			t.Fatal(err)
		}
		for _, jobs := range widths {
			for _, k := range []int{0, 100, full.Len() / 2, full.Len() - 1} {
				w := &errAfter{k: k}
				err := render(w, report.Options{Jobs: jobs})
				if !errors.Is(err, errFull) || w.failed != 1 {
					t.Errorf("%s at width %d failing after %d of %d bytes: err %v after %d failed writes",
						name, jobs, k, full.Len(), err, w.failed)
				}
			}
		}
	}
	// A worker's last act after its final chunk is to return, so wait
	// for the count to settle rather than reading it once.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after failed renders, %d before", n, base)
	}
}

// synthModel returns the model of the analysis of synth.Tier(nodes, 1).
func synthModel(t *testing.T, nodes int) *model.Profile {
	t.Helper()
	w := synth.Generate(synth.Tier(nodes, 1))
	res, err := core.Run(context.Background(), core.TableSource{Table: w.Table()}, w.Prof, core.Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.Model
}

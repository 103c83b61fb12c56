package callgraph

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/cputime"
	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/symtab"
	"repro/internal/synth"
)

// refBuild is the map-keyed construction BuildCtx replaced, kept as
// its oracle: nodes by name, histogram ticks through a name map, each
// record's endpoints found by a binary search over the whole table,
// and arcs merged through the endpoint-pair index as records arrive.
func refBuild(tab *symtab.Table, p *gmon.Profile) (*Graph, error) {
	syms := tab.Syms()
	g := New()
	g.Hz = p.ClockHz()
	for _, s := range syms {
		g.AddNode(s.Name)
	}
	ticks, lost := refAttribute(syms, &p.Hist)
	byName := map[string]float64{}
	for i, v := range ticks {
		if v != 0 {
			byName[syms[i].Name] += v
		}
	}
	for name, v := range byName {
		g.MustNode(name).SelfTicks = v
	}
	g.LostTicks = lost
	g.TotalTicks = float64(p.Hist.TotalTicks())
	for _, rec := range p.Arcs {
		ci, ok := refFind(syms, rec.SelfPC)
		if !ok {
			return nil, fmt.Errorf("callgraph: arc callee pc %#x is not in any routine", rec.SelfPC)
		}
		var from *Node
		if rec.FromPC >= 0 {
			if fi, ok := refFind(syms, rec.FromPC); ok {
				from = g.MustNode(syms[fi].Name)
			}
		}
		g.addArc(from, g.MustNode(syms[ci].Name), rec.Count)
	}
	return g, nil
}

func refFind(syms []object.Sym, pc int64) (int, bool) {
	i := sort.Search(len(syms), func(i int) bool { return syms[i].End() > pc })
	if i < len(syms) && syms[i].Addr <= pc && pc < syms[i].End() {
		return i, true
	}
	return 0, false
}

func refAttribute(syms []object.Sym, h *gmon.Histogram) ([]float64, float64) {
	out := make([]float64, len(syms))
	var lost float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.BucketRange(i)
		width := float64(hi - lo)
		if width <= 0 {
			lost += float64(n)
			continue
		}
		covered := 0.0
		j := sort.Search(len(syms), func(k int) bool { return syms[k].End() > lo })
		for ; j < len(syms) && syms[j].Addr < hi; j++ {
			olo, ohi := max(lo, syms[j].Addr), min(hi, syms[j].End())
			if ohi <= olo {
				continue
			}
			frac := float64(ohi-olo) / width
			out[j] += float64(n) * frac
			covered += frac
		}
		if covered < 1 {
			lost += float64(n) * (1 - covered)
		}
	}
	return out, lost
}

// arcDesc is an arc as the comparison sees it: caller ID (-1 when
// spontaneous), callee ID, count and merged call sites.
type arcDesc struct {
	from, to int
	count    int64
	sites    int
}

func describe(arcs []*Arc) []arcDesc {
	out := make([]arcDesc, len(arcs))
	for i, a := range arcs {
		out[i] = arcDesc{from: -1, to: a.Callee.ID, count: a.Count, sites: a.Sites}
		if a.Caller != nil {
			out[i].from = a.Caller.ID
		}
	}
	return out
}

// checkSameBuild compares BuildCtx against refBuild on one input: the
// same error, or the same nodes with bit-identical self ticks and the
// same In, Out and Spontaneous sequences.
func checkSameBuild(t *testing.T, tab *symtab.Table, p *gmon.Profile) {
	t.Helper()
	got, gotErr := Build(tab, p)
	want, wantErr := refBuild(tab, p)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, reference %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if got.Len() != want.Len() {
		t.Fatalf("%d nodes, reference %d", got.Len(), want.Len())
	}
	for i, w := range want.Nodes() {
		n := got.Nodes()[i]
		if n.Name != w.Name || n.ID != w.ID {
			t.Fatalf("node %d is %s/%d, reference %s/%d", i, n.Name, n.ID, w.Name, w.ID)
		}
		if math.Float64bits(n.SelfTicks) != math.Float64bits(w.SelfTicks) {
			t.Fatalf("%s: self ticks %v, reference %v", n.Name, n.SelfTicks, w.SelfTicks)
		}
		if g, r := describe(n.In), describe(w.In); !slices.Equal(g, r) {
			t.Fatalf("%s: In %v, reference %v", n.Name, g, r)
		}
		if g, r := describe(n.Out), describe(w.Out); !slices.Equal(g, r) {
			t.Fatalf("%s: Out %v, reference %v", n.Name, g, r)
		}
	}
	if g, r := describe(got.Spontaneous), describe(want.Spontaneous); !slices.Equal(g, r) {
		t.Fatalf("Spontaneous %v, reference %v", g, r)
	}
	if math.Float64bits(got.LostTicks) != math.Float64bits(want.LostTicks) || got.TotalTicks != want.TotalTicks || got.Hz != want.Hz {
		t.Fatalf("ticks lost %v total %v hz %d, reference %v %v %d",
			got.LostTicks, got.TotalTicks, got.Hz, want.LostTicks, want.TotalTicks, want.Hz)
	}
	if got.NumArcs() != want.NumArcs() {
		t.Fatalf("NumArcs %d, reference %d", got.NumArcs(), want.NumArcs())
	}
}

// TestBuildMatchesMapReference checks the linear construction against
// the map-keyed one it replaced, on a shuffled synthetic profile (the
// v1 file-order case) and on hand tables that exercise duplicate
// names, every kind of spontaneous record, self arcs, and one pair
// reached from several call sites.
func TestBuildMatchesMapReference(t *testing.T) {
	t.Run("synth-shuffled", func(t *testing.T) {
		w := synth.Generate(synth.Tier(20000, 1))
		p := *w.Prof
		p.Arcs = slices.Clone(p.Arcs)
		rand.New(rand.NewSource(1)).Shuffle(len(p.Arcs), func(i, j int) {
			p.Arcs[i], p.Arcs[j] = p.Arcs[j], p.Arcs[i]
		})
		checkSameBuild(t, w.Table(), &p)
		checkSameBuild(t, w.Table(), w.Prof)
	})

	// a, b and a again, a gap at 30..39, then c: the two a's collapse
	// into one node.
	tab := symtab.FromSyms([]object.Sym{
		{Name: "a", Addr: 0, Size: 10},
		{Name: "b", Addr: 10, Size: 10},
		{Name: "a", Addr: 20, Size: 10},
		{Name: "c", Addr: 40, Size: 10},
	})
	hist := func(step int64) gmon.Histogram {
		h := gmon.Histogram{Low: 0, High: 51, Step: step}
		h.Counts = make([]uint32, h.NumBuckets())
		for i := range h.Counts {
			h.Counts[i] = uint32(i*7%5 + 1)
		}
		return h
	}
	arcs := []gmon.Arc{
		{FromPC: 3, SelfPC: 10, Count: 2},                  // a -> b, site 3
		{FromPC: gmon.SpontaneousPC, SelfPC: 0, Count: 1},  // spontaneous -> a
		{FromPC: 12, SelfPC: 12, Count: 4},                 // b -> b (self)
		{FromPC: 22, SelfPC: 10, Count: 5},                 // second a -> b
		{FromPC: 35, SelfPC: 40, Count: 6},                 // gap -> c
		{FromPC: 5, SelfPC: 10, Count: 7},                  // a -> b, site 5
		{FromPC: 1000, SelfPC: 41, Count: 8},               // past text -> c
		{FromPC: 41, SelfPC: 25, Count: 9},                 // c -> second a
		{FromPC: 3, SelfPC: 10, Count: 1},                  // a -> b, site 3 again
		{FromPC: 21, SelfPC: 2, Count: 3},                  // a -> a across copies
		{FromPC: gmon.SpontaneousPC, SelfPC: 43, Count: 2}, // spontaneous -> c
		{FromPC: 44, SelfPC: 10, Count: 1},                 // c -> b
		{FromPC: -5, SelfPC: 10, Count: 1},                 // negative call site
		{FromPC: 13, SelfPC: 41, Count: 1},                 // b -> c
		{FromPC: 4, SelfPC: 10, Count: math.MaxInt32 + 1},  // a -> b, site 4
		{FromPC: gmon.SpontaneousPC, SelfPC: 20, Count: 1}, // spontaneous -> second a
		{FromPC: 49, SelfPC: 49, Count: 2},                 // c -> c (self)
		{FromPC: 11, SelfPC: 11, Count: 1},                 // b -> b again
		{FromPC: 36, SelfPC: 10, Count: 1},                 // gap -> b
		{FromPC: 26, SelfPC: 10, Count: 1},                 // second a -> b again
		{FromPC: gmon.SpontaneousPC, SelfPC: 10, Count: 1}, // spontaneous -> b
		{FromPC: gmon.SpontaneousPC, SelfPC: 0, Count: 1},  // spontaneous -> a again
		{FromPC: 1 << 40, SelfPC: 10, Count: 1},            // far past text -> b
		{FromPC: 7, SelfPC: 40, Count: 1},                  // a -> c
		{FromPC: 19, SelfPC: 0, Count: 1},                  // b -> a
		{FromPC: 48, SelfPC: 15, Count: 1},                 // c -> b
		{FromPC: 9, SelfPC: 10, Count: 1},                  // a -> b, site 9
		{FromPC: gmon.SpontaneousPC, SelfPC: 49, Count: 1}, // spontaneous -> c again
		{FromPC: 29, SelfPC: 29, Count: 1},                 // second a -> itself
		{FromPC: 0, SelfPC: 20, Count: 1},                  // a -> second a
		{FromPC: 38, SelfPC: 0, Count: 1},                  // gap -> a
		{FromPC: 50, SelfPC: 10, Count: 1},                 // past text -> b
	}
	for _, step := range []int64{1, 3, 7} {
		for _, order := range []string{"file", "reversed", "sorted"} {
			t.Run(fmt.Sprintf("dup-names/step%d/%s", step, order), func(t *testing.T) {
				p := &gmon.Profile{Hist: hist(step), Hz: 100, Arcs: slices.Clone(arcs)}
				switch order {
				case "reversed":
					slices.Reverse(p.Arcs)
				case "sorted":
					slices.SortFunc(p.Arcs, func(x, y gmon.Arc) int {
						return cmp.Or(cmp.Compare(x.FromPC, y.FromPC), cmp.Compare(x.SelfPC, y.SelfPC))
					})
				}
				checkSameBuild(t, tab, p)
			})
		}
	}
	t.Run("unknown-callee", func(t *testing.T) {
		p := &gmon.Profile{Hist: hist(1), Arcs: append(slices.Clone(arcs[:5]), gmon.Arc{FromPC: 3, SelfPC: 33, Count: 1})}
		checkSameBuild(t, tab, p)
		if _, err := Build(tab, p); err == nil {
			t.Error("callee in a gap accepted")
		}
	})
	t.Run("no-arcs", func(t *testing.T) {
		checkSameBuild(t, tab, &gmon.Profile{Hist: hist(2)})
	})
}

// FuzzBuild checks the linear construction against the map-keyed
// reference on arbitrary small tables (duplicate names, gaps) and
// arbitrary arc records, spontaneous, out-of-text and unknown-callee
// ones included.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 3, 1, 1, 2, 0, 3, 5, 1, 2, 9, 9, 9, 12, 4, 7, 0, 4, 2, 12, 12, 3, 30, 5, 1})
	f.Add([]byte{9, 1, 7, 2, 7, 3, 7, 1, 7, 2, 7, 0, 7, 1, 7, 2, 7, 3, 7, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
		20, 24, 1, 20, 24, 2, 0, 30, 3, 50, 40, 1, 20, 24, 5, 255, 10, 1, 7, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, p := fuzzInput(data)
		checkSameBuild(t, tab, p)
	})
}

// fuzzInput decodes a small validated symbol table, a histogram over
// it and a list of arc records from data; bytes past the end read as 0.
func fuzzInput(data []byte) (*symtab.Table, *gmon.Profile) {
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(b)
	}
	var syms []object.Sym
	addr := next() % 8
	for n := 1 + next()%12; n > 0; n-- {
		b := next()
		size := 1 + b%8
		syms = append(syms, object.Sym{Name: string(rune('a' + b/8%5)), Addr: addr, Size: size})
		addr += size + next()%3
	}
	step := 1 + next()%4
	low := next() % 6
	h := gmon.Histogram{Low: low, High: low + step*(1+next()%24), Step: step}
	h.Counts = make([]uint32, h.NumBuckets())
	for i := range h.Counts {
		h.Counts[i] = uint32(next())
	}
	p := &gmon.Profile{Hist: h, Hz: 1 + next()}
	for len(data) > 0 {
		from, self, count := next()-8, next()-2, next()
		if from == -8 {
			from = 1 << 40
		}
		p.Arcs = append(p.Arcs, gmon.Arc{FromPC: from, SelfPC: self, Count: count})
	}
	return symtab.FromSyms(syms), p
}

// TestBuildScalesLinearly is the graph layer's scaling gate: building
// the call graph of a synthetic program with 2n routines must cost at
// most 3x that of n routines. Linear cost reads 2x; anything quadratic
// reads 4x. The builds are timed in pairs by cputime.PairRatio, and
// the gate reads the median pair's ratio.
func TestBuildScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate")
	}
	const n = 50000
	build := func(nodes int) func() {
		w := synth.Generate(synth.Tier(nodes, 1))
		tab, p := w.Table(), w.Prof
		return func() {
			if _, err := BuildCtx(context.Background(), tab, p, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	ratio, ratios := cputime.PairRatio(build(n), build(2*n))
	t.Logf("build: n=%d, pair ratios t(2n)/t(n) %.2f, median %.2f", n, ratios, ratio)
	if ratio > 3 {
		t.Errorf("building %d routines took a median %.2fx the time for %d, more than 3x", 2*n, ratio, n)
	}
}

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

	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/symtab"
	"repro/internal/synth"
)

// build is BuildCtx without a context or width.
func build(tab *symtab.Table, p *gmon.Profile) (*Graph, error) {
	return BuildCtx(context.Background(), tab, p, 1)
}

// refGraph is the reference's view of a graph: node columns, the arcs
// in listing order, and each node's in- and out-arcs.
type refGraph struct {
	names            []string
	self             []float64
	arcs             []arcDesc // listing order
	in, out          [][]arcDesc
	spont            []arcDesc
	calls, selfCalls []int64
	lost, total      float64
	hz               int64
	removed          int
}

// refBuild is the map-keyed construction BuildWith replaced, kept as
// its oracle and sharing no code with it: nodes by name in symbol
// order, histogram ticks summed per name, each record's endpoints
// found by a binary search over the whole table, records then static
// arcs merged through an endpoint-pair map in first-record order, the
// removal set dropped by pair, and the listing order a stable sort of
// the first-record order by callee.
func refBuild(tab *symtab.Table, p *gmon.Profile, static []object.StaticArc, remove []ArcID) (*refGraph, error) {
	syms := tab.Syms()
	node := map[string]int32{}
	g := &refGraph{hz: p.ClockHz(), total: float64(p.Hist.TotalTicks())}
	for _, s := range syms {
		if _, ok := node[s.Name]; !ok {
			node[s.Name] = int32(len(g.names))
			g.names = append(g.names, s.Name)
		}
	}
	n := len(g.names)
	g.self = make([]float64, n)
	ticks, lost := refAttribute(syms, &p.Hist)
	for i, v := range ticks {
		if v != 0 {
			g.self[node[syms[i].Name]] += v
		}
	}
	g.lost = lost
	type pair struct{ from, to int32 }
	at := map[pair]int{}
	var first []arcDesc // first-record order
	add := func(from, to int32, count int64, static bool) {
		if i, ok := at[pair{from, to}]; ok {
			if !static {
				first[i].count += count
				first[i].sites++
			}
			return
		}
		at[pair{from, to}] = len(first)
		first = append(first, arcDesc{from: from, to: to, count: count, sites: 1, static: static})
	}
	for _, rec := range p.Arcs {
		ci, ok := refFind(syms, rec.SelfPC)
		if !ok {
			return nil, fmt.Errorf("callgraph: arc callee pc %#x is not in any routine", rec.SelfPC)
		}
		from := int32(-1)
		if rec.FromPC >= 0 {
			if fi, ok := refFind(syms, rec.FromPC); ok {
				from = node[syms[fi].Name]
			}
		}
		add(from, node[syms[ci].Name], rec.Count, false)
	}
	for _, sa := range static {
		to, ok := node[sa.Callee]
		from := int32(-1)
		if ok && sa.Caller != "" {
			from, ok = node[sa.Caller]
		}
		if !ok {
			return nil, fmt.Errorf("callgraph: static arc %s/%s names a routine not in the symbol table", sa.Caller, sa.Callee)
		}
		add(from, to, 0, true)
	}
	gone := make([]bool, len(first))
	for _, id := range remove {
		from, okf := node[id.Caller]
		to, okt := node[id.Callee]
		if i, ok := at[pair{from, to}]; id.Caller != "" && okf && okt && ok && !gone[i] {
			gone[i] = true
			g.removed++
		}
	}
	var kept []arcDesc
	for i, a := range first {
		if !gone[i] {
			kept = append(kept, a)
		}
	}
	g.arcs = slices.Clone(kept)
	slices.SortStableFunc(g.arcs, func(x, y arcDesc) int { return cmp.Compare(x.to, y.to) })
	g.in, g.out = make([][]arcDesc, n), make([][]arcDesc, n)
	g.calls, g.selfCalls = make([]int64, n), make([]int64, n)
	for _, a := range g.arcs {
		if a.from == a.to {
			g.selfCalls[a.to] += a.count
			continue
		}
		g.calls[a.to] += a.count
		g.in[a.to] = append(g.in[a.to], a)
	}
	for _, a := range kept {
		switch {
		case a.from < 0:
			g.spont = append(g.spont, a)
		case a.from != a.to:
			g.out[a.from] = append(g.out[a.from], a)
		}
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

// arcDesc is an arc as the comparison sees it: caller (-1 when
// spontaneous), callee, count, merged call sites and the static mark.
type arcDesc struct {
	from, to int32
	count    int64
	sites    int32
	static   bool
}

func describe(g *Graph, arcs []int32) []arcDesc {
	out := make([]arcDesc, len(arcs))
	for i, a := range arcs {
		out[i] = arcDesc{from: g.Caller[a], to: g.Callee[a], count: g.Count[a], sites: g.Sites[a], static: g.Static[a]}
	}
	return out
}

// checkSameBuild compares BuildWith against refBuild on one input: the
// same error, or the same nodes with bit-identical self ticks and call
// totals, the same in-list, out-list and Spontaneous sequences, the
// same arc columns in listing order, and the same removal count.
func checkSameBuild(t *testing.T, tab *symtab.Table, p *gmon.Profile, static []object.StaticArc, remove []ArcID) {
	t.Helper()
	got, gotErr := BuildWith(context.Background(), tab, p, static, remove)
	want, wantErr := refBuild(tab, p, static, remove)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, reference %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if got.Len() != len(want.names) {
		t.Fatalf("%d nodes, reference %d", got.Len(), len(want.names))
	}
	for v := range int32(got.Len()) {
		name := want.names[v]
		if got.Names[v] != name {
			t.Fatalf("node %d is %s, reference %s", v, got.Names[v], name)
		}
		if math.Float64bits(got.SelfTicks[v]) != math.Float64bits(want.self[v]) {
			t.Fatalf("%s: self ticks %v, reference %v", name, got.SelfTicks[v], want.self[v])
		}
		if g := describe(got, got.In(v)); !slices.Equal(g, want.in[v]) {
			t.Fatalf("%s: In %v, reference %v", name, g, want.in[v])
		}
		if g := describe(got, got.Out(v)); !slices.Equal(g, want.out[v]) {
			t.Fatalf("%s: Out %v, reference %v", name, g, want.out[v])
		}
		if got.Calls(v) != want.calls[v] || got.SelfCalls(v) != want.selfCalls[v] {
			t.Fatalf("%s: calls %d+%d, reference %d+%d", name, got.Calls(v), got.SelfCalls(v), want.calls[v], want.selfCalls[v])
		}
	}
	if g := describe(got, got.Spontaneous()); !slices.Equal(g, want.spont) {
		t.Fatalf("Spontaneous %v, reference %v", g, want.spont)
	}
	all := make([]int32, got.NumArcs())
	for a := range all {
		all[a] = int32(a)
	}
	if g := describe(got, all); !slices.Equal(g, want.arcs) {
		t.Fatalf("arcs %v, reference %v", g, want.arcs)
	}
	if math.Float64bits(got.LostTicks) != math.Float64bits(want.lost) || got.TotalTicks != want.total || got.Hz != want.hz {
		t.Fatalf("ticks lost %v total %v hz %d, reference %v %v %d",
			got.LostTicks, got.TotalTicks, got.Hz, want.lost, want.total, want.hz)
	}
	if got.Removed != want.removed {
		t.Fatalf("Removed %d, reference %d", got.Removed, want.removed)
	}
}

// staticAndRemovals draws a static call graph and a removal set for a
// graph g built from the same table: static arcs that repeat g's arcs,
// repeat each other and add new pairs, and removals of dynamic arcs,
// of a static-only pair, of a pair named twice, of a spontaneous pair
// and of pairs with no arc.
func staticAndRemovals(g *Graph, rng *rand.Rand) ([]object.StaticArc, []ArcID) {
	name := func(v int32) string {
		if v < 0 {
			return ""
		}
		return g.Names[v]
	}
	var static []object.StaticArc
	var remove []ArcID
	n := int32(g.Len())
	for a := range int32(g.NumArcs()) {
		id := ArcID{Caller: name(g.Caller[a]), Callee: name(g.Callee[a])}
		switch rng.Intn(8) {
		case 0:
			static = append(static, object.StaticArc{Caller: id.Caller, Callee: id.Callee})
		case 1:
			remove = append(remove, id)
		}
	}
	for range 1 + n/4 {
		sa := object.StaticArc{Caller: name(rng.Int31n(n)), Callee: name(rng.Int31n(n))}
		static = append(static, sa, sa)
		switch rng.Intn(4) {
		case 0:
			remove = append(remove, ArcID{Caller: sa.Caller, Callee: sa.Callee})
		case 1:
			remove = append(remove, ArcID{Caller: name(rng.Int31n(n)), Callee: name(rng.Int31n(n))})
		}
	}
	remove = append(remove, ArcID{Callee: name(rng.Int31n(n))}, ArcID{Caller: "nosuch", Callee: name(0)})
	if len(remove) > 0 {
		remove = append(remove, remove[0])
	}
	return static, remove
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
		checkSameBuild(t, w.Table(), &p, nil, nil)
		checkSameBuild(t, w.Table(), w.Prof, nil, nil)
	})
	t.Run("synth-static-remove", func(t *testing.T) {
		w := synth.Generate(synth.Tier(20000, 1))
		g, err := build(w.Table(), w.Prof)
		if err != nil {
			t.Fatal(err)
		}
		static, remove := staticAndRemovals(g, rand.New(rand.NewSource(2)))
		checkSameBuild(t, w.Table(), w.Prof, static, remove)
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
				checkSameBuild(t, tab, p, nil, nil)
				g, err := build(tab, p)
				if err != nil {
					t.Fatal(err)
				}
				static, remove := staticAndRemovals(g, rand.New(rand.NewSource(step)))
				checkSameBuild(t, tab, p, static, remove)
			})
		}
	}
	t.Run("unknown-callee", func(t *testing.T) {
		p := &gmon.Profile{Hist: hist(1), Arcs: append(slices.Clone(arcs[:5]), gmon.Arc{FromPC: 3, SelfPC: 33, Count: 1})}
		checkSameBuild(t, tab, p, nil, nil)
		if _, err := build(tab, p); err == nil {
			t.Error("callee in a gap accepted")
		}
	})
	t.Run("unknown-static", func(t *testing.T) {
		p := &gmon.Profile{Hist: hist(1), Arcs: slices.Clone(arcs[:5])}
		static := []object.StaticArc{{Caller: "a", Callee: "c"}, {Caller: "ghost", Callee: "b"}}
		checkSameBuild(t, tab, p, static, nil)
		if _, err := BuildWith(context.Background(), tab, p, static, nil); err == nil {
			t.Error("static arc from a routine the table lacks accepted")
		}
	})
	t.Run("no-arcs", func(t *testing.T) {
		checkSameBuild(t, tab, &gmon.Profile{Hist: hist(2)}, nil, nil)
		checkSameBuild(t, tab, &gmon.Profile{Hist: hist(2)}, []object.StaticArc{{Caller: "c", Callee: "a"}},
			[]ArcID{{Caller: "a", Callee: "b"}})
	})
}

// FuzzBuild checks the linear construction against the map-keyed
// reference on arbitrary small tables (duplicate names, gaps),
// arbitrary arc records, spontaneous, out-of-text and unknown-callee
// ones included, and arbitrary static arcs and removal sets.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 3, 1, 1, 2, 0, 3, 5, 1, 2, 9, 9, 9, 12, 4, 7, 0, 4, 2, 12, 12, 3, 30, 5, 1})
	f.Add([]byte{9, 1, 7, 2, 7, 3, 7, 1, 7, 2, 7, 0, 7, 1, 7, 2, 7, 3, 7, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
		20, 24, 1, 20, 24, 2, 0, 30, 3, 50, 40, 1, 20, 24, 5, 255, 10, 1, 7, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, p, static, remove := fuzzInput(data)
		checkSameBuild(t, tab, p, static, remove)
	})
}

// fuzzInput decodes a small validated symbol table, a histogram over
// it, static arcs between its routines, a removal set over its names
// and others, and a list of arc records from data; bytes past the end
// read as 0.
func fuzzInput(data []byte) (*symtab.Table, *gmon.Profile, []object.StaticArc, []ArcID) {
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
	// Names a..e; the empty name for 5 (spontaneous) and f for 6 (no
	// routine).
	name := func(b int64) string {
		switch b %= 7; b {
		case 5:
			return ""
		case 6:
			return "f"
		default:
			return string(rune('a' + b))
		}
	}
	var static []object.StaticArc
	for n := next() % 4; n > 0; n-- {
		caller, callee := syms[next()%int64(len(syms))].Name, syms[next()%int64(len(syms))].Name
		if next()%4 == 0 {
			caller = ""
		}
		static = append(static, object.StaticArc{Caller: caller, Callee: callee})
	}
	var remove []ArcID
	for n := next() % 4; n > 0; n-- {
		remove = append(remove, ArcID{Caller: name(next()), Callee: name(next())})
	}
	for len(data) > 0 {
		from, self, count := next()-8, next()-2, next()
		if from == -8 {
			from = 1 << 40
		}
		p.Arcs = append(p.Arcs, gmon.Arc{FromPC: from, SelfPC: self, Count: count})
	}
	return symtab.FromSyms(syms), p, static, remove
}

package model_test

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/model"
	"repro/internal/propagate"
	"repro/internal/report"
	"repro/internal/scc"
	"repro/internal/synth"
)

// node returns the named node's number in a hand-built graph, or
// panics.
func node(g *callgraph.Graph, name string) int32 {
	v := slices.Index(g.Names, name)
	if v < 0 {
		panic("no node " + name)
	}
	return int32(v)
}

// stableReference numbers the listing and orders the flat profile of
// an analyzed graph with the stable sorts the listing was first
// written with: units by decreasing total time then name, each cycle's
// members by decreasing self time, and flat rows by decreasing self
// time, then calls, then name. It returns each node's index by ID,
// each cycle's index in discovery order, the flat row names and the
// never-called names.
func stableReference(g *callgraph.Graph) (nodeIdx, cycleIdx []int, flat, never []string) {
	type unit struct {
		node  int32 // -1 for a cycle
		cycle int
		total float64
		name  string
	}
	var units []unit
	for v := range int32(g.Len()) {
		if g.CycleNum[v] == 0 {
			units = append(units, unit{node: v, total: g.SelfTicks[v] + g.ChildTicks[v], name: g.Names[v]})
		}
	}
	for i := range g.Cycles {
		c := &g.Cycles[i]
		units = append(units, unit{node: -1, cycle: i, total: c.TotalTicks(g), name: fmt.Sprintf("<cycle %d as a whole>", c.Number)})
	}
	slices.SortStableFunc(units, func(a, b unit) int {
		if a.total != b.total {
			if a.total > b.total {
				return -1
			}
			return 1
		}
		return strings.Compare(a.name, b.name)
	})
	nodeIdx = make([]int, g.Len())
	cycleIdx = make([]int, len(g.Cycles))
	idx := 1
	for _, u := range units {
		if u.node >= 0 {
			nodeIdx[u.node] = idx
			idx++
			continue
		}
		cycleIdx[u.cycle] = idx
		idx++
		members := slices.Clone(g.Cycles[u.cycle].Members)
		slices.SortStableFunc(members, func(a, b int32) int {
			switch {
			case g.SelfTicks[a] > g.SelfTicks[b]:
				return -1
			case g.SelfTicks[a] < g.SelfTicks[b]:
				return 1
			}
			return 0
		})
		for _, m := range members {
			nodeIdx[m] = idx
			idx++
		}
	}

	type row struct {
		name  string
		self  float64
		calls int64
	}
	var rows []row
	for v := range int32(g.Len()) {
		calls := g.Calls(v) + g.SelfCalls(v)
		if calls == 0 && g.SelfTicks[v] == 0 {
			never = append(never, g.Names[v])
			continue
		}
		rows = append(rows, row{g.Names[v], g.SelfTicks[v], calls})
	}
	slices.SortStableFunc(rows, func(a, b row) int {
		if a.self != b.self {
			if a.self > b.self {
				return -1
			}
			return 1
		}
		if a.calls != b.calls {
			if a.calls > b.calls {
				return -1
			}
			return 1
		}
		return strings.Compare(a.name, b.name)
	})
	for _, r := range rows {
		flat = append(flat, r.name)
	}
	slices.Sort(never)
	return nodeIdx, cycleIdx, flat, never
}

// referenceIndex renders the index with the sort report.Index used
// before it walked the name order: every label, with an 8-byte prefix
// key, sorted by label and then entry index.
func referenceIndex(m *model.Profile) string {
	type item struct {
		prefix uint64
		label  string
		idx    int32
	}
	var items []item
	add := func(label string, idx int) {
		var p [8]byte
		copy(p[:], label)
		items = append(items, item{binary.BigEndian.Uint64(p[:]), label, int32(idx)})
	}
	for i := range m.Routines {
		switch r := &m.Routines[i]; {
		case r.Index <= 0:
		case r.Cycle != 0:
			add(r.Name+" <cycle"+strconv.Itoa(r.Cycle)+">", r.Index)
		default:
			add(r.Name, r.Index)
		}
	}
	for i := range m.Cycles {
		if c := &m.Cycles[i]; c.Index > 0 {
			add("<cycle "+strconv.Itoa(c.Number)+">", c.Index)
		}
	}
	slices.SortFunc(items, func(a, b item) int {
		if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
			return c
		}
		if c := strings.Compare(a.label, b.label); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	var b strings.Builder
	b.WriteString("index by function name:\n\n")
	for _, it := range items {
		fmt.Fprintf(&b, "  [%d] %s\n", it.idx, it.label)
	}
	return b.String()
}

// checkOrder fails unless the profile Build makes of g numbers and
// orders every entry as the stable reference does, and lists the
// index as the reference index sort does.
func checkOrder(t *testing.T, name string, g *callgraph.Graph) *model.Profile {
	t.Helper()
	m := model.Build(g)
	nodeIdx, cycleIdx, flat, never := stableReference(g)
	for i := range m.Routines {
		if got, want := m.Routines[i].Index, nodeIdx[i]; got != want {
			t.Errorf("%s: routine %q index %d, stable reference %d", name, m.Routines[i].Name, got, want)
		}
	}
	for i := range m.Cycles {
		if got, want := m.Cycles[i].Index, cycleIdx[i]; got != want {
			t.Errorf("%s: cycle %d index %d, stable reference %d", name, m.Cycles[i].Number, got, want)
		}
	}
	gotFlat := make([]string, len(m.Flat))
	for i := range m.Flat {
		gotFlat[i] = m.Flat[i].Name
	}
	if !slices.Equal(gotFlat, flat) {
		t.Errorf("%s: flat rows differ from the stable reference:\n got %q\nwant %q", name, gotFlat, flat)
	}
	if !slices.Equal(m.NeverCalled, never) {
		t.Errorf("%s: never-called %q, stable reference %q", name, m.NeverCalled, never)
	}
	var buf bytes.Buffer
	if err := report.Index(&buf, m, report.Options{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), referenceIndex(m); got != want {
		t.Errorf("%s: index differs from the reference sort:\n got %q\nwant %q", name, got[:min(len(got), 600)], want[:min(len(want), 600)])
	}
	return m
}

// shuffleNames permutes the routine names across w's symbols, keeping
// every address. synth names routines in address order, which hands
// every name sort an input it has already sorted; real programs do not
// arrive in name order.
func shuffleNames(w *synth.Workload, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(w.Syms), func(i, j int) { w.Syms[i].Name, w.Syms[j].Name = w.Syms[j].Name, w.Syms[i].Name })
}

// stages builds w's call graph, finds its cycles and propagates its
// time: the stage functions core.Run and the benchmark call before
// model.Build.
func stages(t testing.TB, w *synth.Workload) *callgraph.Graph {
	ctx := context.Background()
	g, err := callgraph.BuildCtx(ctx, w.Table(), w.Prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	scc.Analyze(g)
	if err := propagate.RunCtx(ctx, g, 1); err != nil {
		t.Fatal(err)
	}
	return g
}

// analyzed finds the cycles of g and propagates its time.
func analyzed(g *callgraph.Graph) *callgraph.Graph {
	scc.Analyze(g)
	propagate.Run(g)
	return g
}

// TestListingOrderMatchesStableReference checks that the listing
// indices, the flat profile order, the never-called list and the
// index, which Build and Index derive from the symbol table's name
// order by integer sorts, equal those of the historic stable sorts:
// on synthetic programs with their names in address order and
// shuffled, and on graphs built to tie at every sort key.
func TestListingOrderMatchesStableReference(t *testing.T) {
	for _, n := range []int{200, 3000, 20000, 100000} {
		for _, shuffled := range []bool{false, true} {
			w := synth.Generate(synth.Tier(n, 7))
			if shuffled {
				shuffleNames(w, int64(n))
			}
			checkOrder(t, fmt.Sprintf("synth %d shuffled=%v", n, shuffled), stages(t, w))
		}
	}

	// Equal total ticks: four leaves called once each with the same
	// self time, created out of name order.
	var b callgraph.Builder
	for _, name := range []string{"d", "b", "c", "a"} {
		b.Arc("main", name, 1)
	}
	g := b.Graph()
	g.Hz = 1
	for _, name := range []string{"d", "b", "c", "a"} {
		g.SelfTicks[node(g, name)] = 2
	}
	g.TotalTicks = 8
	checkOrder(t, "equal totals", analyzed(g))

	// Equal self ticks and calls, different descendant time: the flat
	// profile ties on both of its numeric keys.
	b = callgraph.Builder{}
	b.Arc("main", "y", 3)
	b.Arc("main", "x", 3)
	b.Arc("y", "leaf", 1)
	b.Node("never2")
	b.Node("never1")
	g = b.Graph()
	g.Hz = 1
	g.SelfTicks[node(g, "x")] = 1
	g.SelfTicks[node(g, "y")] = 1
	g.SelfTicks[node(g, "leaf")] = 4
	g.TotalTicks = 6
	checkOrder(t, "equal self and calls", analyzed(g))

	// Cycles with equal totals and equal member self times, and for
	// each cycle a routine named like its entry with the same total:
	// only the position tells such a routine from its cycle. Twenty
	// of each make the sort partition rather than insert.
	const cycles = 20
	b = callgraph.Builder{}
	self := map[int32]float64{}
	for k := 1; k <= cycles; k++ {
		p, q, twin := fmt.Sprintf("p%d", k), fmt.Sprintf("q%d", k), fmt.Sprintf("<cycle %d as a whole>", k)
		b.Arc("main", twin, 1)
		b.Arc("main", p, 1)
		b.Arc(p, q, 1)
		b.Arc(q, p, 1)
		self[b.Node(p)], self[b.Node(q)], self[b.Node(twin)] = 1, 1, 2
	}
	g = b.Graph()
	g.Hz = 1
	for v, t := range self {
		g.SelfTicks[v] = t
	}
	g.TotalTicks = 4 * cycles
	checkOrder(t, "equal cycles", analyzed(g))
	if m := model.Build(g); len(m.Cycles) != cycles || m.Cycles[0].TotalTicks() != m.Cycles[cycles-1].TotalTicks() {
		t.Fatalf("tie case lost its %d equal cycles: %d cycles", cycles, len(m.Cycles))
	}
}

// FuzzListingOrder builds small analyzed graphs from fuzz bytes and
// checks every listing order against the stable references: listing
// numbers, flat order, never-called list and index. Ticks include −0,
// fractions, subnormals and equal totals; names are drawn from an
// alphabet of space, angle brackets and digits, or are the labels of
// cycle entries, so routine names collide with "<cycle N>" and
// "<cycle N as a whole>". The index of the decoded JSON profile, which
// sorts its own name order, must equal the built one's.
func FuzzListingOrder(f *testing.F) {
	f.Add([]byte("\x05abcdefghij\x01\x02\x03\x02\x01\x01\x03\x04\x02"))
	f.Add([]byte("\x08\x00\x08\x10\x18\x20\x28\x30\x38\x00\x01\x01\x01\x02\x01\x02\x00\x01\x03\x04\x01\x04\x03\x01"))
	f.Add([]byte("\x0b<<>> 1 2<cycle 1>\x00\x01\x02\x02\x01\x03\x03\x04\x01\x04\x05\x01\x05\x03\x02"))
	// "  " with −0 self ticks ties "<cycle 1>" with +0.
	f.Add([]byte("1100100011001"))
	ticks := []float64{0, math.Copysign(0, -1), 1, 2, 0.5, 1.5, 0.1, 0.2, 5e-324, 1e-310, 3, 0.1 + 0.2}
	collide := []string{"<cycle 1>", "<cycle 1 as a whole>", "<cycle 2>", "<cycle 2 as a whole>", "<cycle 10 as a whole>", "a <cycle1>"}
	const alphabet = " <>12a"
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var gb callgraph.Builder
		var names []string
		self := map[int32]float64{}
		for n := 1 + next()%12; n > 0; n-- {
			b := next()
			name := ""
			if b%8 == 0 {
				name = collide[b/8%len(collide)]
			} else {
				for k := 1 + b%4; k > 0; k-- {
					name += string(alphabet[next()%len(alphabet)])
				}
			}
			self[gb.Node(name)] = ticks[next()%len(ticks)]
			names = append(names, name)
		}
		for len(data) >= 3 {
			from, to, count := next(), next(), next()%4
			caller := ""
			if from%(len(names)+1) < len(names) {
				caller = names[from%(len(names)+1)]
			}
			gb.Arc(caller, names[to%len(names)], int64(count))
		}
		g := gb.Graph()
		g.Hz = 1
		for v, t := range self {
			g.SelfTicks[v] = t
		}
		var total float64
		for _, t := range g.SelfTicks {
			total += t
		}
		g.TotalTicks = total
		m := checkOrder(t, "fuzz", analyzed(g))

		var js bytes.Buffer
		if err := model.Encode(&js, m); err != nil {
			t.Fatal(err)
		}
		d, err := model.Decode(&js)
		if err != nil {
			t.Fatal(err)
		}
		var built, decoded bytes.Buffer
		if err := report.Index(&built, m, report.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := report.Index(&decoded, d, report.Options{}); err != nil {
			t.Fatal(err)
		}
		if built.String() != decoded.String() {
			t.Errorf("decoded profile's index differs:\n got %q\nwant %q", decoded.String(), built.String())
		}
	})
}

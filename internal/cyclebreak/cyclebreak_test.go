package cyclebreak

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/callgraph"
	"repro/internal/scc"
)

func TestParseArcID(t *testing.T) {
	id, err := ParseArcID("netinput/tcpout")
	if err != nil || id.Caller != "netinput" || id.Callee != "tcpout" {
		t.Errorf("ParseArcID = %+v, %v", id, err)
	}
	for _, bad := range []string{"", "noslash", "/x", "x/"} {
		if _, err := ParseArcID(bad); err == nil {
			t.Errorf("ParseArcID(%q) succeeded", bad)
		}
	}
	if got := (ArcID{Caller: "a", Callee: "b"}).String(); got != "a/b" {
		t.Errorf("String = %q", got)
	}
}

func TestSuggestPicksLowCountArc(t *testing.T) {
	// Kernel-style scenario: a hot two-way interaction plus one rare
	// back-arc closing the cycle. The heuristic must pick the rare arc.
	var b callgraph.Builder
	b.Arc("syscall", "fsread", 1000)
	b.Arc("fsread", "buffer", 900)
	b.Arc("buffer", "disk", 800)
	b.Arc("disk", "syscall", 3) // rare upcall closing the cycle
	g := b.Graph()
	scc.Analyze(g)
	if len(g.Cycles) != 1 {
		t.Fatalf("setup: cycles = %d", len(g.Cycles))
	}
	sug := Suggest(g, Options{})
	if !sug.Complete {
		t.Fatal("heuristic did not complete")
	}
	if len(sug.Arcs) != 1 || sug.Arcs[0] != (ArcID{Caller: "disk", Callee: "syscall"}) {
		t.Errorf("suggested %v, want the low-count disk/syscall arc", sug.Arcs)
	}
	if sug.Counts[0] != 3 {
		t.Errorf("lost count = %d, want 3", sug.Counts[0])
	}
	// The original graph is untouched.
	scc.Analyze(g)
	if len(g.Cycles) != 1 {
		t.Error("Suggest mutated the input graph")
	}
}

// apply builds b's graph with arcs added to its removal set and
// analyzes it, as core does with a suggestion.
func apply(b *callgraph.Builder, arcs []ArcID) *callgraph.Graph {
	for _, id := range arcs {
		b.Remove(id.Caller, id.Callee)
	}
	g := b.Graph()
	scc.Analyze(g)
	return g
}

func TestApplyBreaksCycle(t *testing.T) {
	var b callgraph.Builder
	b.Arc("a", "b", 10)
	b.Arc("b", "a", 2)
	b.Arc("main", "a", 1)
	sug := Suggest(b.Graph(), Options{})
	g := apply(&b, sug.Arcs)
	if g.Removed != len(sug.Arcs) {
		t.Errorf("removed %d of %d", g.Removed, len(sug.Arcs))
	}
	if len(g.Cycles) != 0 {
		t.Error("cycle survives the removal")
	}
	// Naming the same arcs again removes nothing more.
	if g := apply(&b, sug.Arcs); g.Removed != len(sug.Arcs) {
		t.Errorf("second removal: removed %d, want %d", g.Removed, len(sug.Arcs))
	}
}

func TestBoundRespected(t *testing.T) {
	// Many independent 2-cycles need one removal each; a bound of 2
	// cannot finish.
	var b callgraph.Builder
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i+1 < len(names); i += 2 {
		b.Arc(names[i], names[i+1], 5)
		b.Arc(names[i+1], names[i], 5)
	}
	g := b.Graph()
	sug := Suggest(g, Options{MaxArcs: 2})
	if sug.Complete {
		t.Error("claimed completion with bound 2 over 4 cycles")
	}
	if len(sug.Arcs) != 2 {
		t.Errorf("suggested %d arcs, want exactly the bound 2", len(sug.Arcs))
	}
	full := Suggest(g, Options{MaxArcs: 10})
	if !full.Complete || len(full.Arcs) != 4 {
		t.Errorf("full run: complete=%v arcs=%d, want true/4", full.Complete, len(full.Arcs))
	}
}

func TestStaticArcPreferred(t *testing.T) {
	// A cycle closed by both a dynamic arc and a static (count 0) arc:
	// removing the static arc loses nothing, so it must go first.
	var b callgraph.Builder
	b.Arc("a", "b", 50)
	b.Static("b", "a")
	sug := Suggest(b.Graph(), Options{})
	if !sug.Complete || len(sug.Arcs) != 1 {
		t.Fatalf("sug = %+v", sug)
	}
	if sug.Arcs[0] != (ArcID{Caller: "b", Callee: "a"}) || sug.Counts[0] != 0 {
		t.Errorf("picked %v (count %d), want the static b/a arc", sug.Arcs[0], sug.Counts[0])
	}
}

func TestAcyclicGraphNeedsNothing(t *testing.T) {
	var b callgraph.Builder
	b.Arc("a", "b", 1)
	b.Arc("b", "c", 1)
	sug := Suggest(b.Graph(), Options{})
	if !sug.Complete || len(sug.Arcs) != 0 {
		t.Errorf("acyclic graph got suggestions: %+v", sug)
	}
}

func TestThreeCycleNeedsOneArc(t *testing.T) {
	var b callgraph.Builder
	b.Arc("a", "b", 10)
	b.Arc("b", "c", 10)
	b.Arc("c", "a", 1)
	sug := Suggest(b.Graph(), Options{})
	if !sug.Complete || len(sug.Arcs) != 1 || sug.Arcs[0] != (ArcID{Caller: "c", Callee: "a"}) {
		t.Errorf("sug = %+v, want single c/a removal", sug)
	}
}

// TestSuggestionAlwaysSufficient: on random graphs, an unbounded run is
// Complete and applying its arcs really leaves the graph acyclic.
func TestSuggestionAlwaysSufficient(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%15) + 2
		var b callgraph.Builder
		names := make([]string, n)
		for i := range names {
			names[i] = "v" + string(rune('a'+i))
			b.Node(names[i])
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.25 {
					b.Arc(names[i], names[j], int64(rng.Intn(100)+1))
				}
			}
		}
		sug := Suggest(b.Graph(), Options{MaxArcs: n * n})
		if !sug.Complete {
			return false
		}
		return len(apply(&b, sug.Arcs).Cycles) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestLostInformationIsSmall: the greedy choice removes cheaper arcs
// than an adversarial choice would. We check that the total removed
// count never exceeds the count of any single hot arc kept in a simple
// ring; a sanity check of "information lost is far less than gained".
func TestLostInformationIsSmall(t *testing.T) {
	var b callgraph.Builder
	// ring of hot arcs with a single cold one
	b.Arc("a", "b", 500)
	b.Arc("b", "c", 400)
	b.Arc("c", "d", 300)
	b.Arc("d", "a", 2)
	sug := Suggest(b.Graph(), Options{})
	var lost int64
	for _, c := range sug.Counts {
		lost += c
	}
	if lost > 2 {
		t.Errorf("lost %d traversals, want <= 2", lost)
	}
}

package model

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/propagate"
	"repro/internal/scc"
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

// testGraph builds a small analyzed graph with a cycle, a spontaneous
// arc, a static arc, and a never-called routine — every feature the
// model must carry.
func testGraph() *callgraph.Graph {
	var b callgraph.Builder
	b.Arc("", "main", 1)
	b.Arc("main", "a", 4)
	b.Arc("a", "b", 6)
	b.Arc("b", "a", 2)
	b.Arc("a", "a", 3)
	b.Static("main", "ghost")
	b.Node("unused")
	g := b.Graph()
	g.Hz = 1
	g.SelfTicks[node(g, "main")] = 1
	g.SelfTicks[node(g, "a")] = 5
	g.SelfTicks[node(g, "b")] = 4
	g.TotalTicks = 10
	scc.Analyze(g)
	propagate.Run(g)
	return g
}

func build(t *testing.T) *Profile {
	t.Helper()
	return Build(testGraph())
}

func TestBuildInvariants(t *testing.T) {
	p := build(t)
	if p.Schema != Schema {
		t.Errorf("Schema = %q, want %q", p.Schema, Schema)
	}
	if p.Hz <= 0 {
		t.Errorf("Hz = %d, want > 0", p.Hz)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("built profile invalid: %v", err)
	}
	// Every routine (even never-called) is present and indexed.
	for _, name := range []string{"main", "a", "b", "ghost", "unused"} {
		r, ok := p.Routine(name)
		if !ok {
			t.Fatalf("routine %q missing", name)
		}
		if r.Index <= 0 {
			t.Errorf("routine %q unindexed", name)
		}
	}
	// a and b form the cycle.
	a, _ := p.Routine("a")
	b, _ := p.Routine("b")
	if a.Cycle == 0 || a.Cycle != b.Cycle {
		t.Errorf("a.Cycle=%d b.Cycle=%d, want same non-zero", a.Cycle, b.Cycle)
	}
	if len(p.Cycles) != 1 || p.Cycles[0].Number != a.Cycle || len(p.Cycles[0].Members) != 2 {
		t.Fatalf("cycle %d missing or wrong members: %+v", a.Cycle, p.Cycles)
	}
	// Self-recursion split: a's 3 self-calls are not in Calls.
	if a.SelfCalls != 3 {
		t.Errorf("a.SelfCalls = %d, want 3", a.SelfCalls)
	}
	// Never-called routines are listed alphabetically: ghost is only the
	// target of a never-traversed static arc, so it too never ran.
	if len(p.NeverCalled) != 2 || p.NeverCalled[0] != "ghost" || p.NeverCalled[1] != "unused" {
		t.Errorf("NeverCalled = %v, want [ghost unused]", p.NeverCalled)
	}
	// Flat rows are sorted by decreasing self time.
	for i := 1; i < len(p.Flat); i++ {
		if p.Flat[i].SelfSeconds > p.Flat[i-1].SelfSeconds {
			t.Errorf("flat rows unsorted at %d", i)
		}
	}
	// Arcs: the spontaneous one has no From, the static one is marked.
	var sawSpont, sawStatic bool
	for i := range p.Arcs {
		a := &p.Arcs[i]
		if a.Spontaneous() {
			sawSpont = true
		}
		if a.Static {
			sawStatic = true
			if a.Count != 0 {
				t.Errorf("static arc has count %d", a.Count)
			}
		}
	}
	if !sawSpont || !sawStatic {
		t.Errorf("arc features lost: spontaneous=%v static=%v", sawSpont, sawStatic)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := build(t)
	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	first := buf.String()
	q, err := Decode(strings.NewReader(first))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	// Re-encoding the decoded profile reproduces the bytes exactly:
	// the encoding is deterministic and nothing is lost in transit.
	var buf2 bytes.Buffer
	if err := Encode(&buf2, q); err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if buf2.String() != first {
		t.Error("encode -> decode -> encode is not byte-identical")
	}
}

// TestJSONMarshalerMatchesEncode pins that a Profile handed to any
// JSON encoder (gprofd's /v1/self?view=json, for one) writes the
// versioned schema Encode writes, and that json.Unmarshal reads it back
// through Decode's checks.
func TestJSONMarshalerMatchesEncode(t *testing.T) {
	p := build(t)
	var enc bytes.Buffer
	if err := Encode(&enc, p); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatalf("json.MarshalIndent: %v", err)
	}
	if string(raw)+"\n" != enc.String() {
		t.Errorf("json.Marshal of a Profile differs from Encode:\n%s\nwant:\n%s", raw, enc.String())
	}
	var q Profile
	if err := json.Unmarshal(raw, &q); err != nil {
		t.Fatalf("json.Unmarshal: %v", err)
	}
	var again bytes.Buffer
	if err := Encode(&again, &q); err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if again.String() != enc.String() {
		t.Error("json.Unmarshal -> Encode is not byte-identical")
	}
	if r, ok := q.Routine("main"); !ok || r.Calls == 0 {
		t.Errorf("unmarshaled profile lookup main = %+v, %v", r, ok)
	}
	bad := `{"schema":"` + Schema + `","hz":1,"total_ticks":0,"total_seconds":0,"routines":[],"arcs":[{"to":"gone","count":1,"prop_self_ticks":0,"prop_child_ticks":0}]}`
	if err := json.Unmarshal([]byte(bad), &q); err == nil {
		t.Error("json.Unmarshal accepted an arc to no routine")
	}
}

// TestValidateChecksArcPositions pins Validate's range check on a
// profile assembled by hand.
func TestValidateChecksArcPositions(t *testing.T) {
	p := build(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("built profile invalid: %v", err)
	}
	for _, a := range []Arc{{From: -1, To: int32(len(p.Routines))}, {From: -2, To: 0}, {From: 0, To: -1}} {
		q := &Profile{Schema: Schema, Hz: 1, Routines: p.Routines, Arcs: []Arc{a}}
		if err := q.Validate(); err == nil {
			t.Errorf("Validate accepted arc %d -> %d", a.From, a.To)
		}
	}
}

func TestEncodeRejectsMissingSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, &Profile{Hz: 1}); err == nil {
		t.Error("Encode accepted a profile without a schema tag")
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"not json", "nope"},
		{"wrong schema", `{"schema":"gprof.profile.v999","hz":1,"total_ticks":0,"total_seconds":0,"routines":[]}`},
		{"no hz", `{"schema":"` + Schema + `","total_ticks":0,"total_seconds":0,"routines":[]}`},
		{"dup routine", `{"schema":"` + Schema + `","hz":1,"total_ticks":0,"total_seconds":0,"routines":[{"name":"x","self_ticks":0,"descendant_ticks":0,"self_seconds":0,"descendant_seconds":0,"calls":0},{"name":"x","self_ticks":0,"descendant_ticks":0,"self_seconds":0,"descendant_seconds":0,"calls":0}]}`},
		{"arc to nowhere", `{"schema":"` + Schema + `","hz":1,"total_ticks":0,"total_seconds":0,"routines":[],"arcs":[{"to":"gone","count":1,"prop_self_ticks":0,"prop_child_ticks":0}]}`},
		{"cycle member missing", `{"schema":"` + Schema + `","hz":1,"total_ticks":0,"total_seconds":0,"routines":[],"cycles":[{"number":1,"members":["gone"],"self_ticks":0,"descendant_ticks":0,"external_calls":0,"internal_calls":0}]}`},
	}
	for _, tc := range cases {
		if _, err := Decode(strings.NewReader(tc.json)); err == nil {
			t.Errorf("%s: Decode accepted invalid input", tc.name)
		}
	}
}

func TestDiff(t *testing.T) {
	old := build(t)

	// Same workload, "slower": scale a's self time up and drop main's
	// calls to a, add a brand-new routine, remove ghost.
	var b callgraph.Builder
	b.Arc("", "main", 1)
	b.Arc("main", "a", 2)
	b.Arc("a", "b", 6)
	b.Arc("b", "a", 2)
	b.Arc("main", "fresh", 5)
	g := b.Graph()
	g.Hz = 1
	g.SelfTicks[node(g, "main")] = 1
	g.SelfTicks[node(g, "a")] = 9
	g.SelfTicks[node(g, "b")] = 4
	g.SelfTicks[node(g, "fresh")] = 2
	g.TotalTicks = 16
	scc.Analyze(g)
	propagate.Run(g)
	new := Build(g)

	deltas := Diff(old, new)
	byName := make(map[string]*Delta)
	for i := range deltas {
		byName[deltas[i].Name] = &deltas[i]
	}

	// a: self 5 -> 9.
	a := byName["a"]
	if a == nil || !a.InOld || !a.InNew {
		t.Fatalf("a delta wrong: %+v", a)
	}
	if a.DSelf() != 4 {
		t.Errorf("a DSelf = %v, want 4", a.DSelf())
	}
	// a's calls: old 4(main)+2(b)+3(self)=9; new 2+2=4.
	if a.DCalls() != 4-9 {
		t.Errorf("a DCalls = %v, want -5", a.DCalls())
	}
	// fresh is added, ghost (static-only, dead in both) is omitted,
	// unused (dead in both) is omitted.
	f := byName["fresh"]
	if f == nil || f.InOld || !f.InNew {
		t.Fatalf("fresh delta wrong: %+v", f)
	}
	if byName["ghost"] != nil || byName["unused"] != nil {
		t.Error("dead-in-both routines appear in the diff")
	}
	// Sorted by decreasing total-time regression.
	for i := 1; i < len(deltas); i++ {
		if deltas[i].DTotal() > deltas[i-1].DTotal() {
			t.Errorf("deltas unsorted at %d: %v after %v", i, deltas[i].DTotal(), deltas[i-1].DTotal())
		}
	}
	// Identical profiles produce no changed rows.
	for _, d := range Diff(old, old) {
		if d.Changed() {
			t.Errorf("self-diff reports change: %+v", d)
		}
	}
}

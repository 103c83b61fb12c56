package report

import (
	"bytes"
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/model"
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

// figure4Graph reconstructs the call-graph fragment of the paper's
// Figure 4 with tick values that reproduce the published numbers,
// including the 41.5 %time (total run = 8.43s).
func figure4Graph() *callgraph.Graph {
	var b callgraph.Builder
	b.Arc("CALLER1", "EXAMPLE", 4)
	b.Arc("CALLER2", "EXAMPLE", 6)
	b.Arc("EXAMPLE", "EXAMPLE", 4)
	b.Arc("EXAMPLE", "SUB1", 20)
	b.Arc("OTHER", "SUB1", 20)
	b.Arc("SUB1", "PARTNER", 7)
	b.Arc("PARTNER", "SUB1", 7)
	b.Arc("EXAMPLE", "SUB2", 1)
	b.Arc("OTHER", "SUB2", 4)
	b.Static("EXAMPLE", "SUB3")
	b.Arc("OTHER", "SUB3", 5)
	b.Arc("SUB1", "DEEP", 8)
	b.Arc("SUB2", "SUB2LEAF", 3)

	g := b.Graph()
	g.Hz = 1 // ticks are seconds
	g.SelfTicks[node(g, "EXAMPLE")] = 0.50
	g.SelfTicks[node(g, "SUB1")] = 2.00
	g.SelfTicks[node(g, "PARTNER")] = 1.00
	g.SelfTicks[node(g, "DEEP")] = 2.00
	g.SelfTicks[node(g, "SUB2LEAF")] = 2.50
	g.SelfTicks[node(g, "SUB3")] = 0.43
	g.TotalTicks = 8.43
	return g
}

// analyze runs the post-processing stages and condenses the graph into
// the profile model the renderers consume.
func analyze(g *callgraph.Graph) *model.Profile {
	scc.Analyze(g)
	propagate.Run(g)
	return model.Build(g)
}

func render(t *testing.T, g *callgraph.Graph, opt Options) string {
	t.Helper()
	m := analyze(g)
	var buf bytes.Buffer
	if err := CallGraph(&buf, m, opt); err != nil {
		t.Fatalf("CallGraph: %v", err)
	}
	return buf.String()
}

// entryBlock extracts the dashed-rule-delimited block whose self line
// mentions name.
func entryBlock(out, name string) string {
	for _, block := range strings.Split(out, strings.Repeat("-", 72)) {
		for _, line := range strings.Split(block, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "[") && strings.Contains(line, name) {
				return block
			}
		}
	}
	return ""
}

func TestFigure4Entry(t *testing.T) {
	out := render(t, figure4Graph(), Options{})
	block := entryBlock(out, "EXAMPLE")
	if block == "" {
		t.Fatalf("no entry for EXAMPLE in output:\n%s", out)
	}
	for _, want := range []string{
		"41.5",          // %time
		"0.50",          // self seconds
		"3.00",          // descendant seconds
		"10+4",          // called+self
		"4/10",          // CALLER1's share of calls
		"6/10",          // CALLER2's share
		"20/40",         // calls into cycle 1
		"1/5",           // SUB2
		"0/5",           // SUB3 (static arc, never traversed)
		"CALLER1",       //
		"CALLER2",       //
		"SUB1 <cycle1>", // member tag, as in the figure
		"SUB2", "SUB3",
	} {
		if !strings.Contains(block, want) {
			t.Errorf("EXAMPLE entry missing %q:\n%s", want, block)
		}
	}
	// Figure 4's propagated amounts.
	for _, want := range []string{"0.20", "1.20", "0.30", "1.80", "1.50", "1.00"} {
		if !strings.Contains(block, want) {
			t.Errorf("EXAMPLE entry missing propagated value %q:\n%s", want, block)
		}
	}
	// Parents are ordered by ascending contribution: CALLER1 above CALLER2.
	if strings.Index(block, "CALLER1") > strings.Index(block, "CALLER2") {
		t.Error("CALLER1 should be listed before CALLER2")
	}
	// Children by descending: SUB1, SUB2, SUB3.
	if !(strings.Index(block, "SUB1") < strings.Index(block, "SUB2") &&
		strings.Index(block, "SUB2") < strings.Index(block, "SUB3")) {
		t.Error("children not in descending time order")
	}
}

func TestEntriesSortedByTotalTime(t *testing.T) {
	out := render(t, figure4Graph(), Options{})
	// Extract self lines "[k] ..." in order and check indices ascend.
	re := regexp.MustCompile(`(?m)^\[(\d+)\]`)
	matches := re.FindAllStringSubmatch(out, -1)
	if len(matches) < 5 {
		t.Fatalf("too few entries: %d", len(matches))
	}
	for i, m := range matches {
		k, _ := strconv.Atoi(m[1])
		if k != i+1 {
			t.Errorf("entry %d has index %d; listing order must match index order", i+1, k)
		}
	}
}

func TestCycleEntry(t *testing.T) {
	out := render(t, figure4Graph(), Options{})
	block := entryBlock(out, "as a whole")
	if block == "" {
		t.Fatalf("no cycle-as-a-whole entry:\n%s", out)
	}
	for _, want := range []string{
		"<cycle 1 as a whole>",
		"40+14",            // 40 external calls + 14 internal
		"3.00",             // summed member self time
		"2.00",             // cycle descendant time (DEEP)
		"SUB1 <cycle1>",    // members listed in place of children
		"PARTNER <cycle1>", //
	} {
		if !strings.Contains(block, want) {
			t.Errorf("cycle entry missing %q:\n%s", want, block)
		}
	}
}

func TestSpontaneousParentShown(t *testing.T) {
	var b callgraph.Builder
	b.Arc("", "handler", 2)
	b.Arc("main", "handler", 2)
	g := b.Graph()
	g.Hz = 1
	g.SelfTicks[node(g, "handler")] = 4
	g.TotalTicks = 4
	out := render(t, g, Options{})
	if !strings.Contains(out, "<spontaneous>") {
		t.Errorf("spontaneous parent not shown:\n%s", out)
	}
}

func TestMinPercentFilter(t *testing.T) {
	g := figure4Graph()
	out := render(t, g, Options{MinPercent: 30})
	if entryBlock(out, "EXAMPLE") == "" {
		t.Error("hot entry EXAMPLE filtered out")
	}
	if entryBlock(out, "SUB3") != "" {
		t.Error("cold entry SUB3 (~5%) not filtered at MinPercent=30")
	}
}

func TestFocusFilter(t *testing.T) {
	g := figure4Graph()
	out := render(t, g, Options{Focus: []string{"SUB2"}})
	// SUB2, its parents (EXAMPLE, OTHER) and child (SUB2LEAF) stay.
	for _, want := range []string{"SUB2", "EXAMPLE", "OTHER", "SUB2LEAF"} {
		if entryBlock(out, want) == "" {
			t.Errorf("focus on SUB2 lost neighbor %s:\n%s", want, out)
		}
	}
	if entryBlock(out, "DEEP") != "" {
		t.Error("focus on SUB2 kept unrelated DEEP")
	}
	if entryBlock(out, "CALLER1") != "" {
		t.Error("focus on SUB2 kept unrelated CALLER1")
	}
}

func TestFocusUnknownNameSelectsNothing(t *testing.T) {
	g := figure4Graph()
	out := render(t, g, Options{Focus: []string{"nosuch"}})
	if !strings.Contains(out, "no entries selected") {
		t.Errorf("expected empty listing:\n%s", out)
	}
}

// A routine that is both focused and excluded stays suppressed:
// exclusion is checked independently of the focus neighborhood, so -E
// wins over focus for the routine's own entry.
func TestFocusExcludeSameRoutine(t *testing.T) {
	g := figure4Graph()
	out := render(t, g, Options{Focus: []string{"SUB2"}, Exclude: []string{"SUB2"}})
	if entryBlock(out, "SUB2 [") != "" {
		t.Errorf("focused-and-excluded SUB2 still has an entry:\n%s", out)
	}
	// The focus neighborhood survives: SUB2's parents and child keep
	// their entries even though the focal routine itself is suppressed.
	for _, want := range []string{"EXAMPLE", "OTHER", "SUB2LEAF"} {
		if entryBlock(out, want) == "" {
			t.Errorf("exclusion of the focal routine lost neighbor %s:\n%s", want, out)
		}
	}
}

// Excluding a parent of the focused routine suppresses the parent's own
// entry but not the parent line inside the focused entry: exclusion
// hides entries, not arcs.
func TestFocusWithExcludedParent(t *testing.T) {
	g := figure4Graph()
	out := render(t, g, Options{Focus: []string{"SUB2"}, Exclude: []string{"OTHER"}})
	if entryBlock(out, "OTHER") != "" {
		t.Errorf("excluded parent OTHER still has its own entry:\n%s", out)
	}
	block := entryBlock(out, "SUB2 [")
	if block == "" {
		t.Fatalf("focused SUB2 lost its entry:\n%s", out)
	}
	if !strings.Contains(block, "OTHER") {
		t.Errorf("SUB2's entry no longer lists its parent OTHER:\n%s", block)
	}
}

func TestFlatProfile(t *testing.T) {
	var b callgraph.Builder
	b.Arc("main", "hot", 10)
	b.Arc("main", "warm", 5)
	b.Arc("main", "cold", 1)
	b.Node("unused")
	b.Node("alsounused")
	g := b.Graph()
	g.Hz = 1
	g.SelfTicks[node(g, "hot")] = 6
	g.SelfTicks[node(g, "warm")] = 3
	g.SelfTicks[node(g, "main")] = 1
	g.TotalTicks = 10
	m := analyze(g)

	var buf bytes.Buffer
	if err := Flat(&buf, m, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// Order: hot, warm, main, cold.
	iHot, iWarm, iMain, iCold := strings.Index(out, "hot"), strings.Index(out, "warm"),
		strings.Index(out, "main"), strings.Index(out, "cold")
	if !(iHot < iWarm && iWarm < iMain && iMain < iCold) {
		t.Errorf("flat rows out of order:\n%s", out)
	}
	// Percentages: hot = 60%.
	if !strings.Contains(out, "60.0") {
		t.Errorf("hot should be 60.0%%:\n%s", out)
	}
	// Total line.
	if !strings.Contains(out, "total: 10.00 seconds") {
		t.Errorf("missing total:\n%s", out)
	}
	// Never-called list, sorted.
	if !strings.Contains(out, "routines never called") {
		t.Errorf("missing never-called section:\n%s", out)
	}
	iA, iU := strings.Index(out, "alsounused"), strings.LastIndex(out, "unused")
	if iA < 0 || iU < 0 || iA > iU {
		t.Errorf("never-called list wrong:\n%s", out)
	}
	// cold was called but has no samples: present with 0.00 time.
	if iCold < 0 {
		t.Error("called-but-unsampled routine missing from flat profile")
	}
}

func TestFlatSumsToTotal(t *testing.T) {
	// §5.1: "for this profile, the individual times sum to the total
	// execution time" — check the cumulative column reaches the total,
	// including lost ticks.
	var b callgraph.Builder
	b.Arc("main", "f", 1)
	g := b.Graph()
	g.Hz = 1
	g.SelfTicks[node(g, "main")] = 2
	g.SelfTicks[node(g, "f")] = 5
	g.TotalTicks = 8
	g.LostTicks = 1
	m := analyze(g)
	var buf bytes.Buffer
	if err := Flat(&buf, m, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "<outside any routine>") {
		t.Errorf("lost ticks not reported:\n%s", out)
	}
	// The last cumulative value equals the total 8.00.
	if !strings.Contains(out, "8.00") {
		t.Errorf("cumulative does not reach total:\n%s", out)
	}
}

func TestFlatPerCallColumns(t *testing.T) {
	var b callgraph.Builder
	b.Arc("main", "f", 4)
	b.Arc("f", "leaf", 8)
	g := b.Graph()
	g.Hz = 1
	g.SelfTicks[node(g, "f")] = 2 // 0.5 s/call self
	g.SelfTicks[node(g, "leaf")] = 4
	g.TotalTicks = 6
	m := analyze(g)
	var buf bytes.Buffer
	if err := Flat(&buf, m, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// f: self 2s over 4 calls = 500 ms/call; total (2+4)/4 = 1500 ms/call.
	if !strings.Contains(out, "500.00") || !strings.Contains(out, "1500.00") {
		t.Errorf("per-call columns wrong:\n%s", out)
	}
}

func TestIndexListing(t *testing.T) {
	m := analyze(figure4Graph())
	var buf bytes.Buffer
	if err := IndexListing(&buf, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"EXAMPLE", "<cycle 1>", "SUB1 <cycle1>"} {
		if !strings.Contains(out, want) {
			t.Errorf("index missing %q:\n%s", want, out)
		}
	}
	// Alphabetical.
	if strings.Index(out, "CALLER1") > strings.Index(out, "EXAMPLE") {
		t.Errorf("index not alphabetical:\n%s", out)
	}
}

// TestIndexTieOrder: a routine named "<cycle 1>" ties with cycle 1's
// entry in the index, and the tie is listed by entry index at every
// width. Cycle 1's members include foo, "foo " and foo!, beside a free
// routine named "foo <cycle1>": by name the free routine falls between
// "foo " and foo!, but by label it ties with foo's "foo <cycle1>" and
// follows "foo  <cycle1>", so the index must merge by label. The
// listing has two index chunks, so width 2 renders them on two
// workers.
func TestIndexTieOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var b callgraph.Builder
	b.Arc("main", "A", 1)
	cycle := []string{"A", "B", "foo", "foo ", "foo!"}
	self := map[int32]float64{}
	for i, name := range cycle {
		b.Arc(name, cycle[(i+1)%len(cycle)], 1)
		self[b.Node(name)] = 50
	}
	b.Arc("main", "<cycle 1>", 1)
	b.Arc("main", "foo <cycle1>", 1)
	self[b.Node("<cycle 1>")] = 1
	self[b.Node("foo <cycle1>")] = 1
	total := 252.0
	for i := 0; i < 1500; i++ {
		name := fmt.Sprintf("r%04d", i)
		b.Arc("main", name, 1)
		self[b.Node(name)] = float64(i % 3)
		total += float64(i % 3)
	}
	g := b.Graph()
	g.Hz = 1
	for v, t := range self {
		g.SelfTicks[v] = t
	}
	g.TotalTicks = total
	m := analyze(g)
	r, _ := m.Routine("<cycle 1>")
	c := &m.Cycles[0]
	if c.Index >= r.Index {
		t.Fatalf("fixture: cycle entry [%d] should precede the routine [%d]", c.Index, r.Index)
	}
	idx := func(name string) int {
		r, ok := m.Routine(name)
		if !ok || (r.Cycle != 0) != (name != "foo <cycle1>") {
			t.Fatalf("fixture: %q missing or in the wrong cycle", name)
		}
		return r.Index
	}
	free, member := idx("foo <cycle1>"), idx("foo")
	want := []string{
		fmt.Sprintf("  [%d] <cycle 1>\n  [%d] <cycle 1>\n", c.Index, r.Index),
		fmt.Sprintf("  [%d] foo  <cycle1>\n  [%d] foo <cycle1>\n  [%d] foo <cycle1>\n  [%d] foo! <cycle1>\n",
			idx("foo "), min(free, member), max(free, member), idx("foo!")),
	}
	var first string
	for _, jobs := range []int{1, 2} {
		var buf bytes.Buffer
		if err := Index(&buf, m, Options{Jobs: jobs}); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("width %d: tied labels not in label and index order, want %q in:\n%s", jobs, w, out[:min(len(out), 400)])
			}
		}
		if jobs == 1 {
			first = out
		} else if out != first {
			t.Errorf("index at width %d differs from width 1", jobs)
		}
	}
}

func TestIndicesConsistentAcrossReferences(t *testing.T) {
	// Every "[k] name" self line must agree with references "name [k]"
	// elsewhere in the listing.
	out := render(t, figure4Graph(), Options{})
	selfRe := regexp.MustCompile(`(?m)^\[(\d+)\].* ([A-Z0-9<>a-z_ ]+?) \[(\d+)\]$`)
	for _, m := range selfRe.FindAllStringSubmatch(out, -1) {
		if m[1] != m[3] {
			t.Errorf("self line index mismatch: %q", m[0])
		}
	}
	// EXAMPLE's index on its self line matches references in other
	// entries.
	exIdx := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "[") && strings.Contains(line, "EXAMPLE") {
			f := strings.Fields(line)
			exIdx = f[0]
			break
		}
	}
	if exIdx == "" {
		t.Fatal("no EXAMPLE self line")
	}
	ref := "EXAMPLE " + strings.TrimPrefix(exIdx, "")
	if c := strings.Count(out, ref); c < 2 {
		t.Errorf("EXAMPLE %s referenced %d times, want >= 2:\n%s", exIdx, c, out)
	}
}

func TestHeadersSuppressed(t *testing.T) {
	out := render(t, figure4Graph(), Options{NoHeaders: true})
	if strings.Contains(out, "granularity") {
		t.Error("NoHeaders left the header in place")
	}
}

func TestZeroTotalTicksNoPanic(t *testing.T) {
	var b callgraph.Builder
	b.Arc("main", "f", 1)
	g := b.Graph()
	m := analyze(g)
	var buf bytes.Buffer
	if err := CallGraph(&buf, m, Options{}); err != nil {
		t.Fatal(err)
	}
	if buf.String() == "" {
		t.Error("empty output")
	}
	buf.Reset()
	if err := Flat(&buf, m, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestCycleMemberEntryShowsIntraCycleCalls(t *testing.T) {
	g := figure4Graph()
	out := render(t, g, Options{})
	block := entryBlock(out, "PARTNER")
	if block == "" {
		t.Fatal("no PARTNER member entry")
	}
	// PARTNER's caller SUB1 is intra-cycle: listed with a bare count.
	if !strings.Contains(block, "SUB1 <cycle1>") {
		t.Errorf("member entry missing intra-cycle parent:\n%s", block)
	}
}

func ExampleCallGraph() {
	var b callgraph.Builder
	b.Arc("main", "work", 2)
	g := b.Graph()
	g.Hz = 1
	g.SelfTicks[node(g, "work")] = 3
	g.SelfTicks[node(g, "main")] = 1
	g.TotalTicks = 4
	scc.Analyze(g)
	propagate.Run(g)
	m := model.Build(g)
	var buf bytes.Buffer
	_ = CallGraph(&buf, m, Options{NoHeaders: true})
	fmt.Println(strings.Contains(buf.String(), "main"))
	// Output: true
}

func TestExcludeFilter(t *testing.T) {
	g := figure4Graph()
	m := analyze(g)
	var buf bytes.Buffer
	if err := CallGraph(&buf, m, Options{Exclude: []string{"SUB2", "DEEP"}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if entryBlock(out, "SUB2 [") != "" {
		t.Error("excluded SUB2 still has an entry")
	}
	if entryBlock(out, "DEEP") != "" {
		t.Error("excluded DEEP still has an entry")
	}
	// Exclusion is display-only: EXAMPLE's descendants still include
	// SUB2's contribution (3.00 total).
	block := entryBlock(out, "EXAMPLE")
	if !strings.Contains(block, "3.00") {
		t.Errorf("exclusion changed propagation:\n%s", block)
	}
	// Flat profile also suppresses the rows.
	buf.Reset()
	if err := Flat(&buf, m, Options{Exclude: []string{"SUB2LEAF"}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "SUB2LEAF") {
		t.Error("excluded routine in flat profile")
	}
}

func TestWriteDOT(t *testing.T) {
	m := analyze(figure4Graph())
	var buf bytes.Buffer
	if err := WriteDOT(&buf, m, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"digraph callgraph {",
		"subgraph cluster_1",  // the SUB1/PARTNER cycle
		`"EXAMPLE" -> "SUB1"`, // a dynamic edge
		"style=dashed",        // the static EXAMPLE->SUB3 arc
		`label="20"`,          // edge count label
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	// Balanced braces.
	if strings.Count(out, "{") != strings.Count(out, "}") {
		t.Error("unbalanced braces in DOT output")
	}
	// Every kept node declared exactly once (edge lines also contain
	// `"EXAMPLE" [label=`, so match the node-declaration label text).
	if c := strings.Count(out, `"EXAMPLE" [label="EXAMPLE\n`); c != 1 {
		t.Errorf("EXAMPLE declared %d times", c)
	}
	// Filters apply.
	buf.Reset()
	if err := WriteDOT(&buf, m, Options{Exclude: []string{"SUB3"}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"SUB3" [`) {
		t.Error("excluded node present in DOT")
	}
}

// Every flat-profile row, including the lost-ticks row the goldens do
// not reach, keeps the historic fmt layout.
func TestFlatRowLayout(t *testing.T) {
	g := figure4Graph()
	g.LostTicks = 0.25
	g.TotalTicks += g.LostTicks
	m := analyze(g)
	var buf bytes.Buffer
	if err := Flat(&buf, m, Options{NoHeaders: true}); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	var cum float64
	for _, r := range m.Flat {
		cum += r.SelfSeconds
		selfPer, totalPer := "", ""
		if r.Calls > 0 {
			selfPer = fmt.Sprintf("%8.2f", r.SelfSeconds*1000/float64(r.Calls))
			if r.Cycle == 0 {
				totalPer = fmt.Sprintf("%8.2f", r.TotalMsPerCall)
			}
		}
		name := r.Name
		if r.Cycle != 0 {
			name = fmt.Sprintf("%s <cycle%d>", r.Name, r.Cycle)
		}
		fmt.Fprintf(&want, "%5.1f %14.2f %10.2f %9d %8s %8s %s\n",
			r.Percent, cum, r.SelfSeconds, r.Calls, selfPer, totalPer, name)
	}
	fmt.Fprintf(&want, "%5.1f %14.2f %10.2f %9s %8s %8s %s\n",
		m.Percent(m.LostTicks), cum+m.Seconds(m.LostTicks), m.Seconds(m.LostTicks),
		"", "", "", "<outside any routine>")
	got := buf.String()
	if !strings.HasPrefix(got, want.String()) {
		t.Errorf("flat rows drifted\ngot:\n%s\nwant:\n%s", got, want.String())
	}
	for _, shape := range []string{" <cycle1>\n", "<outside any routine>\n"} {
		if !strings.Contains(want.String(), shape) {
			t.Errorf("fixture lost its %q row", shape)
		}
	}
}

// A failing destination surfaces as the renderer's error.
func TestRenderReportsWriteError(t *testing.T) {
	m := analyze(figure4Graph())
	for name, render := range map[string]func() error{
		"callgraph": func() error { return CallGraph(failWriter{}, m, Options{}) },
		"flat":      func() error { return Flat(failWriter{}, m, Options{}) },
		"index":     func() error { return IndexListing(failWriter{}, m) },
	} {
		if err := render(); err == nil {
			t.Errorf("%s: write error not reported", name)
		}
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

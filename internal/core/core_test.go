package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/gmon"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/symtab"

	"repro/internal/cyclebreak"
	"repro/internal/report"
	"repro/internal/workloads"
)

func analyzeWorkload(t *testing.T, name string, opt Options) (*Result, string) {
	t.Helper()
	im, err := workloads.Build(name, true)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	p, _, _, err := workloads.Run(im, workloads.RunConfig{Seed: 3, TickCycles: 300, MaxCycles: 1 << 30})
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	res, err := Run(context.Background(), ImageSource{Image: im}, p, opt)
	if err != nil {
		t.Fatalf("analyze %s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := res.WriteAll(&buf); err != nil {
		t.Fatalf("render: %v", err)
	}
	return res, buf.String()
}

// routine returns the named routine of an analysis or fails the test.
func routine(t *testing.T, res *Result, name string) *model.Routine {
	t.Helper()
	r, ok := res.Model.Routine(name)
	if !ok {
		t.Fatalf("no routine %s in the profile", name)
	}
	return r
}

func TestEndToEndSort(t *testing.T) {
	res, out := analyzeWorkload(t, "sort", Options{})
	// The ordering abstraction's routines all appear.
	for _, fn := range []string{"qsort", "partition", "swap", "less", "fill", "check", "main"} {
		if !strings.Contains(out, fn) {
			t.Errorf("output missing %s", fn)
		}
	}
	// qsort is self-recursive: its entry shows called+self.
	q := routine(t, res, "qsort")
	if q.SelfCalls == 0 {
		t.Error("qsort has no self-recursive calls")
	}
	if q.InCycle() {
		t.Error("self-recursion must not create a collapsed cycle")
	}
	// partition inherits less/swap time: its total exceeds its self.
	p := routine(t, res, "partition")
	if p.ChildTicks <= 0 {
		t.Error("partition received no descendant time")
	}
	// main's total is (nearly) the whole run: everything hangs below it.
	m := routine(t, res, "main")
	if m.TotalTicks() < 0.9*res.Model.TotalTicks {
		t.Errorf("main total %.0f < 90%% of run %.0f", m.TotalTicks(), res.Model.TotalTicks)
	}
	if !strings.Contains(out, "flat profile") || !strings.Contains(out, "index by function name") {
		t.Error("missing report sections")
	}
}

func TestEndToEndParserCycle(t *testing.T) {
	// §6: recursive descent parsers collapse into one monolithic cycle.
	res, out := analyzeWorkload(t, "parser", Options{})
	if len(res.Model.Cycles) == 0 {
		t.Fatal("parser produced no cycle")
	}
	members := map[string]bool{}
	for _, m := range res.Model.Cycles[0].Members {
		members[m] = true
	}
	for _, fn := range []string{"expr", "term", "factor"} {
		if !members[fn] {
			t.Errorf("cycle missing %s; members %v", fn, members)
		}
	}
	if !strings.Contains(out, "as a whole") {
		t.Error("cycle entry missing from output")
	}
}

func TestStaticArcs(t *testing.T) {
	// Without static arcs the never-executed branch's call arc is
	// absent; with them it appears with count 0.
	src := `
func rarely() { return used(); }
func used() { return 1; }
func main() {
	if (0) { rarely(); }
	return used();
}`
	im, err := workloads.BuildSource("static.tl", src, true)
	if err != nil {
		t.Fatal(err)
	}
	p, _, _, err := workloads.Run(im, workloads.RunConfig{TickCycles: 100})
	if err != nil {
		t.Fatal(err)
	}
	// outOf returns the model's arcs out of rarely.
	outOf := func(m *model.Profile) []model.Arc {
		i, ok := m.RoutinePos("rarely")
		if !ok {
			t.Fatal("no routine rarely")
		}
		var arcs []model.Arc
		for _, k := range m.Links().Out(int32(i)) {
			arcs = append(arcs, m.Arcs[k])
		}
		return arcs
	}
	dyn, err := Run(context.Background(), ImageSource{Image: im}, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := dyn.Model.Routine("rarely"); r.Calls != 0 {
		t.Errorf("rarely called %d times dynamically", r.Calls)
	}
	if len(outOf(dyn.Model)) != 0 {
		t.Error("dynamic graph has arcs out of never-run rarely")
	}
	st, err := Run(context.Background(), ImageSource{Image: im}, p, Options{Static: true})
	if err != nil {
		t.Fatal(err)
	}
	var found *bool
	for _, a := range outOf(st.Model) {
		if st.Model.Routines[a.To].Name == "used" {
			ok := a.Static && a.Count == 0
			found = &ok
		}
	}
	if found == nil || !*found {
		t.Error("static arc rarely->used missing or mis-flagged")
	}
	if len(dyn.Model.Cycles) != 0 || len(st.Model.Cycles) != 0 {
		t.Errorf("cycles: dynamic %d, static %d, want none", len(dyn.Model.Cycles), len(st.Model.Cycles))
	}
}

func TestRemoveArcsOption(t *testing.T) {
	im, err := workloads.Build("service", true)
	if err != nil {
		t.Fatal(err)
	}
	p, _, _, err := workloads.Run(im, workloads.RunConfig{TickCycles: 300, MaxCycles: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(context.Background(), ImageSource{Image: im}, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Model.Cycles) == 0 {
		t.Fatal("service has no dispatch<->retry cycle")
	}
	res, err := Run(context.Background(), ImageSource{Image: im}, p, Options{
		RemoveArcs: []cyclebreak.ArcID{{Caller: "retry", Callee: "dispatch"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedArcs != 1 {
		t.Errorf("removed %d arcs, want 1", res.RemovedArcs)
	}
	if len(res.Model.Cycles) != 0 {
		t.Error("cycle survives explicit arc removal")
	}
}

func TestAutoBreak(t *testing.T) {
	im, err := workloads.Build("service", true)
	if err != nil {
		t.Fatal(err)
	}
	p, _, _, err := workloads.Run(im, workloads.RunConfig{TickCycles: 300, MaxCycles: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), ImageSource{Image: im}, p, Options{AutoBreak: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Suggestion == nil || !res.Suggestion.Complete {
		t.Fatalf("suggestion = %+v, want complete", res.Suggestion)
	}
	if len(res.Model.Cycles) != 0 {
		t.Error("cycles remain after AutoBreak")
	}
	var buf bytes.Buffer
	if err := res.WriteAll(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cycle-breaking heuristic removed") {
		t.Error("report does not announce removed arcs")
	}
}

func TestReportOptionsPassThrough(t *testing.T) {
	res, _ := analyzeWorkload(t, "sort", Options{
		Report: report.Options{MinPercent: 99.9},
	})
	var buf bytes.Buffer
	if err := res.WriteCallGraph(&buf); err != nil {
		t.Fatal(err)
	}
	// Essentially everything filtered: only entries >= 99.9% remain
	// (at most main/_start).
	blocks := strings.Count(buf.String(), "\n[")
	if blocks > 2 {
		t.Errorf("MinPercent filter ineffective: %d entries", blocks)
	}
}

func TestFunctionPointerArcs(t *testing.T) {
	// Arcs through function values exist dynamically but not statically.
	res, _ := analyzeWorkload(t, "fptr", Options{Static: true})
	apply, ok := res.Model.RoutinePos("apply")
	if !ok {
		t.Fatal("no routine apply in the profile")
	}
	targets := map[string]bool{}
	for _, a := range res.Model.Arcs {
		if int(a.From) == apply && a.Count > 0 {
			targets[res.Model.Routines[a.To].Name] = true
		}
	}
	for _, fn := range []string{"opAdd", "opMul", "opXor"} {
		if !targets[fn] {
			t.Errorf("dynamic arc apply->%s missing (function pointer)", fn)
		}
	}
}

func TestFlatProfileSumsToTotal(t *testing.T) {
	res, _ := analyzeWorkload(t, "matrix", Options{})
	var selfSum float64
	for _, r := range res.Model.Routines {
		selfSum += r.SelfTicks
	}
	if got := selfSum + res.Model.LostTicks; got != res.Model.TotalTicks {
		t.Errorf("self sum %v + lost %v != total %v", selfSum, res.Model.LostTicks, res.Model.TotalTicks)
	}
}

func TestRunTableSource(t *testing.T) {
	tab := symtab.FromSyms([]object.Sym{
		{Name: "top", Addr: 0, Size: 8},
		{Name: "leaf", Addr: 8, Size: 8},
	})
	p := &gmon.Profile{
		Hist: gmon.Histogram{Low: 0, High: 16, Step: 1, Counts: make([]uint32, 16)},
		Arcs: []gmon.Arc{{FromPC: 2, SelfPC: 8, Count: 5}},
		Hz:   60,
	}
	p.Hist.Counts[10] = 30
	res, err := Run(context.Background(), TableSource{Table: tab}, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if top := routine(t, res, "top"); top.ChildTicks != 30 {
		t.Errorf("top child = %v, want 30", top.ChildTicks)
	}
	var buf bytes.Buffer
	if err := res.WriteAll(&buf); err != nil {
		t.Fatal(err)
	}
	// Overlapping symbols are rejected.
	bad := symtab.FromSyms([]object.Sym{
		{Name: "a", Addr: 0, Size: 10},
		{Name: "b", Addr: 5, Size: 10},
	})
	if _, err := Run(context.Background(), TableSource{Table: bad}, p, Options{}); err == nil {
		t.Error("overlapping table accepted")
	}
}

func TestRunRejectsMismatchedProfile(t *testing.T) {
	im, err := workloads.Build("sort", true)
	if err != nil {
		t.Fatal(err)
	}
	p := &gmon.Profile{
		Hist: gmon.Histogram{Low: 0, High: 4, Step: 1, Counts: make([]uint32, 4)},
		Arcs: []gmon.Arc{{FromPC: 1, SelfPC: 2, Count: 1}}, // callee pc outside any routine
	}
	if _, err := Run(context.Background(), ImageSource{Image: im}, p, Options{}); err == nil {
		t.Error("profile for a different binary accepted")
	}
}

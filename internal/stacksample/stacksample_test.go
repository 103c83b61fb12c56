// Package stacksample holds the behaviour tests of whole-stack sampling,
// the retrospective's alternative to gprof's arc-based attribution. The
// samples come from the one collector path every tool uses —
// mon.Collector with Config.Stacks on an uninstrumented build, condensed
// by core.Run into the model's Stacks view — so these tests check what
// `vmrun -stacks` and `gprof -folded` report.
package stacksample

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/mon"
	"repro/internal/report"
	"repro/internal/symtab"
	"repro/internal/workloads"
)

// sample runs an uninstrumented build of a workload with whole-stack
// sampling on and condenses the samples into the Stacks view.
func sample(t *testing.T, name string, tick int64) (*core.Result, *model.StackView) {
	t.Helper()
	im, err := workloads.Build(name, false) // no MCOUNT needed!
	if err != nil {
		t.Fatal(err)
	}
	p, _, _, err := workloads.Run(im, workloads.RunConfig{TickCycles: tick, MaxCycles: 1 << 30, Stacks: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.ImageSource{Image: im}, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.Stacks == nil {
		t.Fatalf("%s: no stacks view built", name)
	}
	return res, res.Model.Stacks
}

func selfTicks(v *model.StackView, name string) int64 {
	r, _ := v.Routine(name)
	return r.SelfTicks
}

func inclusiveTicks(v *model.StackView, name string) int64 {
	r, _ := v.Routine(name)
	return r.InclusiveTicks
}

func TestSamplesCollected(t *testing.T) {
	_, v := sample(t, "sort", 200)
	if v.Samples == 0 {
		t.Fatal("no samples")
	}
	if selfTicks(v, "partition")+selfTicks(v, "less")+selfTicks(v, "swap") == 0 {
		t.Error("no self samples in the sort kernels")
	}
	// main is on (almost) every stack.
	if incl := inclusiveTicks(v, "main"); float64(incl) < 0.9*float64(v.Samples) {
		t.Errorf("main inclusive %d of %d samples; want ~all", incl, v.Samples)
	}
}

func TestInclusiveExceedsSelf(t *testing.T) {
	_, v := sample(t, "matrix", 200)
	for _, name := range []string{"mul", "dot", "main"} {
		if inclusiveTicks(v, name) < selfTicks(v, name) {
			t.Errorf("%s: inclusive %d < self %d", name, inclusiveTicks(v, name), selfTicks(v, name))
		}
	}
	// The orchestrator mul has tiny self but huge inclusive time — the
	// signal prof cannot produce and gprof only estimates.
	if inclusiveTicks(v, "mul") < 5*selfTicks(v, "mul")+1 {
		t.Errorf("mul: inclusive %d vs self %d; expected inclusive >> self",
			inclusiveTicks(v, "mul"), selfTicks(v, "mul"))
	}
}

func TestRecursionCountedOncePerSample(t *testing.T) {
	_, v := sample(t, "sort", 200)
	// qsort is deeply self-recursive; inclusive must never exceed the
	// sample count (each sample counts it once).
	if inclusiveTicks(v, "qsort") > v.Samples {
		t.Errorf("qsort inclusive %d > samples %d (double-counted recursion)",
			inclusiveTicks(v, "qsort"), v.Samples)
	}
}

func TestStacksRecorded(t *testing.T) {
	res, _ := sample(t, "matrix", 500)
	var buf bytes.Buffer
	if err := res.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no stacks recorded")
	}
	// Some sampled stack should show the full abstraction chain.
	found := false
	for _, stack := range strings.Split(buf.String(), "\n") {
		if strings.Contains(stack, "dot") && strings.Contains(stack, "mul") &&
			strings.Contains(stack, "main") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no stack contains dot;...;mul;...;main:\n%s", buf.String())
	}
}

func TestWriteReport(t *testing.T) {
	res, _ := sample(t, "sort", 300)
	var buf bytes.Buffer
	if err := report.StackTable(&buf, res.Model); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"stack-sample profile", "%incl", "qsort", "main"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestAverageTimeAssumptionError is experiment E8's core: on the
// `unequal` workload, cheap() makes 90 fast calls to work and pricey()
// makes 10 slow ones. gprof divides work's total time by call count, so
// it hands cheap() 90% of the time; the measured stacks show pricey()
// owns nearly all of it.
func TestAverageTimeAssumptionError(t *testing.T) {
	// Ground truth from whole stacks.
	_, v := sample(t, "unequal", 200)
	if v.Samples == 0 {
		t.Fatal("no samples")
	}
	truthCheap := v.InclusiveFraction("cheap")
	truthPricey := v.InclusiveFraction("pricey")
	if truthPricey < 0.8 {
		t.Errorf("ground truth: pricey owns %.0f%%, expected > 80%%", truthPricey*100)
	}
	if truthCheap > 0.2 {
		t.Errorf("ground truth: cheap owns %.0f%%, expected < 20%%", truthCheap*100)
	}

	// gprof's estimate on the same program (instrumented build).
	im, err := workloads.Build("unequal", true)
	if err != nil {
		t.Fatal(err)
	}
	p, _, _, err := workloads.Run(im, workloads.RunConfig{TickCycles: 200, MaxCycles: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.ImageSource{Image: im}, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	share := func(name string) float64 {
		r, ok := res.Model.Routine(name)
		if !ok {
			t.Fatalf("no routine %s in the profile", name)
		}
		return r.TotalTicks() / res.Model.TotalTicks
	}
	estCheap := share("cheap")
	estPricey := share("pricey")

	// gprof's average-time assumption must visibly misattribute:
	// it gives cheap() the majority share (90 of 100 calls).
	if estCheap < 0.5 {
		t.Errorf("gprof estimate for cheap = %.0f%%; expected the wrong, call-count-driven majority", estCheap*100)
	}
	if estPricey > 0.5 {
		t.Errorf("gprof estimate for pricey = %.0f%%; expected under-attribution", estPricey*100)
	}
	// And the stack samples must be far closer to the truth than gprof.
	gprofErr := estPricey - truthPricey
	if gprofErr < 0 {
		gprofErr = -gprofErr
	}
	if gprofErr < 0.3 {
		t.Errorf("expected a large gprof error on unequal call sites, got %.2f", gprofErr)
	}
}

// TestTickOutsideText: a tick whose leaf lies outside every routine
// still counts as a sample, as one truncated walk.
func TestTickOutsideText(t *testing.T) {
	c := mon.NewStackCollector(nil, 0)
	c.Record(0xdead)
	tab := symtab.FromSyms(nil)
	v := model.BuildStacks(c.Snapshot(), func(pc int64) (string, bool) {
		fn, ok := tab.Find(pc)
		return fn.Name, ok
	}, c.MaxDepth())
	if v.Truncated != 1 || v.Samples != 1 {
		t.Errorf("stats = %d truncated / %d samples", v.Truncated, v.Samples)
	}
}

func TestWriteFolded(t *testing.T) {
	res, v := sample(t, "matrix", 500)
	var buf bytes.Buffer
	if err := res.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("no folded lines")
	}
	prev := ""
	var total int64
	for _, l := range lines {
		if l <= prev {
			t.Errorf("folded output not sorted: %q after %q", l, prev)
		}
		prev = l
		// root-first: every line starts at _start or main.
		if !strings.HasPrefix(l, "_start") && !strings.HasPrefix(l, "main") {
			t.Errorf("folded stack not root-first: %q", l)
		}
		var n int64
		if _, err := fmt.Sscanf(l[strings.LastIndexByte(l, ' ')+1:], "%d", &n); err != nil {
			t.Fatalf("bad folded line %q: %v", l, err)
		}
		total += n
	}
	if total != v.Samples {
		t.Errorf("folded counts sum to %d, want %d samples", total, v.Samples)
	}
}

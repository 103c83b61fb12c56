package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/symtab"
	"repro/internal/synth"
	"repro/internal/workloads"
)

func buildAndRun(t *testing.T, name string) (im imageAndProfile) {
	t.Helper()
	image, err := workloads.Build(name, true)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	p, _, _, err := workloads.Run(image, workloads.RunConfig{Seed: 3, TickCycles: 300, MaxCycles: 1 << 30})
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	return imageAndProfile{image, p}
}

type imageAndProfile struct {
	im *object.Image
	p  *gmon.Profile
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		bad  bool
	}{
		{"zero value", Options{}, false},
		{"jobs set", Options{Jobs: 8}, false},
		{"autobreak with bound", Options{AutoBreak: true, MaxBreakArcs: 3}, false},
		{"negative jobs", Options{Jobs: -1}, true},
		{"negative bound", Options{MaxBreakArcs: -2, AutoBreak: true}, true},
		{"bound without autobreak", Options{MaxBreakArcs: 3}, true},
	}
	for _, tc := range cases {
		err := tc.opt.Validate()
		if tc.bad && !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: err = %v, want ErrBadOptions", tc.name, err)
		}
		if !tc.bad && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
	}
}

func TestRunRejectsStaticWithTableSource(t *testing.T) {
	tab := symtab.FromSyms([]object.Sym{{Name: "f", Addr: 0, Size: 8}})
	p := &gmon.Profile{Hist: gmon.Histogram{Low: 0, High: 8, Step: 1, Counts: make([]uint32, 8)}, Hz: 60}
	_, err := Run(context.Background(), TableSource{Table: tab}, p, Options{Static: true})
	if !errors.Is(err, ErrBadOptions) {
		t.Errorf("Static with TableSource: err = %v, want ErrBadOptions", err)
	}
}

func TestRunNilArguments(t *testing.T) {
	p := &gmon.Profile{Hist: gmon.Histogram{Low: 0, High: 8, Step: 1, Counts: make([]uint32, 8)}, Hz: 60}
	if _, err := Run(context.Background(), nil, p, Options{}); err == nil {
		t.Error("nil source accepted")
	}
	tab := symtab.FromSyms([]object.Sym{{Name: "f", Addr: 0, Size: 8}})
	if _, err := Run(context.Background(), TableSource{Table: tab}, nil, Options{}); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := Run(context.Background(), ImageSource{}, p, Options{}); err == nil {
		t.Error("nil image accepted")
	}
	if _, err := Run(context.Background(), TableSource{}, p, Options{}); err == nil {
		t.Error("nil table accepted")
	}
}

// TestRunParallelMatchesSerial: the parallel cached pipeline renders
// the same bytes as the serial uncached run.
func TestRunParallelMatchesSerial(t *testing.T) {
	cache := NewCache(4)
	for _, name := range []string{"parser", "service"} {
		w := buildAndRun(t, name)
		opt := Options{Static: true}
		base, err := Run(context.Background(), ImageSource{Image: w.im}, w.p, opt)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		var want bytes.Buffer
		if err := base.WriteAll(&want); err != nil {
			t.Fatal(err)
		}
		for _, jobs := range []int{1, 4} {
			opt := Options{Static: true, Jobs: jobs, Cache: cache}
			res, err := Run(context.Background(), ImageSource{Image: w.im}, w.p, opt)
			if err != nil {
				t.Fatalf("%s jobs=%d: Run: %v", name, jobs, err)
			}
			var got bytes.Buffer
			if err := res.WriteAll(&got); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("%s jobs=%d: parallel output differs from serial", name, jobs)
			}
		}
	}
}

func TestRunCancellation(t *testing.T) {
	w := buildAndRun(t, "sort")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, ImageSource{Image: w.im}, w.p, Options{Jobs: 4}); err == nil {
		t.Error("canceled context not honored")
	}
}

// TestRunRejectsContradictoryOptions: with the legacy wrappers gone,
// the silent-ignore semantics are gone with them — the one entry point
// rejects contradictions loudly.
func TestRunRejectsContradictoryOptions(t *testing.T) {
	w := buildAndRun(t, "sort")
	if _, err := Run(context.Background(), ImageSource{Image: w.im}, w.p, Options{MaxBreakArcs: 5}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("Run accepted MaxBreakArcs without AutoBreak: %v", err)
	}
	tab := symtab.FromSyms([]object.Sym{{Name: "f", Addr: 0, Size: 16}})
	p := &gmon.Profile{Hist: gmon.Histogram{Low: 0, High: 16, Step: 1, Counts: make([]uint32, 16)}, Hz: 60}
	if _, err := Run(context.Background(), TableSource{Table: tab}, p, Options{Static: true}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("Run accepted Static on a table source: %v", err)
	}
}

func TestCacheHitsAndSharing(t *testing.T) {
	w := buildAndRun(t, "sort")
	c := NewCache(4)
	tab1, _, err := c.load(w.im, false)
	if err != nil {
		t.Fatal(err)
	}
	tab2, _, err := c.load(w.im, false)
	if err != nil {
		t.Fatal(err)
	}
	if tab1 != tab2 {
		t.Error("repeated load of the same image built a second table")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestCacheLazyStaticScan(t *testing.T) {
	w := buildAndRun(t, "sort")
	c := NewCache(4)
	// First load without static: no scan happens.
	if _, static, err := c.load(w.im, false); err != nil || static != nil {
		t.Fatalf("load without static: arcs=%v err=%v", static, err)
	}
	// Asking later memoizes the scan on the existing entry.
	_, static, err := c.load(w.im, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(static) == 0 {
		t.Fatal("static scan empty on a hit")
	}
	_, again, err := c.load(w.im, true)
	if err != nil {
		t.Fatal(err)
	}
	if &static[0] != &again[0] {
		t.Error("static arcs re-scanned instead of memoized")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestCacheEviction(t *testing.T) {
	a := buildAndRun(t, "sort")
	b := buildAndRun(t, "parser")
	c := NewCache(1)
	if _, _, err := c.load(a.im, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.load(b.im, false); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after eviction", c.Len())
	}
	// a was evicted: loading it again misses.
	if _, _, err := c.load(a.im, false); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 3 {
		t.Errorf("stats = %d hits / %d misses, want 0/3", hits, misses)
	}
}

func TestCacheRejectsInvalidImage(t *testing.T) {
	// Overlapping symbols fail table validation and must not be cached.
	im := &object.Image{Funcs: []object.Sym{
		{Name: "a", Addr: 0, Size: 10},
		{Name: "b", Addr: 5, Size: 10},
	}}
	c := NewCache(4)
	if _, _, err := c.load(im, false); err == nil {
		t.Fatal("invalid image accepted")
	}
	if c.Len() != 0 {
		t.Errorf("invalid image cached: Len = %d", c.Len())
	}
}

// The stage list a traced run reports is fixed by the pipeline, not by
// the input: a 10^4-routine program, whose call chains run hundreds of
// routines deep and whose listing renders in hundreds of chunks, still
// reports a one-screen -stats summary.
func TestTracedRunStageNamesBounded(t *testing.T) {
	w := synth.Generate(synth.Tier(10000, 1))
	tr := obs.New()
	ctx := obs.NewContext(context.Background(), tr)
	res, err := Run(ctx, TableSource{Table: w.Table()}, w.Prof, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteAll(io.Discard); err != nil {
		t.Fatal(err)
	}
	rep := tr.Report()
	var names []string
	for _, st := range rep.Stages {
		names = append(names, st.Name)
	}
	if len(names) == 0 || len(names) > 16 {
		t.Errorf("traced run recorded %d distinct stages, want 1..16: %v", len(names), names)
	}
	if got, want := rep.Gauges["render.workers"], int64(report.Width(2)); got != want {
		t.Errorf("render.workers = %d, want %d", got, want)
	}
}

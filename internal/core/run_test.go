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

// TestRunParallelMatchesSerial: the parallel pipeline renders the same
// bytes as the serial run.
func TestRunParallelMatchesSerial(t *testing.T) {
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
			opt := Options{Static: true, Jobs: jobs}
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

// TestRunRejectsInvalidImage: an image whose symbols overlap fails
// table validation, so Run refuses it rather than attributing through
// an ambiguous address map.
func TestRunRejectsInvalidImage(t *testing.T) {
	im := &object.Image{Funcs: []object.Sym{
		{Name: "a", Addr: 0, Size: 10},
		{Name: "b", Addr: 5, Size: 10},
	}}
	p := &gmon.Profile{Hist: gmon.Histogram{Low: 0, High: 16, Step: 1, Counts: make([]uint32, 16)}, Hz: 60}
	if _, err := Run(context.Background(), ImageSource{Image: im}, p, Options{}); err == nil {
		t.Fatal("invalid image accepted")
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

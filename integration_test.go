// Integration tests: the end-to-end workflows a user of the tools walks
// through, at the library level — compile, link, save the executable,
// run profiled, write gmon.out, read both back, post-process, render.
package repro

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/symtab"
	"repro/internal/workloads"
)

// TestToolWorkflow is the vmrun -p → gprof round trip through real
// files.
func TestToolWorkflow(t *testing.T) {
	dir := t.TempDir()
	exe := filepath.Join(dir, "a.out")
	data := filepath.Join(dir, "gmon.out")

	// vmrun -p -workload sort -save a.out -o gmon.out
	im, err := workloads.Build("sort", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := object.WriteImageFile(exe, im); err != nil {
		t.Fatal(err)
	}
	p, res, _, err := workloads.Run(im, workloads.RunConfig{Seed: 4, TickCycles: 400, MaxCycles: 1 << 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 1 {
		t.Fatalf("sort exited %d, want 1", res.ExitCode)
	}
	if err := gmon.WriteFileVersion(data, p, gmon.Version1); err != nil {
		t.Fatal(err)
	}

	// gprof a.out gmon.out
	im2, err := object.ReadImageFile(exe)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := gmon.ReadFiles(context.Background(), []string{data}, 1)
	if err != nil {
		t.Fatal(err)
	}
	result, err := core.Run(context.Background(), core.ImageSource{Image: im2}, p2, core.Options{Static: true})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := result.WriteAll(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"call graph profile", "flat profile", "index by function name",
		"qsort", "partition", "less", "swap",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The same data through prof (the baseline tool).
	var profOut bytes.Buffer
	if err := prof.Write(&profOut, symtab.New(im2), p2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(profOut.String(), "ms/call") {
		t.Error("prof output malformed")
	}
}

// TestMultiRunWorkflow: several gmon files summed by the reader.
func TestMultiRunWorkflow(t *testing.T) {
	dir := t.TempDir()
	im, err := workloads.Build("matrix", true)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	var singleTicks int64
	for i := 0; i < 3; i++ {
		p, _, _, err := workloads.Run(im, workloads.RunConfig{Seed: 5, TickCycles: 500, MaxCycles: 1 << 32})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			singleTicks = p.Hist.TotalTicks()
		}
		f := filepath.Join(dir, "gmon."+string(rune('0'+i)))
		if err := gmon.WriteFileVersion(f, p, gmon.Version1); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	total, err := gmon.ReadFiles(context.Background(), files, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := total.Hist.TotalTicks(); got != 3*singleTicks {
		t.Errorf("merged ticks = %d, want %d", got, 3*singleTicks)
	}
	if _, err := core.Run(context.Background(), core.ImageSource{Image: im}, total, core.Options{}); err != nil {
		t.Errorf("merged profile analysis: %v", err)
	}
}

// TestProfiledRunPreservesBehaviour: for every workload, the profiled
// build computes the same answer and emits data that analyzes cleanly
// with every post-processing option combination.
func TestProfiledRunPreservesBehaviour(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			im, err := workloads.Build(name, true)
			if err != nil {
				t.Fatal(err)
			}
			p, _, _, err := workloads.Run(im, workloads.RunConfig{Seed: 11, TickCycles: 700, MaxCycles: 1 << 32})
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range []core.Options{
				{},
				{Static: true},
				{AutoBreak: true},
				{Static: true, AutoBreak: true},
				{Report: report.Options{MinPercent: 10}},
			} {
				res, err := core.Run(context.Background(), core.ImageSource{Image: im}, p, opt)
				if err != nil {
					t.Fatalf("options %+v: %v", opt, err)
				}
				var buf bytes.Buffer
				if err := res.WriteAll(&buf); err != nil {
					t.Fatalf("render with %+v: %v", opt, err)
				}
				if buf.Len() == 0 {
					t.Fatalf("empty report with %+v", opt)
				}
			}
		})
	}
}

// TestGranularitySweep: coarser histograms still conserve total time.
func TestGranularitySweep(t *testing.T) {
	im, err := workloads.Build("hash", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, gran := range []int64{1, 2, 8, 32, 128} {
		p, _, _, err := workloads.Run(im, workloads.RunConfig{
			Granularity: gran, TickCycles: 400, MaxCycles: 1 << 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(context.Background(), core.ImageSource{Image: im}, p, core.Options{})
		if err != nil {
			t.Fatalf("granularity %d: %v", gran, err)
		}
		var selfSum float64
		for _, r := range res.Model.Routines {
			selfSum += r.SelfTicks
		}
		diff := selfSum + res.Model.LostTicks - res.Model.TotalTicks
		if diff > 1e-6 || diff < -1e-6 {
			t.Errorf("granularity %d: conservation off by %v", gran, diff)
		}
	}
}

// TestReportDeterminism: the same profile analyzed twice renders
// byte-identical reports — no map-iteration order leaks into output.
func TestReportDeterminism(t *testing.T) {
	im, err := workloads.Build("service", true)
	if err != nil {
		t.Fatal(err)
	}
	p, _, _, err := workloads.Run(im, workloads.RunConfig{TickCycles: 300, MaxCycles: 1 << 32})
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		res, err := core.Run(context.Background(), core.ImageSource{Image: im}, p.Clone(), core.Options{Static: true, AutoBreak: true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteAll(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Error("two renders of the same profile differ")
	}
}

// TestZeroTickProfile: a program too fast to receive any clock tick
// still produces a usable report (call counts are exact even when the
// histogram is empty).
func TestZeroTickProfile(t *testing.T) {
	src := `
func leaf() { return 1; }
func main() { return leaf(); }`
	im, err := workloads.BuildSource("fast.tl", src, true)
	if err != nil {
		t.Fatal(err)
	}
	p, _, _, err := workloads.Run(im, workloads.RunConfig{TickCycles: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if p.Hist.TotalTicks() != 0 {
		t.Fatalf("expected no ticks, got %d", p.Hist.TotalTicks())
	}
	res, err := core.Run(context.Background(), core.ImageSource{Image: im}, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if leaf, ok := res.Model.Routine("leaf"); !ok || leaf.Calls != 1 {
		t.Error("call counts lost without histogram samples")
	}
	var buf bytes.Buffer
	if err := res.WriteAll(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "leaf") {
		t.Error("report unusable without samples")
	}
}

// TestConcurrentAnalyses drives the pipeline — profile merging, the
// analysis stages and rendering — from several goroutines that share
// one symbol table per image through TableSource, the way gprofd's
// queries share a registered executable's table, so `go test -race`
// sweeps the concurrency for unsynchronized access. Every goroutine's
// listing must equal a serial run's bytes.
func TestConcurrentAnalyses(t *testing.T) {
	tables := map[string]*symtab.Table{}
	profiles := map[string][]*gmon.Profile{}
	want := map[string][]byte{}
	for _, name := range []string{"sort", "parser", "service"} {
		im, err := workloads.Build(name, true)
		if err != nil {
			t.Fatal(err)
		}
		tables[name] = symtab.New(im)
		for seed := uint64(1); seed <= 4; seed++ {
			p, _, _, err := workloads.Run(im, workloads.RunConfig{Seed: seed, TickCycles: 500, MaxCycles: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			profiles[name] = append(profiles[name], p)
		}
		merged, err := gmon.MergeAll(context.Background(), profiles[name], 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(context.Background(), core.ImageSource{Image: im}, merged, core.Options{Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteAll(&buf); err != nil {
			t.Fatal(err)
		}
		want[name] = buf.Bytes()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for round := 0; round < 3; round++ {
		for name := range tables {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				merged, err := gmon.MergeAll(context.Background(), profiles[name], 4)
				if err != nil {
					errs <- err
					return
				}
				res, err := core.Run(context.Background(), core.TableSource{Table: tables[name]}, merged,
					core.Options{Jobs: 4})
				if err != nil {
					errs <- err
					return
				}
				var buf bytes.Buffer
				if err := res.WriteAll(&buf); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf.Bytes(), want[name]) {
					errs <- fmt.Errorf("%s: concurrent listing differs from the serial run", name)
				}
			}(name)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

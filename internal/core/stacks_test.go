package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/model"
	"repro/internal/workloads"
)

// runStacked builds and runs a workload with whole-stack sampling on.
func runStacked(t *testing.T, name string) imageAndProfile {
	t.Helper()
	image, err := workloads.Build(name, true)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	p, _, _, err := workloads.Run(image, workloads.RunConfig{
		Seed: 3, TickCycles: 200, MaxCycles: 1 << 30, Stacks: true,
	})
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	if len(p.Stacks) == 0 {
		t.Fatalf("%s: profile carries no stacks", name)
	}
	return imageAndProfile{image, p}
}

// TestUnifiedStackPipelineE8: the retrospective's experiment through
// the one pipeline — collection in mon, gmon v3 profile, model Stacks
// view. pricey() runs on behalf of one of its two call sites almost
// exclusively, so its measured inclusive time must sit near the
// whole-run mark where the arc view's equal-cost-per-call assumption
// splits it down the middle.
func TestUnifiedStackPipelineE8(t *testing.T) {
	w := runStacked(t, "unequal")
	res, err := Run(context.Background(), ImageSource{Image: w.im}, w.p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.Schema != model.SchemaV2 {
		t.Errorf("schema = %q, want %q", res.Model.Schema, model.SchemaV2)
	}
	v := res.Model.Stacks
	if v == nil {
		t.Fatal("no stacks view built")
	}
	measured := v.InclusiveFraction("pricey")
	if measured < 0.8 {
		t.Errorf("pricey measured inclusive = %.2f, want > 0.8", measured)
	}
	// The arc view still underestimates — that contrast is the point of
	// carrying both views in one profile.
	pricey, ok := res.Model.Routine("pricey")
	if !ok {
		t.Fatal("no routine pricey in the profile")
	}
	est := pricey.TotalTicks() / res.Model.TotalTicks
	if est > 0.5 {
		t.Errorf("arc-view estimate = %.2f; expected the equal-cost flaw to underestimate (< 0.5)", est)
	}

	// Cross-check against whole stacks sampled from an uninstrumented
	// build: same workload, same tick rate, so the two measurements agree
	// within sampling error.
	plain, err := workloads.Build("unequal", false)
	if err != nil {
		t.Fatal(err)
	}
	pp, _, _, err := workloads.Run(plain, workloads.RunConfig{TickCycles: 200, MaxCycles: 1 << 30, Stacks: true})
	if err != nil {
		t.Fatal(err)
	}
	truthRes, err := Run(context.Background(), ImageSource{Image: plain}, pp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := truthRes.Model.Stacks.InclusiveFraction("pricey")
	if diff := measured - truth; diff < -0.05 || diff > 0.05 {
		t.Errorf("instrumented build %.3f vs uninstrumented build %.3f: |diff| > 0.05", measured, truth)
	}
}

// TestStacksViewJobsInvariance: the Stacks view and its renderings are
// byte-identical across worker counts — parallelism must not leak into
// the output.
func TestStacksViewJobsInvariance(t *testing.T) {
	w := runStacked(t, "sort")
	render := func(jobs int) (modelJSON, folded, pprof []byte) {
		t.Helper()
		res, err := Run(context.Background(), ImageSource{Image: w.im}, w.p, Options{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var mj, fo, pb bytes.Buffer
		if err := model.Encode(&mj, res.Model); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteFolded(&fo); err != nil {
			t.Fatal(err)
		}
		if err := res.WritePprof(&pb); err != nil {
			t.Fatal(err)
		}
		return mj.Bytes(), fo.Bytes(), pb.Bytes()
	}
	wantJSON, wantFolded, wantPprof := render(1)
	if len(wantFolded) == 0 {
		t.Fatal("folded rendering is empty")
	}
	for _, jobs := range []int{4, 13} {
		gotJSON, gotFolded, gotPprof := render(jobs)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("jobs=%d: model JSON differs from jobs=1", jobs)
		}
		if !bytes.Equal(gotFolded, wantFolded) {
			t.Errorf("jobs=%d: folded output differs from jobs=1", jobs)
		}
		if !bytes.Equal(gotPprof, wantPprof) {
			t.Errorf("jobs=%d: pprof output differs from jobs=1", jobs)
		}
	}
}

// TestStacklessProfileKeepsV1: without stack samples nothing changes —
// v1 schema, no view, and the stack renderers refuse loudly.
func TestStacklessProfileKeepsV1(t *testing.T) {
	w := buildAndRun(t, "sort")
	res, err := Run(context.Background(), ImageSource{Image: w.im}, w.p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.Schema != model.Schema {
		t.Errorf("schema = %q, want %q", res.Model.Schema, model.Schema)
	}
	if res.Model.Stacks != nil {
		t.Error("stack-less profile grew a stacks view")
	}
	if err := res.WriteFolded(&bytes.Buffer{}); !errors.Is(err, model.ErrNoStacks) {
		t.Errorf("WriteFolded err = %v, want ErrNoStacks", err)
	}
	if err := res.WritePprof(&bytes.Buffer{}); !errors.Is(err, model.ErrNoStacks) {
		t.Errorf("WritePprof err = %v, want ErrNoStacks", err)
	}
}

package report

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/gmon"
	"repro/internal/model"
)

func stackedProfile(t *testing.T) *model.Profile {
	t.Helper()
	resolve := func(pc int64) (string, bool) {
		switch pc / 0x10 {
		case 0:
			return "main", true
		case 1:
			return "work", true
		case 2:
			return "spin", true
		}
		return "", false
	}
	stacks := []gmon.StackSample{
		{PCs: []int64{0x24, 0x18, 0x08}, Count: 5}, // main;work;spin
		{PCs: []int64{0x14, 0x08}, Count: 3},       // main;work
		{PCs: []int64{0x24, 0x08}, Count: 2},       // main;spin
		{PCs: []int64{0x04}, Count: 9},             // main
	}
	return &model.Profile{
		Schema: model.SchemaV2,
		Hz:     60,
		Stacks: model.BuildStacks(stacks, resolve, 0),
	}
}

// TestFoldedGolden pins the collapsed-stack bytes: one line per path
// with self time, string-sorted — the order and format flame-graph
// tooling expects — and the self/inclusive table's header and rows.
func TestFoldedGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Folded(&buf, stackedProfile(t)); err != nil {
		t.Fatal(err)
	}
	want := "main 9\n" +
		"main;spin 2\n" +
		"main;work 3\n" +
		"main;work;spin 5\n"
	if buf.String() != want {
		t.Errorf("folded output:\n%s\nwant:\n%s", buf.String(), want)
	}

	// The same view as the self/inclusive table, in the view's order.
	buf.Reset()
	if err := StackTable(&buf, stackedProfile(t)); err != nil {
		t.Fatal(err)
	}
	want = "stack-sample profile: 19 samples (0 truncated walks)\n" +
		"  %incl   %self  inclusive    self  name\n" +
		"  100.0    47.4         19       9  main\n" +
		"   42.1    15.8          8       3  work\n" +
		"   36.8    36.8          7       7  spin\n"
	if buf.String() != want {
		t.Errorf("stack table:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestFoldedSkipsZeroSelfPaths: interior paths that were never a
// sample's leaf produce no line.
func TestFoldedSkipsZeroSelfPaths(t *testing.T) {
	p := &model.Profile{
		Schema: model.SchemaV2,
		Hz:     60,
		Stacks: &model.StackView{
			Samples: 4,
			Nodes: []model.StackNode{
				{Name: "main", Parent: -1, SelfTicks: 0, InclusiveTicks: 4},
				{Name: "leafy", Parent: 0, SelfTicks: 4, InclusiveTicks: 4},
			},
			Routines: []model.StackRoutine{
				{Name: "leafy", SelfTicks: 4, InclusiveTicks: 4},
				{Name: "main", SelfTicks: 0, InclusiveTicks: 4},
			},
		},
	}
	var buf bytes.Buffer
	if err := Folded(&buf, p); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "main;leafy 4\n"; got != want {
		t.Errorf("folded = %q, want %q", got, want)
	}
}

func TestFoldedNoStacks(t *testing.T) {
	err := Folded(&bytes.Buffer{}, &model.Profile{Schema: model.Schema, Hz: 60})
	if !errors.Is(err, model.ErrNoStacks) {
		t.Errorf("err = %v, want ErrNoStacks", err)
	}
	// The table reports the absence as zero samples.
	var buf bytes.Buffer
	if err := StackTable(&buf, &model.Profile{Schema: model.Schema, Hz: 60}); err != nil {
		t.Fatal(err)
	}
	if want := "stack-sample profile: 0 samples (0 truncated walks)\n  %incl   %self  inclusive    self  name\n"; buf.String() != want {
		t.Errorf("stack table without stacks = %q, want %q", buf.String(), want)
	}
}

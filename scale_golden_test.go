package repro

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/report"
	"repro/internal/synth"
)

// TestScaleListingPinned pins the gprof listing at scale: the text of
//
//	synthgen -nodes 10000 -seed 1 -format 2 -image a.out -o gmon.out
//	gprof [-brief] -jobs J a.out gmon.out
//
// by SHA-256, at two -jobs widths. The workload has 50 cycles and a
// spontaneous arc, so every entry shape is rendered thousands of times;
// the toy goldens cannot catch a drift that only large or unusual
// numbers trigger.
func TestScaleListingPinned(t *testing.T) {
	const (
		briefSHA = "f4d6b977b68ef4f8d5c151c22974fa5f3a4c0755a48913e425e1d6f0e8c48656"
		fullSHA  = "7409ff124887cfb43ed75a31f7b356f80b50baa0df59bd8e9a24bc45f7c3e945"
	)
	dir := t.TempDir()
	exe, data := filepath.Join(dir, "a.out"), filepath.Join(dir, "gmon.out")
	w := synth.Generate(synth.Tier(10000, 1))
	if err := gmon.WriteFileVersion(data, w.Prof, gmon.Version2); err != nil {
		t.Fatal(err)
	}
	if err := object.WriteImageFile(exe, w.Image()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, jobs := range []int{1, 4} {
		im, err := object.ReadImageFile(exe)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.LoadProfiles(ctx, []string{data}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, brief := range []bool{true, false} {
			want := fullSHA
			if brief {
				want = briefSHA
			}
			res, err := core.Run(ctx, core.ImageSource{Image: im}, p,
				core.Options{Jobs: jobs, Report: report.Options{NoHeaders: brief}})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := res.WriteAll(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("-jobs %d brief=%v: listing sha256 %s, want %s", jobs, brief, got, want)
			}
		}
	}
}

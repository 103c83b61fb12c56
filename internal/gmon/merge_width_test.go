package gmon_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/gmon"
	"repro/internal/synth"
)

// TestMergeAllStreamingWidthIndependentDuplicates: summing a mix of v1
// (file order) and v2 (canonical order) copies of one synthetic profile
// whose arc table holds duplicate (FromPC, SelfPC) keys — call-site
// collisions — gives the same bytes at every worker count. A fold that
// adds into a v1 accumulator's duplicates in file order and sorts
// afterwards lands the counts on a different duplicate depending on
// which partial sums meet first.
func TestMergeAllStreamingWidthIndependentDuplicates(t *testing.T) {
	prof := synth.Generate(synth.Tier(10000, 1)).Prof
	if dups := duplicateKeys(prof.Arcs); dups == 0 {
		t.Fatal("synthetic profile has no duplicate arc keys; the test exercises nothing")
	}
	dir := t.TempDir()
	v1 := filepath.Join(dir, "g1")
	v2 := filepath.Join(dir, "g2")
	if err := gmon.WriteFileVersion(v1, prof, gmon.Version1); err != nil {
		t.Fatal(err)
	}
	if err := gmon.WriteFileVersion(v2, prof, gmon.Version2); err != nil {
		t.Fatal(err)
	}
	names := []string{v1, v2, v1, v1, v2, v1, v2, v2}
	var want []byte
	for _, jobs := range []int{1, 2, 4} {
		sum, err := gmon.ReadFiles(context.Background(), names, jobs)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var buf bytes.Buffer
		if err := gmon.WriteVersion(&buf, sum, gmon.Version2); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("jobs=%d: summed bytes differ from jobs=1", jobs)
		}
	}
}

// duplicateKeys counts arcs whose (FromPC, SelfPC) key an earlier arc
// already holds.
func duplicateKeys(arcs []gmon.Arc) int {
	seen := make(map[[2]int64]bool, len(arcs))
	n := 0
	for _, a := range arcs {
		k := [2]int64{a.FromPC, a.SelfPC}
		if seen[k] {
			n++
		}
		seen[k] = true
	}
	return n
}

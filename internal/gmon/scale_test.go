package gmon

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/cputime"
)

// TestReadFileScalesLinearly is the decode layer's scaling gate:
// reading a profile data file with 2n histogram buckets and arc
// records must cost at most 3x reading one with n. Linear cost reads
// 2x; growing the result by a fixed batch at a time copies O(n^2)
// bytes and reads near 4x at this size. The reads are timed in pairs
// by cputime.PairRatio, and the gate reads the median pair's ratio.
func TestReadFileScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate")
	}
	const n = 1 << 20
	dir := t.TempDir()
	small, large := filepath.Join(dir, "small"), filepath.Join(dir, "large")
	for name, size := range map[string]int{small: n, large: 2 * n} {
		if err := WriteFileVersion(name, scaleProfile(size), Version1); err != nil {
			t.Fatal(err)
		}
	}
	read := func(name string) func() {
		return func() {
			if _, err := ReadFile(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	ratio, ratios := cputime.PairRatio(read(small), read(large))
	t.Logf("ReadFile: n=%d, pair ratios t(2n)/t(n) %.2f, median %.2f", n, ratios, ratio)
	if ratio > 3 {
		t.Errorf("reading %d records took a median %.2fx the time for %d, more than 3x", 2*n, ratio, n)
	}
}

// scaleProfile returns a profile with n histogram buckets and n arcs.
func scaleProfile(n int) *Profile {
	p := &Profile{Hist: Histogram{Low: 0, High: int64(n), Step: 1, Counts: make([]uint32, n)}}
	p.Arcs = make([]Arc, n)
	for i := range p.Arcs {
		p.Arcs[i] = Arc{FromPC: int64(i), SelfPC: int64(i / 2), Count: int64(i%7 + 1)}
		p.Hist.Counts[i] = uint32(i % 5)
	}
	return p
}

// TestMergeAllScalesLinearly is the fold's scaling gate: summing four
// profiles of 2n arcs each must cost at most 3x summing four of n.
// Each input shifts its call sites a quarter of the way past the
// previous one's, so every merge both adds into existing keys and
// brings new ones. A linear fold reads about 2x; one that scans the
// accumulator from its start for every incoming arc reads near 4x. The
// fold runs at width 1, on the calling thread that cputime.PairRatio
// times, and the gate reads the median pair's ratio.
func TestMergeAllScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate")
	}
	const n = 1 << 15
	inputs := func(n int) []*Profile {
		ps := make([]*Profile, 4)
		for j := range ps {
			ps[j] = scaleProfile(n)
			for i := range ps[j].Arcs {
				ps[j].Arcs[i].FromPC += int64(j * n / 4)
			}
		}
		return ps
	}
	merge := func(ps []*Profile) func() {
		return func() {
			if _, err := MergeAll(context.Background(), ps, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	ratio, ratios := cputime.PairRatio(merge(inputs(n)), merge(inputs(2*n)))
	t.Logf("MergeAll: n=%d, pair ratios t(2n)/t(n) %.2f, median %.2f", n, ratios, ratio)
	if ratio > 3 {
		t.Errorf("summing profiles of %d arcs took a median %.2fx the time for %d, more than 3x", 2*n, ratio, n)
	}
}

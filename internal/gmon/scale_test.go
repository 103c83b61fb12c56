package gmon

import (
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
		if err := WriteFile(name, scaleProfile(size)); err != nil {
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

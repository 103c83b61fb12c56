package gmon

import (
	"path/filepath"
	"testing"
	"time"
)

// TestReadFileScalesLinearly is the decode layer's scaling gate:
// reading a profile data file with 2n histogram buckets and arc
// records must cost at most 3x reading one with n. Linear cost reads
// 2x; growing the result by a fixed batch at a time copies O(n^2)
// bytes and reads near 4x at this size. The two files are read
// alternately and each keeps its best time, so a descheduled run or a
// busy spell of the host cannot fail the gate.
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
	ts, tl := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 7; i++ {
		ts = min(ts, timeReadFile(t, small))
		tl = min(tl, timeReadFile(t, large))
	}
	t.Logf("ReadFile: n=%d %v, 2n %v (ratio %.2f)", n, ts, tl, float64(tl)/float64(ts))
	if tl > 3*ts {
		t.Errorf("reading %d records took %v, more than 3x the %v for %d", 2*n, tl, ts, n)
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

func timeReadFile(t *testing.T, name string) time.Duration {
	t.Helper()
	start := time.Now()
	if _, err := ReadFile(name); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

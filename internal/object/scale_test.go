package object

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/isa"
)

// TestReadImageFileScalesLinearly is the image-load layer's scaling
// gate: reading an executable with 2n text words and routines must
// cost at most 3x reading one with n. Linear cost reads 2x; growing
// the text by a fixed batch at a time copies O(n^2) bytes and reads
// near 4x at this size. The two files are read alternately and each
// keeps its best time, so a descheduled run or a busy spell of the
// host cannot fail the gate.
func TestReadImageFileScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate")
	}
	const n = 1 << 20
	dir := t.TempDir()
	small, large := filepath.Join(dir, "small"), filepath.Join(dir, "large")
	for name, size := range map[string]int{small: n, large: 2 * n} {
		if err := WriteImageFile(name, scaleImage(size)); err != nil {
			t.Fatal(err)
		}
	}
	ts, tl := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < 7; i++ {
		ts = min(ts, timeReadImageFile(t, small))
		tl = min(tl, timeReadImageFile(t, large))
	}
	t.Logf("ReadImageFile: n=%d %v, 2n %v (ratio %.2f)", n, ts, tl, float64(tl)/float64(ts))
	if tl > 3*ts {
		t.Errorf("reading %d words took %v, more than 3x the %v for %d", 2*n, tl, ts, n)
	}
}

// scaleImage returns an image of n text words split into n/16
// routines of 16 words each.
func scaleImage(n int) *Image {
	im := &Image{Text: make([]isa.Word, n)}
	for i := range im.Text {
		im.Text[i] = isa.Word(i)
	}
	for a := 0; a < n; a += 16 {
		im.Funcs = append(im.Funcs, Sym{Name: "f" + string(rune('a'+a%26)), Addr: int64(a), Size: 16})
	}
	return im
}

func timeReadImageFile(t *testing.T, name string) time.Duration {
	t.Helper()
	start := time.Now()
	if _, err := ReadImageFile(name); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

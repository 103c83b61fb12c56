package object

import (
	"path/filepath"
	"testing"

	"repro/internal/cputime"
	"repro/internal/isa"
)

// TestReadImageFileScalesLinearly is the image-load layer's scaling
// gate: reading an executable with 2n text words and routines must
// cost at most 3x reading one with n. Linear cost reads 2x; growing
// the text by a fixed batch at a time copies O(n^2) bytes and reads
// near 4x at this size. The reads are timed in pairs by
// cputime.PairRatio, and the gate reads the median pair's ratio.
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
	read := func(name string) func() {
		return func() {
			if _, err := ReadImageFile(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	ratio, ratios := cputime.PairRatio(read(small), read(large))
	t.Logf("ReadImageFile: n=%d, pair ratios t(2n)/t(n) %.2f, median %.2f", n, ratios, ratio)
	if ratio > 3 {
		t.Errorf("reading %d words took a median %.2fx the time for %d, more than 3x", 2*n, ratio, n)
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

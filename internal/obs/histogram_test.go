package obs

import (
	"math/rand"
	"testing"
)

// TestHistogramBucketGeometry pins the log-linear bucket map: indexes
// are monotonic, every value falls inside its bucket's bounds, and the
// bucket width never exceeds 1/histSub of the lower bound.
func TestHistogramBucketGeometry(t *testing.T) {
	probe := []int64{0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 100, 1000, 4095, 4096,
		1 << 20, 1<<20 + 1, 1 << 40, 1<<62 - 1, 1 << 62, 1<<63 - 1}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		probe = append(probe, rng.Int63())
	}
	for _, v := range probe {
		i := histBucket(v)
		if i < 0 || i >= numHistBuckets {
			t.Fatalf("histBucket(%d) = %d out of range", v, i)
		}
		if up := histUpper(i); v > up {
			t.Fatalf("value %d above its bucket upper %d (bucket %d)", v, up, i)
		}
		if i > 0 {
			if low := histUpper(i - 1); v <= low {
				t.Fatalf("value %d at or below previous bucket upper %d (bucket %d)", v, low, i)
			}
		}
	}
	// Monotonic indexes and contiguous uppers across every bucket.
	for i := 1; i < numHistBuckets; i++ {
		lo, hi := histUpper(i-1), histUpper(i)
		if hi <= lo {
			t.Fatalf("bucket uppers not increasing: upper(%d)=%d, upper(%d)=%d", i-1, lo, i, hi)
		}
		if got := histBucket(lo + 1); got != i {
			t.Fatalf("histBucket(%d) = %d, want %d", lo+1, got, i)
		}
		if got := histBucket(hi); got != i {
			t.Fatalf("histBucket(%d) = %d, want %d", hi, got, i)
		}
	}
	if up := histUpper(numHistBuckets - 1); up != 1<<63-1 {
		t.Fatalf("last bucket upper = %d, want MaxInt64", up)
	}
}

// TestHistogramExactTotals pins Count and Sum as exact (not
// bucket-rounded) and negative clamping.
func TestHistogramExactTotals(t *testing.T) {
	h := &Histogram{}
	var sum int64
	for i := int64(0); i < 1000; i++ {
		h.Observe(i * 37)
		sum += i * 37
	}
	h.Observe(-5) // clamps to 0
	if h.Count() != 1001 {
		t.Errorf("Count = %d, want 1001", h.Count())
	}
	if h.Sum() != sum {
		t.Errorf("Sum = %d, want %d", h.Sum(), sum)
	}
	if b, _, _ := h.Snapshot(); b[0] != (HistogramBucket{Upper: 0, Count: 2}) {
		t.Errorf("lowest bucket = %+v, want the 0 and the clamped negative", b[0])
	}
}

// TestHistogramObserveZeroAlloc pins the acceptance criterion: Observe
// performs zero allocations.
func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := &Histogram{}
	v := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v += 977
	}); n != 0 {
		t.Errorf("Observe allocates %.1f per call, want 0", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.Observe(5) }); n != 0 {
		t.Errorf("nil Observe allocates %.1f per call, want 0", n)
	}
}

// TestHistogramNil covers the disabled (nil) surface.
func TestHistogramNil(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram not a no-op")
	}
	b, n, s := h.Snapshot()
	if b != nil || n != 0 || s != 0 {
		t.Error("nil Snapshot not empty")
	}
}

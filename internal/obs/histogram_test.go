package obs

import (
	"math/rand"
	"sort"
	"sync"
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

// TestHistogramQuantileProperty checks the estimation bound against a
// sorted reference on several distributions: the estimate never
// undershoots the true order statistic and overshoots by at most
// true/histSub + 1.
func TestHistogramQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	distributions := map[string]func() int64{
		"uniform":  func() int64 { return rng.Int63n(1_000_000) },
		"exp2":     func() int64 { return int64(1) << uint(rng.Intn(40)) },
		"latency":  func() int64 { return 50_000 + rng.Int63n(200_000)*rng.Int63n(3) },
		"tiny":     func() int64 { return rng.Int63n(10) },
		"constant": func() int64 { return 4242 },
	}
	quantiles := []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1.0}
	for name, gen := range distributions {
		h := &Histogram{name: name}
		vals := make([]int64, 5000)
		for i := range vals {
			vals[i] = gen()
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range quantiles {
			rank := int(q*float64(len(vals)) + 0.9999999)
			if rank < 1 {
				rank = 1
			}
			if rank > len(vals) {
				rank = len(vals)
			}
			want := vals[rank-1]
			got := h.Quantile(q)
			if got < want {
				t.Errorf("%s q=%v: estimate %d undershoots true %d", name, q, got, want)
			}
			if limit := want + want/histSub + 1; got > limit {
				t.Errorf("%s q=%v: estimate %d exceeds bound %d (true %d)", name, q, got, limit, want)
			}
		}
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
	if h.Quantile(0.0001) != 0 {
		t.Errorf("min quantile = %d, want 0 (clamped negative)", h.Quantile(0.0001))
	}
}

// TestHistogramMergeRace merges shards into a target while they are
// still observing (run under -race as part of the race target): the
// final totals must be exact once writers stop.
func TestHistogramMergeRace(t *testing.T) {
	const (
		workers = 8
		perW    = 10_000
	)
	shards := make([]*Histogram, workers)
	for i := range shards {
		shards[i] = &Histogram{}
	}
	target := &Histogram{}
	stop := make(chan struct{})
	mergerDone := make(chan struct{})
	// Concurrent merger exercising the snapshot-under-write path.
	go func() {
		defer close(mergerDone)
		scratch := &Histogram{}
		for {
			select {
			case <-stop:
				return
			default:
				for _, s := range shards {
					scratch.Merge(s)
				}
				_ = scratch.Quantile(0.5)
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				shards[w].Observe(rng.Int63n(1 << 30))
			}
		}(w)
	}
	// Wait for writers, stop the racing merger, then do the real merge.
	writers.Wait()
	close(stop)
	<-mergerDone
	var wantSum int64
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < perW; i++ {
			wantSum += rng.Int63n(1 << 30)
		}
		target.Merge(shards[w])
	}
	if target.Count() != workers*perW {
		t.Errorf("merged Count = %d, want %d", target.Count(), workers*perW)
	}
	if target.Sum() != wantSum {
		t.Errorf("merged Sum = %d, want %d", target.Sum(), wantSum)
	}
	_, bucketTotal, _ := target.Snapshot()
	if bucketTotal != int64(workers*perW) {
		t.Errorf("bucket total = %d, want %d", bucketTotal, workers*perW)
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
	h.Merge(&Histogram{})
	(&Histogram{}).Merge(h)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 || h.Name() != "" {
		t.Error("nil histogram not a no-op")
	}
	b, n, s := h.Snapshot()
	if b != nil || n != 0 || s != 0 {
		t.Error("nil Snapshot not empty")
	}
}

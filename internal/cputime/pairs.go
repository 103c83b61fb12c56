package cputime

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"time"
)

// pairs is the number of back-to-back pairs PairRatio times.
const pairs = 11

// PairRatio is the timing scheme of the linearity gates, which check
// that a stage given 2n items costs at most a bound times the stage
// given n. It runs small and large in 11 back-to-back pairs,
// alternating which goes first, and returns the median of the pairs'
// t(large)/t(small) ratios along with all of them, sorted. Each run is
// timed by its thread's CPU clock on the locked calling thread and
// starts from a heap collected and returned to the OS, and the
// collector is off while the pairs run. So neither the CPU other
// processes take, nor a collection cycle, nor a run of fresh-page
// faults can land in one size alone, and one disturbed pair cannot
// move the median. Wall-clock best times, compared size against size,
// read well above the linear 2x on a 2-CPU host busy with other test
// binaries: the short run catches a quiet moment that the long one
// rarely does.
func PairRatio(small, large func()) (median float64, ratios []float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ratios = make([]float64, pairs)
	for i := range ratios {
		var ts, tl time.Duration
		if i%2 == 0 {
			ts, tl = timeRun(small), timeRun(large)
		} else {
			tl, ts = timeRun(large), timeRun(small)
		}
		ratios[i] = float64(tl) / float64(ts)
	}
	slices.Sort(ratios)
	return ratios[pairs/2], ratios
}

func timeRun(f func()) time.Duration {
	debug.FreeOSMemory()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := Thread()
	f()
	return Thread() - start
}

// heapAllocs is the runtime metric of the bytes allocated on the heap
// since the program started.
const heapAllocs = "/gc/heap/allocs:bytes"

// Allocated returns the heap bytes one run of f allocates. It collects
// twice first, which empties every sync.Pool (the first collection
// moves a pool's items to its victim cache, the second drops them), so
// f pays for whatever it draws from a pool; the collector stays off
// while f runs, so no collection can empty a pool midway. The count is
// read after a further collection, which flushes the per-P allocation
// caches into the total. A function that fills a lazily built
// structure on its first call should be called once before.
func Allocated(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.GC()
	before := readAllocs()
	f()
	runtime.GC()
	return readAllocs() - before
}

func readAllocs() uint64 {
	s := []metrics.Sample{{Name: heapAllocs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

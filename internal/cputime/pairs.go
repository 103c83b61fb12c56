package cputime

import (
	"runtime"
	"runtime/debug"
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

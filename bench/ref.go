package main

import (
	"runtime"
	"sort"
	"time"
)

// refSink keeps refKernel's result live.
var refSink uint64

// refNominal is refKernel's typical time on the 2-vCPU VM the bounds
// were set on, in seconds; setup_s is scaled to it.
const refNominal = 0.18

// refKernel times a fixed computation of the harness's own: generate
// 2^19 records, index a quarter of them in a map, sort them, and look
// each up. Like gprof and gprofd's analysis it allocates, hashes and
// sorts a working set far larger than the caches, so its time tracks
// how fast the host runs at that moment, and no change to the
// repository moves it. latency_p50_rel divides each CPU-bound
// operation's latency by the kernel's time right after it, which
// cancels the host's drift. The heap is collected first so every call
// starts from the same state.
func refKernel() time.Duration {
	runtime.GC()
	start := time.Now()
	const n = 1 << 19
	type rec struct{ k, v uint64 }
	xs := make([]rec, n)
	r := rng(1)
	for i := range xs {
		xs[i] = rec{r.next(), uint64(i)}
	}
	m := make(map[uint64]uint64, n/4)
	for i := 0; i < n; i += 4 {
		m[xs[i].k] = uint64(i)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].k < xs[j].k })
	var s uint64
	for _, x := range xs {
		s += m[x.k]
	}
	refSink = s
	return time.Since(start)
}

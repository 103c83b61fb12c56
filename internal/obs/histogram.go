package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram is a mergeable, log-bucketed distribution of non-negative
// int64 observations (latencies in ns, sizes in bytes, queue depths).
// Observe is lock-free and allocation-free: three atomic adds into a
// fixed bucket array, nothing else — cheap enough to sit on every
// request of a production service. Count and Sum are exact; quantiles
// are estimated from the buckets with a bounded relative error.
//
// Bucketing is log-linear: each power-of-two octave is split into
// histSub linear sub-buckets, so a bucket's width is at most 1/histSub
// of its lower bound and Quantile over-reports by at most a factor of
// (1 + 1/histSub). Values below histSub get exact unit buckets. The
// geometry is fixed and shared by every Histogram, which is what makes
// Merge a plain bucket-wise add with no resampling.
//
// A nil *Histogram — what a nil Registry hands out — is a no-op,
// matching Counter and Gauge.
type Histogram struct {
	name    string
	sum     atomic.Int64
	buckets [numHistBuckets]atomic.Int64
}

// histSubBits selects 2^3 = 8 sub-buckets per octave: <= 12.5% bucket
// width, 3 shifts and a mask to index.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
)

// numHistBuckets covers the full non-negative int64 range: histSub unit
// buckets, then histSub buckets per octave from 2^histSubBits up to
// 2^63-1.
const numHistBuckets = histSub + (63-histSubBits)*histSub

// histBucket maps a non-negative value to its bucket index. Monotonic:
// v1 <= v2 implies histBucket(v1) <= histBucket(v2).
func histBucket(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // position of the top set bit
	return histSub + (e-histSubBits)*histSub + int(v>>(uint(e)-histSubBits)) - histSub
}

// histUpper returns the largest value that lands in bucket i (the
// bucket's inclusive upper bound) — what Quantile reports.
func histUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	k := uint((i - histSub) / histSub) // octave shift (e - histSubBits)
	sub := int64((i-histSub)%histSub) + histSub
	return (sub+1)<<k - 1
}

// Observe records one value. Negative values clamp to zero so a clock
// hiccup cannot corrupt the geometry. Safe for concurrent use; performs
// zero allocations (pinned by TestHistogramObserveZeroAlloc).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[histBucket(v)].Add(1)
	h.sum.Add(v)
}

// Count returns the exact number of observations: every Observe lands
// in exactly one bucket, so the bucket sum is the count and Observe
// needs no third atomic.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var total int64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	return total
}

// Sum returns the exact sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Name returns the registered name ("" for nil).
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Merge adds every observation recorded in o into h. Bucket geometry is
// global, so this is an exact bucket-wise sum: merged quantiles are as
// accurate as if every value had been observed on h directly. Merging a
// histogram that is concurrently observing folds in some consistent
// prefix of its updates.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.sum.Add(o.sum.Load())
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket holding the rank-ceil(q*n) observation: the estimate never
// undershoots the true value and overshoots by at most 1/histSub of it
// (plus 1 for integer rounding). Returns 0 when nothing was observed.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	var total int64
	var snap [numHistBuckets]int64
	for i := range h.buckets {
		snap[i] = h.buckets[i].Load()
		total += snap[i]
	}
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i, n := range snap {
		cum += n
		if cum >= rank {
			return histUpper(i)
		}
	}
	return histUpper(numHistBuckets - 1)
}

// HistogramBucket is one non-empty bucket in a snapshot: Count
// observations with value <= Upper (and above the previous bucket's
// Upper).
type HistogramBucket struct {
	Upper int64
	Count int64
}

// Snapshot returns the non-empty buckets in ascending order plus the
// totals they sum to. Under concurrent Observe calls the bucket counts
// are a consistent-enough prefix: BucketTotal (the sum of the returned
// counts) is internally consistent with the buckets by construction,
// which is what the exposition writer needs for `+Inf == _count`.
func (h *Histogram) Snapshot() (buckets []HistogramBucket, bucketTotal, sum int64) {
	if h == nil {
		return nil, 0, 0
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			buckets = append(buckets, HistogramBucket{Upper: histUpper(i), Count: n})
			bucketTotal += n
		}
	}
	return buckets, bucketTotal, h.sum.Load()
}

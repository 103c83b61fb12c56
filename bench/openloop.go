package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Request kinds an open loop keeps apart.
const (
	kindUpload = iota
	kindQuery
	numKinds
)

// abortLateness is how far behind schedule the generator may fall before
// a rung stops offering requests; such a rung has missed its limit long
// before.
const abortLateness = time.Second

// maxEndLateness is how late the generator may be at the end of a rung
// that still counts as keeping up.
const maxEndLateness = 100.0 // ms

// openResult is one open-loop phase at a fixed offered rate.
type openResult struct {
	rate    float64
	offered int                 // requests due during the phase
	sent    int                 // requests sent: offered, unless aborted
	failed  int                 // sent requests that failed
	lat     [numKinds][]float64 // successful requests, ms from their due time
	late    []float64           // every sent request, ms from due time to send
	endLate float64             // the last sent request's lateness, ms
	aborted bool
}

// openLoop offers rate·d requests, the i'th due at start + i/rate, from
// workers senders: independent users, not callers waiting for a reply.
// Each request is timed from when it was due, so a stall counts against
// every request queued behind it, and the time from due to send is the
// generator's lateness.
func openLoop(ctx context.Context, rate float64, d time.Duration, workers int, do func(i int) (kind int, err error)) *openResult {
	n := max(int(rate*d.Seconds()), 1)
	type sample struct {
		kind       int
		sent, fail bool
		late, lat  float64
	}
	samples := make([]sample, n)
	var next atomic.Int64
	var stop atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || stop.Load() || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				sent := time.Now()
				kind, err := do(i)
				samples[i] = sample{kind: kind, sent: true, fail: err != nil,
					late: ms(sent.Sub(due)), lat: ms(time.Since(due))}
				if sent.Sub(due) > abortLateness {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	res := &openResult{rate: rate, offered: n, aborted: stop.Load()}
	for _, s := range samples {
		if !s.sent {
			continue
		}
		res.sent++
		res.late = append(res.late, s.late)
		res.endLate = s.late
		if s.fail {
			res.failed++
		} else {
			res.lat[s.kind] = append(res.lat[s.kind], s.lat)
		}
	}
	return res
}

// rung is one ladder step's verdict inputs.
type rung struct {
	rate                  float64
	uploadTail, queryTail float64 // ms: the highest percentile with ten samples beyond it
	failedShare           float64
	endLate               float64 // ms
	aborted               bool
	limit                 float64 // ms, on both tails
}

func (res *openResult) rung(limit float64) rung {
	r := rung{rate: res.rate, endLate: res.endLate, aborted: res.aborted, limit: limit,
		uploadTail: tailOrMax(res.lat[kindUpload]), queryTail: tailOrMax(res.lat[kindQuery])}
	if res.sent > 0 {
		r.failedShare = float64(res.failed) / float64(res.sent)
	}
	return r
}

// tailOrMax is the tail percentile, or the maximum where too few
// samples leave ten beyond any percentile.
func tailOrMax(xs []float64) float64 {
	if _, v, ok := tail(xs); ok {
		return v
	}
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// ok reports whether the rung kept up: both tails within the limit, at
// most 0.1% failed, and the generator on schedule at the end.
func (r rung) ok() bool {
	return !r.aborted && r.failedShare <= 0.001 && r.uploadTail <= r.limit &&
		r.queryTail <= r.limit && r.endLate <= maxEndLateness
}

// maxRate is the highest offered rate among the rungs that kept up, or
// 0 when none did.
func maxRate(rs []rung) float64 {
	best := 0.0
	for _, r := range rs {
		if r.ok() {
			best = max(best, r.rate)
		}
	}
	return best
}

package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestOpenLoopKeepsUp offers requests a stub serves well within their
// spacing: the generator stays on schedule and every latency is the
// service time plus a little lateness.
func TestOpenLoopKeepsUp(t *testing.T) {
	res := openLoop(context.Background(), 100, 500*time.Millisecond, 1, func(i int) (int, error) {
		time.Sleep(time.Millisecond)
		return i % numKinds, nil
	})
	if res.offered != 50 || res.sent != 50 || res.failed != 0 || res.aborted {
		t.Fatalf("offered %d sent %d failed %d aborted %t, want 50 50 0 false", res.offered, res.sent, res.failed, res.aborted)
	}
	if n := len(res.lat[kindUpload]) + len(res.lat[kindQuery]); n != 50 {
		t.Fatalf("%d latencies, want 50", n)
	}
	if res.endLate > 20 {
		t.Errorf("generator %v ms late at the end of an idle phase", res.endLate)
	}
	for _, l := range res.lat[kindUpload] {
		if l < 1 {
			t.Errorf("latency %v ms is shorter than the 1 ms service time", l)
		}
	}
	if r := res.rung(20); !r.ok() {
		t.Errorf("rung %+v did not keep up", r)
	}
}

// TestOpenLoopTimesFromDueTime overloads one sender: every request after
// the first waits for the one before, so lateness grows by about the
// service time less the spacing per request, and each latency counts
// the wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 10 * time.Millisecond
	var failures int
	res := openLoop(context.Background(), 400, 250*time.Millisecond, 1, func(i int) (int, error) {
		time.Sleep(service)
		if i%25 == 0 {
			failures++
			return kindUpload, errors.New("stub failure")
		}
		return kindUpload, nil
	})
	if res.sent != 100 || res.failed != failures || failures != 4 {
		t.Fatalf("sent %d failed %d, want 100 and 4", res.sent, res.failed)
	}
	// Request i is due at i·2.5 ms and starts after i earlier requests
	// of 10 ms each: about 7.5·i ms late.
	if res.endLate < 0.7*7.5*99 {
		t.Errorf("last request %v ms late, want about %v", res.endLate, 7.5*99)
	}
	for i := 1; i < len(res.late); i++ {
		if res.late[i] < res.late[i-1] {
			t.Fatalf("lateness fell from %v to %v ms while overloaded", res.late[i-1], res.late[i])
		}
	}
	lat := res.lat[kindUpload]
	if got := lat[len(lat)-1]; got < res.endLate+ms(service) {
		t.Errorf("last latency %v ms is less than its lateness %v plus the service time", got, res.endLate)
	}
	if r := res.rung(20); r.ok() {
		t.Errorf("an overloaded rung %+v kept up", r)
	}
}

func TestMaxRatePicksHighestRungThatKeptUp(t *testing.T) {
	ok := func(rate float64) rung { return rung{rate: rate, uploadTail: 5, queryTail: 8, endLate: 2, limit: 20} }
	slowQuery := ok(4000)
	slowQuery.queryTail = 21
	late := ok(5000)
	late.endLate = 150
	failing := ok(6000)
	failing.failedShare = 0.002
	aborted := ok(7000)
	aborted.aborted = true
	for _, tc := range []struct {
		rungs []rung
		want  float64
	}{
		{nil, 0},
		{[]rung{ok(1000), ok(1500), ok(2250)}, 2250},
		{[]rung{ok(1000), ok(1500), slowQuery}, 1500},
		{[]rung{ok(1000), late, failing, aborted}, 1000},
		{[]rung{slowQuery, late}, 0},
		// A rung that misses between two that keep up does not hide the
		// higher one.
		{[]rung{ok(1000), slowQuery, ok(4500)}, 4500},
	} {
		if got := maxRate(tc.rungs); got != tc.want {
			t.Errorf("maxRate(%+v) = %v, want %v", tc.rungs, got, tc.want)
		}
	}
	edge := ok(3000)
	edge.failedShare, edge.endLate, edge.uploadTail = 0.001, 100, 20
	if !edge.ok() {
		t.Errorf("a rung exactly at every limit must keep up: %+v", edge)
	}
}

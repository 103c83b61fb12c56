package main

import (
	"fmt"
	"strings"
	"testing"
)

// chromeTrace builds a trace-event file of complete events, each given
// as {tid, ts, dur}.
func chromeTrace(events ...[3]float64) []byte {
	var b strings.Builder
	b.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, e := range events {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"s%d","ph":"X","ts":%g,"dur":%g,"pid":1,"tid":%g}`, i, e[1], e[2], e[0])
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}

func TestCheckChromeTraceNesting(t *testing.T) {
	cases := []struct {
		name   string
		events [][3]float64
		ok     bool
	}{
		{"disjoint", [][3]float64{{1, 0, 10}, {1, 10, 5}, {1, 20, 1}}, true},
		{"nested", [][3]float64{{1, 0, 100}, {1, 10, 20}, {1, 15, 5}, {1, 50, 50}}, true},
		{"equal", [][3]float64{{1, 5, 10}, {1, 5, 10}}, true},
		{"overlap on two tracks", [][3]float64{{1, 0, 10}, {2, 5, 10}}, true},
		{"partial overlap", [][3]float64{{1, 0, 10}, {1, 5, 10}}, false},
		{"partial overlap inside a parent", [][3]float64{{1, 0, 100}, {1, 10, 20}, {1, 20, 20}}, false},
	}
	for _, tc := range cases {
		err := checkChromeTrace(chromeTrace(tc.events...))
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

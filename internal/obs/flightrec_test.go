package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestFlightRecorderRing pins the fixed-memory property: rings
// overwrite, the snapshot is bounded and ordered, and recent events
// survive while ancient ones are evicted.
func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(16)
	const total = 500
	for i := 0; i < total; i++ {
		name := "old"
		if i >= total-8 {
			name = "recent"
		}
		s := f.Start(name)
		s.End()
	}
	ev := f.Events()
	capacity := len(f.tracks) * 16
	if len(ev) > capacity {
		t.Fatalf("snapshot holds %d events, ring capacity is %d", len(ev), capacity)
	}
	recent := 0
	for i, e := range ev {
		if e.Name == "recent" {
			recent++
		}
		if i > 0 && ev[i].Start < ev[i-1].Start {
			t.Fatal("events not ordered by start")
		}
	}
	if recent != 8 {
		t.Errorf("found %d recent events, want all 8 retained", recent)
	}
}

// TestFlightRecorderConcurrent hammers the recorder from many
// goroutines (meaningful under -race) and checks the dump stays valid.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := f.Start("work")
				s.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = f.Events()
			}
		}
	}()
	wg.Wait()
	close(done)
	var buf bytes.Buffer
	if err := f.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	spans := 0
	for _, e := range file.TraceEvents {
		if e.Ph == "X" && e.Name == "work" {
			spans++
		}
	}
	if spans == 0 {
		t.Error("dump contains no work spans")
	}
}

// TestFlightRecorderNil covers the disabled surface.
func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	s := f.Start("x")
	s.End()
	if f.Events() != nil || f.Wall() != 0 {
		t.Error("nil recorder not a no-op")
	}
	var buf bytes.Buffer
	if err := f.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil || len(file.TraceEvents) != 0 {
		t.Errorf("nil dump invalid: %v, %d events", err, len(file.TraceEvents))
	}
}

// TestFlightSpanDuration sanity-checks recorded durations.
func TestFlightSpanDuration(t *testing.T) {
	f := NewFlightRecorder(16)
	s := f.Start("sleep")
	time.Sleep(2 * time.Millisecond)
	s.End()
	ev := f.Events()
	if len(ev) != 1 {
		t.Fatalf("got %d events, want 1", len(ev))
	}
	if ev[0].Dur < int64(time.Millisecond) {
		t.Errorf("span duration %dns, want >= 1ms", ev[0].Dur)
	}
}

// TestChromeTracksNest exports spans that all partially overlap one
// another — each starts after and ends after the one before — and
// checks that no track holds two spans that partially overlap, which is
// what Perfetto and cmd/tracecheck require of one tid.
func TestChromeTracksNest(t *testing.T) {
	f := NewFlightRecorder(256)
	for i := int64(0); i < 64; i++ {
		f.record(Event{Name: "req", Start: i * 10, Dur: 1000})
		f.record(Event{Name: "inner", Start: i*10 + 1, Dur: 5})
	}
	// Concurrent spans recorded live, released together so they overlap.
	var wg, opened sync.WaitGroup
	opened.Add(8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s := f.Start("live")
				if i == 0 {
					opened.Done()
					opened.Wait()
				}
				s.End()
			}
		}()
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := f.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int64   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	type span struct{ start, end float64 }
	byTid := map[int64][]span{}
	n := 0
	for _, e := range file.TraceEvents {
		if e.Ph == "X" {
			byTid[e.Tid] = append(byTid[e.Tid], span{e.Ts, e.Ts + e.Dur})
			n++
		}
	}
	if n != 2*64+8*20 {
		t.Fatalf("exported %d spans, want %d", n, 2*64+8*20)
	}
	const eps = 1e-6 // µs; float rounding of ts+dur
	for tid, spans := range byTid {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end > spans[j].end
		})
		var stack []float64
		for _, s := range spans {
			for len(stack) > 0 && stack[len(stack)-1] <= s.start+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && s.end > stack[len(stack)-1]+eps {
				t.Fatalf("tid %d: span [%v,%v) partially overlaps one ending at %v", tid, s.start, s.end, stack[len(stack)-1])
			}
			stack = append(stack, s.end)
		}
	}
}

package profgo

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gmon"
)

// fakeClock advances a fixed amount per call.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

// makeProfiler returns a profiler whose clock advances 1ms per event.
func makeProfiler() *Profiler {
	c := &fakeClock{t: time.Unix(0, 0), step: time.Millisecond}
	return New(WithClock(c.now), WithTick(time.Millisecond))
}

func TestArcsAndCounts(t *testing.T) {
	p := makeProfiler()
	main := func() {
		defer p.Enter("main")()
		for i := 0; i < 3; i++ {
			func() {
				defer p.Enter("child")()
			}()
		}
	}
	main()
	prof := p.Snapshot()
	if err := prof.Validate(); err != nil {
		t.Fatalf("invalid profile: %v", err)
	}
	tab := p.Table()
	if tab.Len() != 2 {
		t.Fatalf("table = %v", tab.Names())
	}
	// One spontaneous arc into main, one main->child arc with count 3.
	var spont, direct int64
	for _, a := range prof.Arcs {
		if a.FromPC == gmon.SpontaneousPC {
			spont += a.Count
		} else {
			direct += a.Count
		}
	}
	if spont != 1 || direct != 3 {
		t.Errorf("arcs = %+v, want 1 spontaneous + 3 direct", prof.Arcs)
	}
}

func TestSelfTimeCharged(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0), step: 0}
	p := New(WithClock(func() time.Time { return c.t }), WithTick(time.Millisecond))
	leaveMain := p.Enter("main")
	c.t = c.t.Add(10 * time.Millisecond) // main runs 10ms
	leaveChild := p.Enter("child")
	c.t = c.t.Add(25 * time.Millisecond) // child runs 25ms
	leaveChild()
	c.t = c.t.Add(5 * time.Millisecond) // main runs 5 more ms
	leaveMain()

	prof := p.Snapshot()
	tab := p.Table()
	ticks, lost := tab.AttributeHist(&prof.Hist)
	if lost != 0 {
		t.Errorf("lost ticks: %v", lost)
	}
	if ticks["main"] != 15 {
		t.Errorf("main self = %v ticks, want 15", ticks["main"])
	}
	if ticks["child"] != 25 {
		t.Errorf("child self = %v ticks, want 25", ticks["child"])
	}
	if hz := prof.ClockHz(); hz != 1000 {
		t.Errorf("Hz = %d, want 1000 for 1ms ticks", hz)
	}
}

func TestRecursionArcs(t *testing.T) {
	p := makeProfiler()
	var rec func(n int)
	rec = func(n int) {
		defer p.Enter("rec")()
		if n > 0 {
			rec(n - 1)
		}
	}
	func() {
		defer p.Enter("main")()
		rec(4)
	}()
	prof := p.Snapshot()
	var selfArc int64
	for _, a := range prof.Arcs {
		// rec's addr: index 1 (main entered first).
		if a.FromPC == addr(1)+1 && a.SelfPC == addr(1) {
			selfArc = a.Count
		}
	}
	if selfArc != 4 {
		t.Errorf("self-recursive arc count = %d, want 4", selfArc)
	}
}

// TestSelfProfilingPipeline is E4 in miniature: run the gprof pipeline
// under profgo and feed the result to the same pipeline.
func TestSelfProfilingPipeline(t *testing.T) {
	p := New() // real clock: this is a smoke test of the full loop
	work := func(name string, inner func()) {
		defer p.Enter(name)()
		inner()
	}
	work("load", func() {
		work("parse", func() {
			for i := 0; i < 100; i++ {
				work("record", func() {})
			}
		})
	})
	res, err := core.Run(context.Background(), core.TableSource{Table: p.Table()}, p.Snapshot(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"load", "parse", "record", "flat profile"} {
		if !strings.Contains(out, want) {
			t.Errorf("self-profile output missing %q", want)
		}
	}
	rec, ok := res.Model.Routine("record")
	if !ok || rec.Calls != 100 {
		t.Errorf("record = %+v, want 100 calls", rec)
	}
}

func TestEmptyProfiler(t *testing.T) {
	p := New()
	prof := p.Snapshot()
	if err := prof.Validate(); err != nil {
		t.Errorf("empty snapshot invalid: %v", err)
	}
	if p.Table().Len() != 0 {
		t.Error("empty profiler has symbols")
	}
}

func TestWithTickRejectsNonPositive(t *testing.T) {
	p := New(WithTick(0))
	if p.tick != DefaultTick {
		t.Errorf("tick = %v, want default", p.tick)
	}
}

package report_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/report"
)

// renderAll writes the answers of m's lookups by name, which lay out
// a hand-assembled profile's index on first use, with each routine's
// cycle, and then every rendering of m the shared-profile test
// compares. The lookups come first, so that the goroutines reach the
// layout together rather than one after another through the
// renderers' buffer pool.
func renderAll(t *testing.T, m *model.Profile, focus []string) []byte {
	var b bytes.Buffer
	for _, name := range focus {
		r, ok := m.Routine(name)
		if !ok {
			t.Errorf("routine %q not found", name)
			continue
		}
		var c *model.Cycle
		if r.Cycle != 0 {
			c = &m.Cycles[r.Cycle-1]
		}
		fmt.Fprintf(&b, "%s %d %v\n", name, r.Index, c)
	}
	if err := report.CallGraph(&b, m, report.Options{Jobs: 2}); err != nil {
		t.Error(err)
	}
	if err := report.CallGraph(&b, m, report.Options{Focus: focus}); err != nil {
		t.Error(err)
	}
	if err := report.Flat(&b, m, report.Options{}); err != nil {
		t.Error(err)
	}
	if err := report.Index(&b, m, report.Options{Jobs: 2}); err != nil {
		t.Error(err)
	}
	if err := report.WriteDOT(&b, m, report.Options{MinPercent: 1}); err != nil {
		t.Error(err)
	}
	return b.Bytes()
}

// TestSharedProfileConcurrentRenders has 8 goroutines render one
// profile at once, as gprofd's readers share one cached analysis: a
// fresh model.Build profile, a fresh model.Decode profile, and a
// profile assembled by hand, with no index laid out yet. Every
// goroutine runs the call graph (plain and focused), flat, index and
// DOT renderers and the name lookups, racing the on-demand index
// layout into existence, and all must write
// the same bytes as a serial render of a built profile. Run under
// -race.
func TestSharedProfileConcurrentRenders(t *testing.T) {
	const goroutines = 8
	kinds := []struct {
		name  string
		fresh func() *model.Profile
	}{
		{"Build", func() *model.Profile { return synthModel(t, 3000) }},
		{"Decode", func() *model.Profile {
			var buf bytes.Buffer
			if err := model.Encode(&buf, synthModel(t, 3000)); err != nil {
				t.Fatal(err)
			}
			m, err := model.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		// A profile assembled by hand from a built one's fields lays
		// out its index on first use too.
		{"by hand", func() *model.Profile {
			b := synthModel(t, 3000)
			return &model.Profile{
				Schema: b.Schema, Hz: b.Hz, TotalTicks: b.TotalTicks, LostTicks: b.LostTicks,
				TotalSeconds: b.TotalSeconds, Routines: b.Routines, Cycles: b.Cycles,
				Arcs: b.Arcs, Flat: b.Flat, NeverCalled: b.NeverCalled,
			}
		}},
	}
	ref := synthModel(t, 3000)
	var focus []string
	for i := range ref.Cycles {
		focus = append(focus, ref.Cycles[i].Members[0])
	}
	if len(focus) == 0 {
		t.Fatal("the synthetic profile has no cycles")
	}
	focus = append(focus, ref.Flat[0].Name)
	want := renderAll(t, ref, focus)
	for _, kind := range kinds {
		m := kind.fresh()
		start := make(chan struct{})
		got := make([][]byte, goroutines)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g] = renderAll(t, m, focus)
			}()
		}
		close(start)
		wg.Wait()
		for g, b := range got {
			if !bytes.Equal(b, want) {
				t.Errorf("%s profile: goroutine %d rendered different bytes from the serial render", kind.name, g)
			}
		}
	}
}

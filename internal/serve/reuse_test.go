package serve

import (
	"bytes"
	"context"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gmon"
	"repro/internal/object"
)

// offlineBodies returns the flat, call graph and JSON bodies of an
// offline MergeAll + core.Run of profiles.
func offlineBodies(t *testing.T, im *object.Image, profiles []*gmon.Profile) (*core.Result, map[string][]byte) {
	t.Helper()
	merged, err := gmon.MergeAll(context.Background(), profiles, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.ImageSource{Image: im}, merged, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{}
	for path, write := range map[string]func(*core.Result, *bytes.Buffer) error{
		"/v1/flat":      func(r *core.Result, b *bytes.Buffer) error { return r.WriteFlat(b) },
		"/v1/callgraph": func(r *core.Result, b *bytes.Buffer) error { return r.WriteCallGraph(b) },
		"/v1/profile":   func(r *core.Result, b *bytes.Buffer) error { return r.WriteJSON(b) },
	} {
		var buf bytes.Buffer
		if err := write(res, &buf); err != nil {
			t.Fatal(err)
		}
		bodies[path] = buf.Bytes()
	}
	return res, bodies
}

// recount returns another run of the program p measured: the same arc
// records with other counts on them and on the histogram.
func recount(p *gmon.Profile, v int) *gmon.Profile {
	q := p.Clone()
	for i := range q.Arcs {
		q.Arcs[i].Count += int64((i + v) % 3)
	}
	for i := range q.Hist.Counts {
		q.Hist.Counts[i] += uint32((i*5 + v) % 4)
	}
	return q
}

// TestStructureReuseCounts pins when a cold analysis reuses its memo
// slot's structure: after every fold that adds no arc, and never after
// one that adds an arc, closes a cycle, or after the selection lost a
// window. Each step's flat, call graph and JSON bodies equal an
// offline MergeAll + core.Run of the selected uploads.
func TestStructureReuseCounts(t *testing.T) {
	im, imageBytes := sortImage(t)
	p := sortProfile(t, 1)
	addr := func(name string) int64 {
		for _, s := range im.Funcs {
			if s.Name == name {
				return s.Addr
			}
		}
		t.Fatalf("no routine %s", name)
		return 0
	}
	// A fresh arc: main into a routine that neither it nor main's
	// callers call, so no cycle forms. A cycle: one of main's callees
	// calls main back.
	m0, _ := offlineBodies(t, im, []*gmon.Profile{p})
	mainPos, _ := m0.Model.RoutinePos("main")
	callees, callers := map[string]bool{}, map[string]bool{}
	for _, k := range m0.Model.Links().Out(int32(mainPos)) {
		callees[m0.Model.Routines[m0.Model.Arcs[k].To].Name] = true
	}
	for _, k := range m0.Model.Links().In(int32(mainPos)) {
		if a := m0.Model.Arcs[k]; a.From >= 0 {
			callers[m0.Model.Routines[a.From].Name] = true
		}
	}
	var fresh, back string
	for _, s := range im.Funcs {
		switch {
		case s.Name == "main" || callers[s.Name]:
		case callees[s.Name] && back == "":
			back = s.Name
		case !callees[s.Name] && fresh == "":
			fresh = s.Name
		}
	}
	if fresh == "" || back == "" {
		t.Fatalf("sort: no routine outside main's calls (%q) or in them (%q)", fresh, back)
	}
	withArc := func(q *gmon.Profile, from, to string) *gmon.Profile {
		q = q.Clone()
		q.Arcs = append(q.Arcs, gmon.Arc{FromPC: addr(from), SelfPC: addr(to), Count: 2})
		return q
	}

	type step struct {
		name     string
		upload   *gmon.Profile
		advance  time.Duration
		selected func(uploads []*gmon.Profile) []*gmon.Profile
		reuses   int64
		cycle    bool // the selection holds the cycle main closes
	}
	all := func(uploads []*gmon.Profile) []*gmon.Profile { return uploads }
	run := func(t *testing.T, cfg Config, clock *fakeClock, steps []step) {
		s, ts := newTestServer(t, cfg)
		fp := registerExe(t, ts, imageBytes)
		var uploads []*gmon.Profile
		for i, st := range steps {
			clock.Advance(st.advance)
			uploads = append(uploads, st.upload)
			mustStatus(t, ingest(t, ts, fp, encodeProfile(t, st.upload, gmon.Version2, false)), http.StatusAccepted)
			mustStatus(t, get(t, ts, "/v1/flat?sync=1&fp="+fp), http.StatusOK)
			res, want := offlineBodies(t, im, st.selected(uploads))
			for path, body := range want {
				if got := mustStatus(t, get(t, ts, path+"?fp="+fp), http.StatusOK); !bytes.Equal(got, body) {
					t.Errorf("step %d (%s): %s differs from offline MergeAll + core.Run", i+1, st.name, path)
				}
			}
			if cycle := len(res.Model.Cycles) > len(m0.Model.Cycles); cycle != st.cycle {
				t.Errorf("step %d (%s): %d cycles, %d before", i+1, st.name, len(res.Model.Cycles), len(m0.Model.Cycles))
			}
			if misses, reuses := s.metrics.cacheMisses.Value(), s.metrics.structureReuses.Value(); misses != int64(i+1) || reuses != st.reuses {
				t.Errorf("step %d (%s): %d misses, %d reuses, want %d/%d", i+1, st.name, misses, reuses, i+1, st.reuses)
			}
		}
	}

	t.Run("uploads", func(t *testing.T) {
		var steps []step
		for v := 1; v <= 6; v++ {
			steps = append(steps, step{name: "same arcs", upload: recount(p, v), selected: all, reuses: int64(v - 1)})
		}
		steps = append(steps,
			step{name: "adds an arc", upload: withArc(recount(p, 7), "main", fresh), selected: all, reuses: 5},
			step{name: "closes a cycle", upload: withArc(recount(p, 8), back, "main"), selected: all, reuses: 5, cycle: true},
			step{name: "same arcs again", upload: recount(p, 9), selected: all, reuses: 6, cycle: true},
		)
		clock := newFakeClock()
		run(t, Config{Now: clock.Now}, clock, steps)
	})

	t.Run("window eviction", func(t *testing.T) {
		// Two retained one-minute windows. The first holds an arc the
		// later ones lack: opening the second adds no arc to the
		// selection of every window, and the third, evicting the
		// first, drops one.
		from := func(k int) func([]*gmon.Profile) []*gmon.Profile {
			return func(u []*gmon.Profile) []*gmon.Profile { return u[k:] }
		}
		steps := []step{
			{name: "first window", upload: withArc(recount(p, 1), "main", fresh), selected: all},
			{name: "second window", upload: recount(p, 2), advance: time.Minute, selected: all, reuses: 1},
			{name: "third window evicts the first", upload: recount(p, 3), advance: time.Minute, selected: from(1), reuses: 1},
			{name: "same arcs", upload: recount(p, 4), selected: from(1), reuses: 2},
		}
		clock := newFakeClock()
		run(t, Config{Window: time.Minute, Retain: 2, Now: clock.Now}, clock, steps)
	})
}

package model_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/synth"
)

// mapDiff is Diff as it was before it merged name orders: a map from
// name to delta, filled from both profiles' routines and stacks views,
// then one stable sort by total, then self regression, then name. It
// is the oracle the merge is compared with.
func mapDiff(old, new *model.Profile) []model.Delta {
	byName := make(map[string]*model.Delta)
	order := make([]string, 0, len(old.Routines)+len(new.Routines))
	get := func(name string) *model.Delta {
		d, ok := byName[name]
		if !ok {
			d = &model.Delta{Name: name}
			byName[name] = d
			order = append(order, name)
		}
		return d
	}
	for i := range old.Routines {
		r := &old.Routines[i]
		d := get(r.Name)
		d.InOld = true
		d.OldSelf = r.SelfSeconds
		d.OldTotal = r.TotalSeconds()
		d.OldCalls = r.Calls + r.SelfCalls
	}
	for i := range new.Routines {
		r := &new.Routines[i]
		d := get(r.Name)
		d.InNew = true
		d.NewSelf = r.SelfSeconds
		d.NewTotal = r.TotalSeconds()
		d.NewCalls = r.Calls + r.SelfCalls
	}
	if old.Stacks != nil {
		for _, r := range old.Stacks.Routines {
			get(r.Name).OldStackIncl = r.InclusiveTicks
		}
	}
	if new.Stacks != nil {
		for _, r := range new.Stacks.Routines {
			get(r.Name).NewStackIncl = r.InclusiveTicks
		}
	}

	out := make([]model.Delta, 0, len(order))
	for _, name := range order {
		d := byName[name]
		dead := d.OldSelf == 0 && d.NewSelf == 0 &&
			d.OldTotal == 0 && d.NewTotal == 0 &&
			d.OldCalls == 0 && d.NewCalls == 0 &&
			d.OldStackIncl == 0 && d.NewStackIncl == 0
		if dead {
			continue
		}
		out = append(out, *d)
	}
	sort.SliceStable(out, func(i, j int) bool {
		ti, tj := out[i].DTotal(), out[j].DTotal()
		if ti != tj {
			return ti > tj
		}
		si, sj := out[i].DSelf(), out[j].DSelf()
		if si != sj {
			return si > sj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// edited returns a hand-assembled copy of p's routines (no arcs, so
// its name order is sorted at the first Links call) with routines
// removed, renamed and added, in shuffled order.
func edited(p *model.Profile, rng *rand.Rand) *model.Profile {
	q := &model.Profile{Schema: model.Schema, Hz: p.Hz, TotalTicks: p.TotalTicks}
	for i, r := range p.Routines {
		switch {
		case i%7 == 3:
			continue
		case i%11 == 5:
			r.Name = "renamed_" + r.Name
		}
		r.Cycle = 0
		q.Routines = append(q.Routines, r)
	}
	for k := 0; k < len(p.Routines)/13; k++ {
		q.Routines = append(q.Routines, model.Routine{
			Name:        fmt.Sprintf("added_%d", k),
			SelfTicks:   float64(k % 5),
			SelfSeconds: float64(k%5) / float64(p.Hz),
			Calls:       int64(k % 3),
		})
	}
	rng.Shuffle(len(q.Routines), func(i, j int) { q.Routines[i], q.Routines[j] = q.Routines[j], q.Routines[i] })
	return q
}

// stacksOf is a stacks view over some of p's routines, under shuffled
// names, plus routines only the view has.
func stacksOf(p *model.Profile, rng *rand.Rand) *model.StackView {
	v := &model.StackView{Samples: 1000}
	for i := range p.Routines {
		if rng.Intn(3) == 0 {
			v.Routines = append(v.Routines, model.StackRoutine{Name: p.Routines[rng.Intn(len(p.Routines))].Name, InclusiveTicks: int64(rng.Intn(4))})
		}
		if i%17 == 0 {
			v.Routines = append(v.Routines, model.StackRoutine{Name: fmt.Sprintf("stack_only_%d", rng.Intn(len(p.Routines))), InclusiveTicks: int64(rng.Intn(4))})
		}
	}
	return v
}

// TestDiffMatchesMapOracle checks Diff's merge of name orders against
// the map-keyed Diff on synthetic profiles with shuffled names: two
// seeds of one program and an edited copy of the first (routines added,
// removed and renamed), diffed pairwise in both directions, with and
// without stacks views.
// A stacks view may name a routine twice; the later row wins in both.
func TestDiffMatchesMapOracle(t *testing.T) {
	profile := func(seed uint64) *model.Profile {
		w := synth.Generate(synth.Tier(3000, seed))
		shuffleNames(w, int64(seed))
		res, err := core.Run(context.Background(), core.TableSource{Table: w.Table()}, w.Prof, core.Options{Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.Model
	}
	rng := rand.New(rand.NewSource(3))
	a, b := profile(1), profile(2)
	e := edited(a, rng)
	for _, stacks := range []bool{false, true} {
		if stacks {
			for _, p := range []*model.Profile{a, b, e} {
				p.Stacks = stacksOf(p, rng)
			}
		}
		for k, pair := range [][2]*model.Profile{{a, b}, {b, a}, {a, e}, {e, a}, {e, b}, {a, a}} {
			got, want := model.Diff(pair[0], pair[1]), mapDiff(pair[0], pair[1])
			if len(want) == 0 {
				t.Fatalf("pair %d: the fixture diffs to nothing", k)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("stacks=%v pair %d: Diff differs from the map oracle: %d deltas, oracle %d", stacks, k, len(got), len(want))
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Errorf("first difference at %d: got %+v, oracle %+v", i, got[i], want[i])
						break
					}
				}
			}
		}
	}
}

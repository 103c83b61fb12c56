package model

import "repro/internal/order"

// Delta is one routine's change between two profiles. Old* fields are
// zero when the routine is new, New* fields when it disappeared.
type Delta struct {
	Name string `json:"name"`
	// InOld/InNew record presence, distinguishing "zero seconds" from
	// "not in that profile at all".
	InOld bool `json:"in_old"`
	InNew bool `json:"in_new"`

	OldSelf  float64 `json:"old_self_seconds"`
	NewSelf  float64 `json:"new_self_seconds"`
	OldTotal float64 `json:"old_total_seconds"`
	NewTotal float64 `json:"new_total_seconds"`
	OldCalls int64   `json:"old_calls"`
	NewCalls int64   `json:"new_calls"`

	// OldStackIncl/NewStackIncl carry the measured inclusive ticks from
	// the stacks view when a profile has one — zero (and omitted from
	// JSON) for arc-only profiles, so pre-stack diffs are unchanged.
	OldStackIncl int64 `json:"old_stack_inclusive_ticks,omitempty"`
	NewStackIncl int64 `json:"new_stack_inclusive_ticks,omitempty"`
}

// DSelf returns the self-seconds change (new - old).
func (d *Delta) DSelf() float64 { return d.NewSelf - d.OldSelf }

// DTotal returns the total-seconds change (new - old).
func (d *Delta) DTotal() float64 { return d.NewTotal - d.OldTotal }

// DCalls returns the call-count change (new - old).
func (d *Delta) DCalls() int64 { return d.NewCalls - d.OldCalls }

// Changed reports whether anything moved between the runs.
func (d *Delta) Changed() bool {
	return d.DSelf() != 0 || d.DTotal() != 0 || d.DCalls() != 0 || d.InOld != d.InNew ||
		d.OldStackIncl != d.NewStackIncl
}

// Diff compares two profiles routine by routine — the "did my change
// make it faster" question the flat and call-graph listings cannot
// answer across runs. The result covers the union of routine names,
// sorted by decreasing total-seconds regression (the biggest slowdowns
// first), ties by self-seconds regression, then name. Routines dead in
// both profiles (never called, no samples) are omitted.
//
// Calls are compared as total call counts (incoming plus
// self-recursive), matching the flat profile's calls column.
//
// Diff is linear after the name orders: it merges the two profiles'
// routines in their Links name orders, and the routines of any stacks
// view, which need not appear in Routines, in one sort of that view's
// names. The union thus arrives in name order, and two stable integer
// sorts, by self-seconds and then total-seconds regression, finish it.
func Diff(old, new *Profile) []Delta {
	sources := []diffSource{
		routineSource(old, func(d *Delta, r *Routine) {
			d.InOld = true
			d.OldSelf = r.SelfSeconds
			d.OldTotal = r.TotalSeconds()
			d.OldCalls = r.Calls + r.SelfCalls
		}),
		routineSource(new, func(d *Delta, r *Routine) {
			d.InNew = true
			d.NewSelf = r.SelfSeconds
			d.NewTotal = r.TotalSeconds()
			d.NewCalls = r.Calls + r.SelfCalls
		}),
	}
	if v := old.Stacks; v != nil {
		sources = append(sources, stackSource(v, func(d *Delta, r *StackRoutine) { d.OldStackIncl = r.InclusiveTicks }))
	}
	if v := new.Stacks; v != nil {
		sources = append(sources, stackSource(v, func(d *Delta, r *StackRoutine) { d.NewStackIncl = r.InclusiveTicks }))
	}

	var out []Delta
	for {
		// The least name at any source's head is the next delta's; a
		// name repeated within one source sets the same delta again,
		// the later position last, as a name-keyed fold would.
		name, ok := "", false
		for k := range sources {
			if n, more := sources[k].head(); more && (!ok || n < name) {
				name, ok = n, true
			}
		}
		if !ok {
			break
		}
		d := Delta{Name: name}
		for k := range sources {
			src := &sources[k]
			for n, more := src.head(); more && n == name; n, more = src.head() {
				src.set(&d, src.order[src.at])
				src.at++
			}
		}
		dead := d.OldSelf == 0 && d.NewSelf == 0 &&
			d.OldTotal == 0 && d.NewTotal == 0 &&
			d.OldCalls == 0 && d.NewCalls == 0 &&
			d.OldStackIncl == 0 && d.NewStackIncl == 0
		if !dead {
			out = append(out, d)
		}
	}

	keys := make([]order.Keyed, len(out))
	for i := range out {
		keys[i] = order.Keyed{Key: order.DescFloat(out[i].DSelf()), Pos: int32(i)}
	}
	order.SortStable(keys)
	for k := range keys {
		keys[k].Key = order.DescFloat(out[keys[k].Pos].DTotal())
	}
	order.SortStable(keys)
	sorted := make([]Delta, len(out))
	for k := range keys {
		sorted[k] = out[keys[k].Pos]
	}
	return sorted
}

// diffSource is one of Diff's name-ordered inputs: names[order[at]] is
// the name at its head, and set copies position i's numbers into a
// delta.
type diffSource struct {
	names []string
	order []int32
	at    int
	set   func(d *Delta, i int32)
}

// head returns the name at the source's head, if any is left.
func (s *diffSource) head() (string, bool) {
	if s.at == len(s.order) {
		return "", false
	}
	return s.names[s.order[s.at]], true
}

// routineSource is a profile's routines as a Diff input, in its name
// order.
func routineSource(p *Profile, set func(*Delta, *Routine)) diffSource {
	names := make([]string, len(p.Routines))
	for i := range p.Routines {
		names[i] = p.Routines[i].Name
	}
	return diffSource{names: names, order: p.Links().ByName(), set: func(d *Delta, i int32) { set(d, &p.Routines[i]) }}
}

// stackSource is a stacks view's routines as a Diff input, sorted by
// name.
func stackSource(v *StackView, set func(*Delta, *StackRoutine)) diffSource {
	names := make([]string, len(v.Routines))
	for i := range v.Routines {
		names[i] = v.Routines[i].Name
	}
	return diffSource{names: names, order: order.ByName(names), set: func(d *Delta, i int32) { set(d, &v.Routines[i]) }}
}

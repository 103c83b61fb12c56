// Package stacksample implements the technique the retrospective credits
// with replacing gprof: "periodically gathering not just isolated program
// counter samples and isolated call graph arcs, but complete call
// stacks".
//
// At every clock tick the sampler records the entire active call stack
// (by walking the frame-pointer chain the compiler's calling convention
// maintains). From whole stacks it computes, per routine,
//
//   - self ticks: samples whose innermost frame is the routine, and
//   - inclusive ticks: samples with the routine anywhere on the stack
//     (counted once per sample even under recursion).
//
// Inclusive time measured this way is exact up to sampling error. gprof
// instead *estimates* inclusive time by distributing a callee's total to
// callers in proportion to call counts — §3.2's "simplifying assumption
// that all calls to a specific routine require the same amount of time".
// Experiment E8 uses this package as ground truth to quantify the error
// of that assumption on workloads where call sites have unequal costs.
//
// The package is a veneer over the unified stack pipeline: collection is
// internal/mon's interned StackCollector (raw PCs, zero steady-state
// allocations) and analysis is the model's context-sensitive Stacks view
// (model.BuildStacks), which reproduces this package's historical
// resolution and truncation accounting exactly — the leaf resolves at
// its own address, outer frames at return address minus one, and
// unresolvable or depth-limited walks count as truncated. Only the
// report shapes (Rows, the folded form, the table) live here.
package stacksample

import (
	"fmt"
	"io"

	"repro/internal/gmon"
	"repro/internal/model"
	"repro/internal/mon"
	"repro/internal/report"
	"repro/internal/symtab"
	"repro/internal/vm"
)

// MaxDepth bounds the stack walk per sample.
const MaxDepth = 256

// Sampler implements vm.Monitor by recording whole call stacks at clock
// ticks. Attach the machine before running; MCOUNT and control events
// are ignored (the technique needs no prologue instrumentation at all —
// part of its appeal).
type Sampler struct {
	tab *symtab.Table
	col *mon.StackCollector

	// view is the memoized analysis of the collected stacks; Tick
	// invalidates it, every reporting method rebuilds it on demand.
	view *model.StackView
}

// New creates a sampler resolving addresses against tab.
func New(tab *symtab.Table) *Sampler {
	return &Sampler{tab: tab, col: mon.NewStackCollector(nil, MaxDepth)}
}

// Attach gives the sampler access to the machine whose stack it walks.
func (s *Sampler) Attach(m *vm.Machine) { s.col.Attach(m) }

// Mcount ignores prologue events: stack sampling needs no instrumented
// prologues. It returns zero extra cycles, which is exactly the point —
// the overhead is per-tick, not per-call, and "can be hidden by backing
// off the frequency with which the call stacks are sampled".
func (s *Sampler) Mcount(selfpc, frompc int64) int64 { return 0 }

// Control is a no-op; the sampler has no kernel-style switch.
func (s *Sampler) Control(op int) {}

// Tick records one whole-stack sample: raw PCs into the interned
// collector, resolution deferred to the first reporting call.
func (s *Sampler) Tick(pc int64) {
	s.col.Record(pc)
	s.view = nil
}

// RawStacks returns the interned raw-PC stack table in gmon's canonical
// order — the data a v3 profile data file would carry.
func (s *Sampler) RawStacks() []gmon.StackSample { return s.col.Snapshot() }

// View returns the context-sensitive analysis of the samples so far:
// the call-path node tree and per-routine rollup, resolved against the
// sampler's symbol table with the historical truncation accounting.
func (s *Sampler) View() *model.StackView {
	if s.view == nil {
		s.view = model.BuildStacks(s.col.Snapshot(), func(pc int64) (string, bool) {
			fn, ok := s.tab.Find(pc)
			if !ok {
				return "", false
			}
			return fn.Name, true
		}, MaxDepth)
	}
	return s.view
}

// Samples returns the number of ticks observed.
func (s *Sampler) Samples() int64 { return s.col.Samples() }

// Truncated returns how many walks ended early (unknown pc or depth
// limit) — the prologue-skid artifacts.
func (s *Sampler) Truncated() int64 { return s.View().Truncated }

// SelfTicks returns the routine's leaf-sample count.
func (s *Sampler) SelfTicks(name string) int64 {
	r, _ := s.View().Routine(name)
	return r.SelfTicks
}

// InclusiveTicks returns the routine's anywhere-on-stack sample count:
// measured (not estimated) total time in sampling units.
func (s *Sampler) InclusiveTicks(name string) int64 {
	r, _ := s.View().Routine(name)
	return r.InclusiveTicks
}

// Stacks returns the distinct sampled stacks (leaf-first, ";"-joined
// resolved names) with their counts.
func (s *Sampler) Stacks() map[string]int64 {
	v := s.View()
	// Each node with self ticks was some sample's full resolved path;
	// its leaf-first name chain is the historical map key.
	out := make(map[string]int64)
	paths := make([]string, len(v.Nodes))
	for i := range v.Nodes {
		n := &v.Nodes[i]
		// Leaf-first: this node's name, then its ancestors'.
		if n.Parent < 0 {
			paths[i] = n.Name
		} else {
			paths[i] = n.Name + ";" + paths[n.Parent]
		}
		if n.SelfTicks > 0 {
			out[paths[i]] += n.SelfTicks
		}
	}
	return out
}

// Row is one line of the report.
type Row struct {
	Name      string
	Self      int64
	Inclusive int64
}

// Rows returns per-routine results sorted by decreasing inclusive ticks.
func (s *Sampler) Rows() []Row {
	routines := s.View().Routines
	rows := make([]Row, 0, len(routines))
	for _, r := range routines {
		rows = append(rows, Row{Name: r.Name, Self: r.SelfTicks, Inclusive: r.InclusiveTicks})
	}
	return rows
}

// WriteFolded emits the samples in collapsed-stack ("folded") form, one
// line per distinct stack — root;...;leaf count — the input format of
// modern flame-graph renderers. Lines are sorted for determinism.
func (s *Sampler) WriteFolded(w io.Writer) error {
	return report.Folded(w, &model.Profile{Stacks: s.View()})
}

// Model condenses the sampler's results into the shared profile model
// (internal/model). Sampling units are the clock: Hz is 1, a tick is a
// sample, and a routine's "descendant" time is its inclusive minus self
// samples — measured, not estimated. Routines appear in report order
// (decreasing inclusive samples).
func (s *Sampler) Model() *model.Profile {
	m := &model.Profile{
		Schema:       model.Schema,
		Hz:           1,
		TotalTicks:   float64(s.Samples()),
		TotalSeconds: float64(s.Samples()),
	}
	for _, r := range s.Rows() {
		self := float64(r.Self)
		child := float64(r.Inclusive - r.Self)
		m.Routines = append(m.Routines, model.Routine{
			Name:         r.Name,
			SelfTicks:    self,
			ChildTicks:   child,
			SelfSeconds:  self,
			ChildSeconds: child,
		})
	}
	return m
}

// Write renders the per-routine table with tick counts and percentages.
func (s *Sampler) Write(w io.Writer) error {
	m := s.Model()
	fmt.Fprintf(w, "stack-sample profile: %d samples (%d truncated walks)\n", s.Samples(), s.Truncated())
	fmt.Fprintf(w, "  %%incl   %%self  inclusive    self  name\n")
	for i := range m.Routines {
		r := &m.Routines[i]
		pi, ps := m.Percent(r.TotalTicks()), m.Percent(r.SelfTicks)
		fmt.Fprintf(w, "%7.1f %7.1f %10d %7d  %s\n",
			pi, ps, int64(r.TotalTicks()), int64(r.SelfTicks), r.Name)
	}
	return nil
}

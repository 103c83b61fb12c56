// The Stacks view: the context-sensitive half of the model, built from
// whole-call-stack samples rather than the arc table. Where the arc
// view *estimates* a routine's total time by distributing callees'
// time to callers in proportion to call counts (§3.2's equal-cost
// assumption), the stack view *measures* it: a routine's inclusive
// ticks are the samples with the routine anywhere on the stack,
// counted once per sample even under recursion — exact up to sampling
// error. Per-call-path nodes additionally split time by full calling
// context, the data flame graphs and pprof consume.
package model

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/gmon"
)

// ErrNoStacks is the sentinel renderers wrap when they need the stacks
// view and the profile carries none — callers (gprofd) match it with
// errors.Is to distinguish "no stack data" from real failures.
var ErrNoStacks = errors.New("profile has no stack samples (collect with stacks enabled)")

// SchemaV2 identifies the JSON encoding of a Profile carrying a Stacks
// view. Profiles without stacks still encode as Schema (v1), so every
// pre-stack consumer and golden file sees unchanged bytes; Decode
// accepts both.
const SchemaV2 = "gprof.profile.v2"

// ResolveFunc maps a sampled program counter to a routine name. The
// model resolves raw stack PCs at build time (collectors record
// addresses only), so any symbol source works — core wraps
// symtab.Table, tests wrap maps.
type ResolveFunc func(pc int64) (string, bool)

// StackView is the context-sensitive profile built by BuildStacks.
type StackView struct {
	// Samples is the number of whole-stack samples observed (the sum of
	// interned counts), including samples whose leaf could not be
	// resolved to a routine.
	Samples int64 `json:"samples"`
	// Truncated counts walk artifacts per sample: an unresolvable leaf
	// or mid-walk frame (prologue skid), and walks that filled the
	// collector's depth bound. A sample can contribute more than once.
	Truncated int64 `json:"truncated,omitempty"`
	// Nodes is the call-path tree in depth-first preorder, children
	// sorted by name; parents precede children. Node 0 onward are roots
	// and their subtrees.
	Nodes []StackNode `json:"nodes,omitempty"`
	// Routines is the per-routine rollup, sorted by decreasing
	// inclusive ticks, ties by name.
	Routines []StackRoutine `json:"routines,omitempty"`
}

// StackNode is one call path: the routine named Name reached through
// the chain of ancestor nodes.
type StackNode struct {
	Name string `json:"name"`
	// Parent is the index of the caller's node in Nodes, -1 for roots.
	Parent int `json:"parent"`
	// SelfTicks counts samples whose resolved stack is exactly this
	// path; InclusiveTicks counts samples whose stack has this path as
	// a prefix (so a parent's inclusive is the sum of its self and its
	// children's inclusive).
	SelfTicks      int64 `json:"self_ticks"`
	InclusiveTicks int64 `json:"inclusive_ticks"`
}

// StackRoutine is one routine's measured times across all contexts.
type StackRoutine struct {
	Name string `json:"name"`
	// SelfTicks counts samples whose innermost resolved frame is the
	// routine; InclusiveTicks counts samples with the routine anywhere
	// on the stack, once per sample even when it appears in several
	// frames (recursion) — the measured total the arc view estimates.
	SelfTicks      int64 `json:"self_ticks"`
	InclusiveTicks int64 `json:"inclusive_ticks"`
}

// Routine returns the named routine's rollup row, if present.
func (v *StackView) Routine(name string) (StackRoutine, bool) {
	for _, r := range v.Routines {
		if r.Name == name {
			return r, true
		}
	}
	return StackRoutine{}, false
}

// InclusiveFraction returns the routine's measured inclusive time as a
// fraction of all samples — the ground-truth number E8 compares the
// arc view's estimate against.
func (v *StackView) InclusiveFraction(name string) float64 {
	if v == nil || v.Samples == 0 {
		return 0
	}
	r, ok := v.Routine(name)
	if !ok {
		return 0
	}
	return float64(r.InclusiveTicks) / float64(v.Samples)
}

// stackTreeNode is the mutable build-time shape of a StackNode.
type stackTreeNode struct {
	name     string
	parent   int
	self     int64
	incl     int64
	children map[string]int
}

// stackAccum condenses resolved, leaf-first name stacks into a
// StackView — the tree-and-rollup core shared by BuildStacks (which
// resolves raw PCs first) and StacksFromFrames (whose callers, like the
// gprofd self-profiler, already have names).
type stackAccum struct {
	view     *StackView
	routines map[string]*stackRollup
	tree     []stackTreeNode
	roots    map[string]int
	seen     map[string]bool
}

type stackRollup struct{ self, incl int64 }

func newStackAccum() *stackAccum {
	return &stackAccum{
		view:     &StackView{},
		routines: make(map[string]*stackRollup),
		roots:    map[string]int{},
		seen:     make(map[string]bool, 16),
	}
}

// add folds one resolved stack (leaf first, non-empty) observed count
// times into the tree and the per-routine rollup. The caller accounts
// Samples and Truncated itself.
func (a *stackAccum) add(names []string, count int64) {
	// Per-routine rollup: self for the leaf, inclusive once per
	// distinct name on the stack.
	clear(a.seen)
	for _, n := range names {
		if a.seen[n] {
			continue
		}
		a.seen[n] = true
		r := a.routines[n]
		if r == nil {
			r = &stackRollup{}
			a.routines[n] = r
		}
		r.incl += count
	}
	a.routines[names[0]].self += count
	// Path tree: walk root-first, creating nodes as needed.
	parent := -1
	node := -1
	for i := len(names) - 1; i >= 0; i-- {
		n := names[i]
		var m map[string]int
		if parent < 0 {
			m = a.roots
		} else {
			if a.tree[parent].children == nil {
				a.tree[parent].children = map[string]int{}
			}
			m = a.tree[parent].children
		}
		idx, ok := m[n]
		if !ok {
			idx = len(a.tree)
			a.tree = append(a.tree, stackTreeNode{name: n, parent: parent})
			m[n] = idx
		}
		a.tree[idx].incl += count
		parent, node = idx, idx
	}
	a.tree[node].self += count
}

// finish flattens the tree in DFS preorder with name-sorted children
// (remapping parent indices to the output order), sorts the routine
// rollup, and returns the view.
func (a *stackAccum) finish() *StackView {
	v := a.view
	v.Nodes = make([]StackNode, 0, len(a.tree))
	remap := make([]int, len(a.tree))
	var emit func(m map[string]int, parent int)
	emit = func(m map[string]int, parent int) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			idx := m[k]
			out := len(v.Nodes)
			remap[idx] = out
			t := &a.tree[idx]
			v.Nodes = append(v.Nodes, StackNode{
				Name: t.name, Parent: parent,
				SelfTicks: t.self, InclusiveTicks: t.incl,
			})
			emit(t.children, out)
		}
	}
	emit(a.roots, -1)
	v.Routines = make([]StackRoutine, 0, len(a.routines))
	for n, r := range a.routines {
		v.Routines = append(v.Routines, StackRoutine{Name: n, SelfTicks: r.self, InclusiveTicks: r.incl})
	}
	sort.Slice(v.Routines, func(i, j int) bool {
		if v.Routines[i].InclusiveTicks != v.Routines[j].InclusiveTicks {
			return v.Routines[i].InclusiveTicks > v.Routines[j].InclusiveTicks
		}
		return v.Routines[i].Name < v.Routines[j].Name
	})
	return v
}

// FrameSample is one whole-stack sample whose frames are already
// resolved to routine names, leaf first — the shape a decoded pprof
// profile (internal/pprofenc) yields.
type FrameSample struct {
	Frames []string
	Count  int64
}

// StacksFromFrames builds the context-sensitive view from name-resolved
// samples, with the same determinism guarantees as BuildStacks. Samples
// with a non-positive count are ignored. An empty frame name truncates
// the path the way an unresolvable PC does in BuildStacks: an empty
// leaf drops the sample into Samples+Truncated only, an empty outer
// frame cuts the path there and counts the sample as truncated.
func StacksFromFrames(samples []FrameSample) *StackView {
	a := newStackAccum()
	names := make([]string, 0, 16)
	for i := range samples {
		s := &samples[i]
		if s.Count <= 0 {
			continue
		}
		a.view.Samples += s.Count
		if len(s.Frames) == 0 || s.Frames[0] == "" {
			a.view.Truncated += s.Count
			continue
		}
		names = names[:0]
		truncated := false
		for _, f := range s.Frames {
			if f == "" {
				truncated = true
				break
			}
			names = append(names, f)
		}
		if truncated {
			a.view.Truncated += s.Count
		}
		a.add(names, s.Count)
	}
	return a.finish()
}

// BuildStacks condenses raw interned stack samples into the
// context-sensitive view. PCs resolve the way a frame-pointer walk
// records them: the leaf at its own address, every outer frame
// at its return address minus one (the call site). A sample whose leaf
// does not resolve contributes only to Samples and Truncated; an
// unresolvable mid-walk frame truncates the path there (the resolved
// prefix still counts). maxDepth, when positive, is the collector's
// walk bound: a sample holding exactly maxDepth return addresses also
// counts as truncated, since deeper frames may have been cut off.
//
// The result is deterministic for a given sample multiset: the node
// tree orders children by name in depth-first preorder, and the
// routine rollup sorts by decreasing inclusive ticks, ties by name.
func BuildStacks(stacks []gmon.StackSample, resolve ResolveFunc, maxDepth int) *StackView {
	if resolve == nil || len(stacks) == 0 {
		v := &StackView{}
		for i := range stacks {
			v.Samples += stacks[i].Count
		}
		return v
	}
	a := newStackAccum()
	v := a.view
	names := make([]string, 0, 16)
	for i := range stacks {
		s := &stacks[i]
		c := s.Count
		v.Samples += c
		// Resolve leaf-first, reproducing the legacy walk accounting.
		names = names[:0]
		leaf, ok := resolve(s.PCs[0])
		if !ok {
			v.Truncated += c
			continue
		}
		names = append(names, leaf)
		truncatedWalk := false
		for _, ra := range s.PCs[1:] {
			fn, ok := resolve(ra - 1) // ra points after the CALL
			if !ok {
				truncatedWalk = true
				break
			}
			names = append(names, fn)
		}
		if truncatedWalk {
			v.Truncated += c
		}
		if maxDepth > 0 && len(s.PCs)-1 == maxDepth {
			v.Truncated += c
		}
		a.add(names, c)
	}
	return a.finish()
}

// validateStacks checks the view's internal consistency as part of
// Profile.Validate.
func (v *StackView) validate() error {
	if v.Samples < 0 || v.Truncated < 0 {
		return fmt.Errorf("model: stacks view has negative sample counts")
	}
	for i := range v.Nodes {
		n := &v.Nodes[i]
		if n.Name == "" {
			return fmt.Errorf("model: stack node %d has an empty name", i)
		}
		// Preorder means parents precede children.
		if n.Parent >= i || n.Parent < -1 {
			return fmt.Errorf("model: stack node %d has invalid parent %d", i, n.Parent)
		}
		if n.SelfTicks < 0 || n.InclusiveTicks < n.SelfTicks {
			return fmt.Errorf("model: stack node %d (%s) has inconsistent ticks (self %d, inclusive %d)",
				i, n.Name, n.SelfTicks, n.InclusiveTicks)
		}
	}
	seen := make(map[string]bool, len(v.Routines))
	for i := range v.Routines {
		r := &v.Routines[i]
		if r.Name == "" {
			return fmt.Errorf("model: stack routine %d has an empty name", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("model: duplicate stack routine %q", r.Name)
		}
		seen[r.Name] = true
		if r.SelfTicks < 0 || r.InclusiveTicks < r.SelfTicks || r.InclusiveTicks > v.Samples {
			return fmt.Errorf("model: stack routine %q has inconsistent ticks (self %d, inclusive %d, samples %d)",
				r.Name, r.SelfTicks, r.InclusiveTicks, v.Samples)
		}
	}
	return nil
}

package report

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/model"
)

// Folded renders the profile's stacks view in collapsed-stack
// ("folded") form: one line per distinct call path that was ever a
// sample's innermost resolved frame — root;...;leaf count — the input
// format of flame-graph renderers. Lines sort as strings for
// determinism.
func Folded(w io.Writer, p *model.Profile) error {
	if p.Stacks == nil {
		return fmt.Errorf("report: %w", model.ErrNoStacks)
	}
	v := p.Stacks
	// Reconstruct each node's root-first path from the parent chain.
	// Nodes are preorder, so a parent's path is complete before any
	// child needs it.
	paths := make([]string, len(v.Nodes))
	lines := make([]string, 0, len(v.Nodes))
	for i := range v.Nodes {
		n := &v.Nodes[i]
		if n.Parent < 0 {
			paths[i] = n.Name
		} else {
			paths[i] = paths[n.Parent] + ";" + n.Name
		}
		if n.SelfTicks > 0 {
			lines = append(lines, fmt.Sprintf("%s %d", paths[i], n.SelfTicks))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// StackTable renders the profile's stacks view as a per-routine table:
// measured inclusive and self samples with their percentages of all
// samples, in the view's order (decreasing inclusive, ties by name). A
// profile without a stacks view renders as zero samples.
func StackTable(w io.Writer, p *model.Profile) error {
	v := p.Stacks
	if v == nil {
		v = &model.StackView{}
	}
	pct := func(n int64) float64 {
		if v.Samples <= 0 {
			return 0
		}
		return 100 * float64(n) / float64(v.Samples)
	}
	b := fmt.Appendf(nil, "stack-sample profile: %d samples (%d truncated walks)\n", v.Samples, v.Truncated)
	b = append(b, "  %incl   %self  inclusive    self  name\n"...)
	for _, r := range v.Routines {
		b = fmt.Appendf(b, "%7.1f %7.1f %10d %7d  %s\n",
			pct(r.InclusiveTicks), pct(r.SelfTicks), r.InclusiveTicks, r.SelfTicks, r.Name)
	}
	_, err := w.Write(b)
	return err
}

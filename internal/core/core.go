// Package core is the gprof post-processor: it ties the pipeline of the
// paper's §4-§5 together behind one API.
//
// The pipeline, in order:
//
//  1. map the profile's addresses to routines (symtab) and build the
//     dynamic call graph with self times attributed from the histogram,
//     optionally with the static call graph scanned from the executable
//     — zero-count arcs that may complete cycles (object.Scan) — and
//     without the arcs the user asked to remove (callgraph.BuildWith);
//  2. find strongly-connected components and topological numbers
//     (scc.Analyze);
//  3. optionally run the bounded cycle-breaking heuristic (cyclebreak)
//     and build the graph once more without the arcs it chose;
//  4. propagate time from descendants to ancestors (propagate.RunCtx);
//  5. render the flat profile, the call graph profile, and the index
//     (report).
//
// Run is the entry point: it analyzes a profile against a Source — an
// ImageSource for executables of the simulated machine, or a
// TableSource when the symbols come from elsewhere (e.g. the Go-native
// collector in package profgo, which is how gprof profiles itself).
// Options.Jobs sets the worker-pool width for rendering the listing
// (the analysis stages are serial). A caller that analyzes one
// executable again and again builds its symbol table once and passes
// it as a TableSource, as gprofd does.
//
// An analysis has a structural half and a value half. The structure —
// the nodes, the arcs and their adjacency, the cycles and topological
// numbers of steps 1-3 — depends only on which arc records the profile
// holds and in what order; the values — self times, counts, propagated
// times, listing order — on the counts and the histogram. Summing more
// runs of one program changes only the values (§3), so RunFrom builds
// on an earlier Result: when the options and source are the same and
// the record keys are exactly the earlier profile's, it fills the
// earlier structure with the new values and skips steps 1-3's
// construction. gprofd passes each memo slot's previous analysis as
// the base.
//
// A Result of Run keeps only the model it renders from: the call
// graph's columns are unreachable once model.Build returns, so a
// one-shot analysis pays for no structure it will not reuse. A Result
// of RunFrom also keeps that structure (callgraph.Shape, with a copy
// of the record keys; shared, never written) for a later RunFrom. Run
// and RunFrom are one stage list; a caller that wants the analysis
// itself reads the model's routines, arcs and cycles.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/callgraph"
	"repro/internal/cyclebreak"
	"repro/internal/gmon"
	"repro/internal/model"
	"repro/internal/mon"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/pprofenc"
	"repro/internal/propagate"
	"repro/internal/report"
	"repro/internal/scc"
	"repro/internal/symtab"
)

// ErrBadOptions tags every rejection of a contradictory Options value;
// test with errors.Is.
var ErrBadOptions = errors.New("core: contradictory options")

// Options selects the post-processing features.
type Options struct {
	// Static merges the statically discovered call graph; it requires a
	// Source backed by an executable image (Run rejects it with a
	// TableSource).
	Static bool
	// RemoveArcs deletes these arcs before cycle analysis (the
	// retrospective's -k caller/callee option).
	RemoveArcs []cyclebreak.ArcID
	// AutoBreak runs the bounded heuristic to choose further arcs whose
	// removal breaks remaining cycles, and applies them.
	AutoBreak bool
	// MaxBreakArcs bounds AutoBreak; 0 means cyclebreak's default.
	// Setting it without AutoBreak is rejected by Validate.
	MaxBreakArcs int
	// Jobs is the worker-pool width for rendering the listing, the one
	// stage of Run that runs in parallel; attribution, SCC and
	// propagation are serial at every width. The output is
	// byte-identical at any value. CLIs default their -jobs flag to
	// GOMAXPROCS and pass the same width to gmon.ReadFiles for the merge.
	// It overrides Report.Jobs.
	Jobs int
	// Report controls rendering (thresholds, focus, headers).
	Report report.Options
}

// Validate rejects contradictory settings instead of silently ignoring
// them. Every error wraps ErrBadOptions.
func (o Options) Validate() error {
	if o.Jobs < 0 {
		return fmt.Errorf("%w: Jobs %d is negative", ErrBadOptions, o.Jobs)
	}
	if o.MaxBreakArcs < 0 {
		return fmt.Errorf("%w: MaxBreakArcs %d is negative", ErrBadOptions, o.MaxBreakArcs)
	}
	if o.MaxBreakArcs != 0 && !o.AutoBreak {
		return fmt.Errorf("%w: MaxBreakArcs %d set without AutoBreak", ErrBadOptions, o.MaxBreakArcs)
	}
	return nil
}

// jobs returns the effective worker-pool width.
func (o Options) jobs() int {
	if o.Jobs <= 1 {
		return 1
	}
	return o.Jobs
}

// A Source supplies the symbol layer an analysis maps profile addresses
// through: the symbol table, and — when backed by an executable — the
// statically scanned call graph. ImageSource and TableSource are the
// two implementations.
type Source interface {
	// load returns the validated symbol table and, when wantStatic and
	// the source supports it, the static arcs.
	load(wantStatic bool) (*symtab.Table, []object.StaticArc, error)
	// supportsStatic reports whether the source can produce a static
	// call graph.
	supportsStatic() bool
}

// ImageSource analyzes against a linked executable image.
type ImageSource struct {
	Image *object.Image
}

func (s ImageSource) supportsStatic() bool { return true }

func (s ImageSource) load(wantStatic bool) (*symtab.Table, []object.StaticArc, error) {
	if s.Image == nil {
		return nil, nil, errors.New("core: ImageSource has a nil Image")
	}
	tab := symtab.New(s.Image)
	if err := tab.Validate(); err != nil {
		return nil, nil, err
	}
	var static []object.StaticArc
	if wantStatic {
		static = object.Scan(s.Image)
	}
	return tab, static, nil
}

// TableSource analyzes against an explicit symbol table (no image, so
// no static arcs). The table is only read, so one table may back any
// number of concurrent analyses.
type TableSource struct {
	Table *symtab.Table
}

func (s TableSource) supportsStatic() bool { return false }

func (s TableSource) load(bool) (*symtab.Table, []object.StaticArc, error) {
	if s.Table == nil {
		return nil, nil, errors.New("core: TableSource has a nil Table")
	}
	if err := s.Table.Validate(); err != nil {
		return nil, nil, err
	}
	return s.Table, nil, nil
}

// Result is an analyzed profile ready for rendering or inspection.
type Result struct {
	// Model is the serializable profile built from the call graph after
	// propagation (model.Build); every Write* renderer consumes it, and
	// WriteJSON encodes it under the versioned schema.
	Model *model.Profile
	// Suggestion holds the cycle-breaking heuristic's output when
	// AutoBreak ran.
	Suggestion *cyclebreak.Suggestion
	// RemovedArcs counts arcs actually deleted (user-specified plus
	// auto-chosen).
	RemovedArcs int

	opt Options
	// tr is the trace Run's context carried, for the render gauge.
	tr *obs.Trace
	// shared is the structure this analysis ran on, which a later
	// RunFrom of the same query shape may reuse; nil after Run or
	// AutoBreak. reused reports that it came from the base.
	shared *structure
	reused bool
}

// structure is the half of an analysis that depends only on which arc
// records the profile holds, with the options and the source that
// shaped it: the call graph's Shape, static arcs and arc removal
// included, after scc.
type structure struct {
	src    Source
	tab    *symtab.Table
	static bool
	remove []cyclebreak.ArcID
	shape  *callgraph.Shape
}

// fits reports whether s is the structure of p's analysis under opt
// against src: the same source and structural options, and exactly the
// same record keys. AutoBreak picks its arcs by count, so it never
// fits.
func (s *structure) fits(src Source, p *gmon.Profile, opt Options) bool {
	return s != nil && !opt.AutoBreak && s.src == src && s.static == opt.Static &&
		slices.Equal(s.remove, opt.RemoveArcs) && s.shape.Matches(p)
}

// Reused reports whether RunFrom built this analysis on its base's
// structure instead of rebuilding the graph and its cycles.
func (r *Result) Reused() bool { return r.reused }

// Run post-processes a profile against a source of symbols. It is the
// entry point behind every tool: ctx cancels the long stages
// (attribution, propagation) between pipeline steps, and opt.Jobs sets
// the worker-pool width (0 or 1 reproduces the serial pipeline exactly).
//
// When ctx carries an obs.Trace (obs.NewContext), every pipeline stage
// records a span — load, graph (with its attribute sub-span), scc,
// cyclebreak, propagate, model-build — so a run's internal schedule is
// inspectable with -stats or -tracefile. On cancellation the spans
// recorded so far survive in the trace: Run marks it failed and the
// partial run report stays diagnosable.
//
// Run keeps no structure for a later RunFrom; it is RunFrom with no
// base for a caller that analyzes a profile once.
func Run(ctx context.Context, src Source, p *gmon.Profile, opt Options) (*Result, error) {
	return run(ctx, nil, false, src, p, opt)
}

// RunFrom is Run for a profile whose structure an earlier analysis,
// base, may already hold: when base ran against the same source under
// the same Static and RemoveArcs, without AutoBreak, and p's arc
// records have exactly base's keys in base's order, RunFrom skips the
// load, the graph's structure and scc, and fills base's structure with
// p's counts and histogram (callgraph.Shape.Fill). Otherwise it runs
// the whole pipeline, as Run does. Either way the Result renders the
// same bytes as Run's, and base is only read, so any number of
// analyses may share one base at once. base may be nil. Unless
// AutoBreak is set, the Result keeps its structure for the next
// RunFrom.
func RunFrom(ctx context.Context, base *Result, src Source, p *gmon.Profile, opt Options) (*Result, error) {
	return run(ctx, base, true, src, p, opt)
}

// run is Run and RunFrom: it builds on base's structure when that fits
// p, and keeps its own structure in the Result when keep is set.
func run(ctx context.Context, base *Result, keep bool, src Source, p *gmon.Profile, opt Options) (res *Result, err error) {
	tr := obs.FromContext(ctx)
	defer func() {
		if err != nil {
			tr.Fail(err)
		}
	}()
	if src == nil {
		return nil, errors.New("core: nil Source")
	}
	if p == nil {
		return nil, errors.New("core: nil profile")
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Static && !src.supportsStatic() {
		return nil, fmt.Errorf("%w: Static requires an image-backed source", ErrBadOptions)
	}
	var (
		g   *callgraph.Graph
		tab *symtab.Table
	)
	if base != nil && base.shared.fits(src, p, opt) {
		st := base.shared
		graphSpan := tr.Span("graph")
		g, err = st.shape.Fill(ctx, st.tab, p)
		graphSpan.End()
		if err != nil {
			return nil, err
		}
		tab = st.tab
		res = &Result{opt: opt, tr: tr, shared: st, reused: true}
	} else {
		var static []object.StaticArc
		loadSpan := tr.Span("load")
		tab, static, err = src.load(opt.Static)
		loadSpan.End()
		if err != nil {
			return nil, err
		}
		build := func(remove []cyclebreak.ArcID) (*callgraph.Graph, error) {
			return callgraph.BuildWith(ctx, tab, p, static, remove)
		}
		graphSpan := tr.Span("graph")
		g, err = build(opt.RemoveArcs)
		graphSpan.End()
		if err != nil {
			return nil, err
		}
		res = &Result{opt: opt, tr: tr}
		if g, err = analyzeCycles(ctx, g, res, build); err != nil {
			return nil, err
		}
		// AutoBreak picks its arcs by count, so its structure is this
		// profile's alone.
		if keep && !opt.AutoBreak {
			if sh := g.Shape(p); sh != nil {
				res.shared = &structure{src: src, tab: tab, static: opt.Static,
					remove: slices.Clone(opt.RemoveArcs), shape: sh}
			}
		}
	}
	res.RemovedArcs = g.Removed
	tr.Counter("graph.arc_records").Add(int64(len(p.Arcs)))
	tr.Gauge("graph.nodes").Set(int64(g.Len()))
	if err := analyzeValues(ctx, g, res); err != nil {
		return nil, err
	}
	if len(p.Stacks) > 0 {
		// The context-sensitive view rides alongside the arc-based one,
		// built from the same symbol table; its presence moves the model
		// to the v2 schema. Stack-less profiles skip this entirely, so
		// their JSON stays byte-identical to the v1 goldens.
		stacksSpan := tr.Span("stacks-build")
		res.Model.Stacks = model.BuildStacks(p.Stacks, func(pc int64) (string, bool) {
			fn, ok := tab.Find(pc)
			if !ok {
				return "", false
			}
			return fn.Name, true
		}, mon.DefaultStackDepth)
		res.Model.Schema = model.SchemaV2
		stacksSpan.End()
	}
	return res, nil
}

// analyzeCycles finds the cycles of g, the graph build made with the
// removal set res.opt.RemoveArcs, and with AutoBreak breaks them: the
// heuristic picks its arcs on g, stored as res.Suggestion, and build
// makes the graph once more with them added to the removal set. It
// returns the graph whose structure is final.
func analyzeCycles(ctx context.Context, g *callgraph.Graph, res *Result,
	build func(remove []cyclebreak.ArcID) (*callgraph.Graph, error)) (*callgraph.Graph, error) {
	tr := obs.FromContext(ctx)
	sCCSpan := tr.Span("scc")
	scc.Analyze(g)
	sCCSpan.End()
	if !res.opt.AutoBreak {
		return g, nil
	}
	breakSpan := tr.Span("cyclebreak")
	defer breakSpan.End()
	sug := cyclebreak.Suggest(g, cyclebreak.Options{MaxArcs: res.opt.MaxBreakArcs})
	res.Suggestion = &sug
	if len(sug.Arcs) == 0 {
		return g, nil
	}
	g, err := build(append(slices.Clip(res.opt.RemoveArcs), sug.Arcs...))
	if err != nil {
		return nil, err
	}
	scc.Analyze(g)
	return g, nil
}

// analyzeValues runs the stages that read the counts and the histogram on a
// graph whose structure is final: propagation, its check, and the
// model, which it stores in res.
func analyzeValues(ctx context.Context, g *callgraph.Graph, res *Result) error {
	tr := obs.FromContext(ctx)
	tr.Gauge("graph.cycles").Set(int64(len(g.Cycles)))
	propSpan := tr.Span("propagate")
	err := propagate.RunCtx(ctx, g, res.opt.jobs())
	propSpan.End()
	if err != nil {
		return err
	}
	if err := sanity(g); err != nil {
		return err
	}
	modelSpan := tr.Span("model-build")
	res.Model = model.Build(g)
	modelSpan.End()
	return nil
}

// sanity verifies the propagation invariant on every analysis, so an
// analysis that loses ticks fails instead of rendering; a failure
// indicates a bug, not bad input.
func sanity(g *callgraph.Graph) error {
	tolerance := 1e-6 * (1 + g.TotalTicks)
	if lost := propagate.CheckConservation(g); lost > tolerance {
		return fmt.Errorf("core: internal error: propagation lost %g ticks (tolerance %g)", lost, tolerance)
	}
	return nil
}

// reportOptions returns the rendering options with the worker width
// set from Jobs, and publishes the effective width as the
// render.workers gauge.
func (r *Result) reportOptions() report.Options {
	opt := r.opt.Report
	opt.Jobs = r.opt.Jobs
	r.tr.Gauge("render.workers").Set(int64(report.Width(opt.Jobs)))
	return opt
}

// WriteFlat renders the flat profile (§5.1).
func (r *Result) WriteFlat(w io.Writer) error {
	return report.Flat(w, r.Model, r.reportOptions())
}

// WriteCallGraph renders the call graph profile (§5.2).
func (r *Result) WriteCallGraph(w io.Writer) error {
	return report.CallGraph(w, r.Model, r.reportOptions())
}

// WriteIndex renders the alphabetical routine index.
func (r *Result) WriteIndex(w io.Writer) error {
	return report.Index(w, r.Model, r.reportOptions())
}

// WriteJSON encodes the profile model as versioned JSON
// (docs/FORMATS.md); the encoding round-trips through model.Decode.
func (r *Result) WriteJSON(w io.Writer) error {
	return model.Encode(w, r.Model)
}

// WriteFolded renders the stacks view in collapsed-stack ("folded")
// form, the input format of flame-graph renderers. It fails when the
// profile data carried no stack samples.
func (r *Result) WriteFolded(w io.Writer) error {
	return report.Folded(w, r.Model)
}

// WritePprof encodes the stacks view as a gzipped pprof protobuf,
// openable with go tool pprof. It fails when the profile data carried
// no stack samples.
func (r *Result) WritePprof(w io.Writer) error {
	return pprofenc.Encode(w, r.Model)
}

// WriteAll renders the full gprof output: call graph profile, flat
// profile, then the index. Each section is timed as its own span
// (render.callgraph, render.flat, render.index), so a trace says where
// the render time goes.
func (r *Result) WriteAll(w io.Writer) error {
	if r.Suggestion != nil && len(r.Suggestion.Arcs) > 0 {
		fmt.Fprintf(w, "cycle-breaking heuristic removed %d arc(s):\n", len(r.Suggestion.Arcs))
		for i, a := range r.Suggestion.Arcs {
			fmt.Fprintf(w, "    %s (count %d)\n", a, r.Suggestion.Counts[i])
		}
		if !r.Suggestion.Complete {
			fmt.Fprintf(w, "    (bound reached; cycles remain)\n")
		}
		fmt.Fprintln(w)
	}
	span := r.tr.Span("render.callgraph")
	err := r.WriteCallGraph(w)
	span.End()
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	span = r.tr.Span("render.flat")
	err = r.WriteFlat(w)
	span.End()
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	defer r.tr.Span("render.index").End()
	return r.WriteIndex(w)
}

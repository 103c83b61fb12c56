// Package core is the gprof post-processor: it ties the pipeline of the
// paper's §4-§5 together behind one API.
//
// The pipeline, in order:
//
//  1. map the profile's addresses to routines (symtab) and build the
//     dynamic call graph with self times attributed from the histogram
//     (callgraph.BuildCtx);
//  2. optionally merge the static call graph scanned from the executable
//     — zero-count arcs that may complete cycles (object.Scan +
//     Graph.AddStatic);
//  3. delete any arcs the user asked to remove, and/or run the bounded
//     cycle-breaking heuristic (cyclebreak);
//  4. find strongly-connected components and topological numbers
//     (scc.Analyze);
//  5. propagate time from descendants to ancestors (propagate.RunCtx);
//  6. render the flat profile, the call graph profile, and the index
//     (report).
//
// Run is the entry point: it analyzes a profile against a Source — an
// ImageSource for executables of the simulated machine, or a
// TableSource when the symbols come from elsewhere (e.g. the Go-native
// collector in package profgo, which is how gprof profiles itself).
// Options.Jobs sets the worker-pool width for rendering the listing
// (the analysis stages are serial), and Options.Cache reuses the
// symbol table and static call graph across analyses of the same
// executable. Run is the only analysis entry point; the deprecated
// Analyze/AnalyzeTable wrappers are gone.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

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
	// GOMAXPROCS and pass the same width to LoadProfiles for the merge.
	// It overrides Report.Jobs.
	Jobs int
	// Cache, when non-nil, memoizes the symbol table and static call
	// graph per image content hash so repeated analyses of the same
	// executable skip re-indexing. Ignored by a TableSource.
	Cache *Cache
	// Report controls rendering (thresholds, focus, headers).
	Report report.Options
}

// CacheKey returns a normalized fingerprint of every option that can
// change Run's output — the analysis switches (Static, RemoveArcs,
// AutoBreak, MaxBreakArcs) and the rendering options. Jobs and Cache
// are deliberately excluded: worker-pool width never changes the
// result (the jobs-invariance tests pin byte-identical output), and
// the cache is a lookup accelerator, not an input. Two Options values
// with equal CacheKeys therefore produce byte-identical reports for
// the same source and profile, which is what lets a serving layer
// memoize finished analyses per (fingerprint, data version, CacheKey).
func (o Options) CacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "static=%t;autobreak=%t;maxbreak=%d", o.Static, o.AutoBreak, o.MaxBreakArcs)
	if len(o.RemoveArcs) > 0 {
		// RemoveArcs is a set: deletion order never changes which arcs
		// survive, so the key sorts it.
		ids := make([]string, len(o.RemoveArcs))
		for i, a := range o.RemoveArcs {
			ids[i] = a.String()
		}
		sort.Strings(ids)
		fmt.Fprintf(&b, ";remove=%q", ids)
	}
	r := o.Report
	fmt.Fprintf(&b, ";min=%g;noheaders=%t", r.MinPercent, r.NoHeaders)
	if len(r.Focus) > 0 {
		fmt.Fprintf(&b, ";focus=%q", r.Focus)
	}
	if len(r.Exclude) > 0 {
		fmt.Fprintf(&b, ";exclude=%q", r.Exclude)
	}
	return b.String()
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
	// the source supports it, the static arcs. cache may be nil.
	load(cache *Cache, wantStatic bool) (*symtab.Table, []object.StaticArc, error)
	// supportsStatic reports whether the source can produce a static
	// call graph.
	supportsStatic() bool
}

// ImageSource analyzes against a linked executable image.
type ImageSource struct {
	Image *object.Image
}

func (s ImageSource) supportsStatic() bool { return true }

func (s ImageSource) load(cache *Cache, wantStatic bool) (*symtab.Table, []object.StaticArc, error) {
	if s.Image == nil {
		return nil, nil, errors.New("core: ImageSource has a nil Image")
	}
	if cache != nil {
		return cache.load(s.Image, wantStatic)
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
// no static arcs).
type TableSource struct {
	Table *symtab.Table
}

func (s TableSource) supportsStatic() bool { return false }

func (s TableSource) load(*Cache, bool) (*symtab.Table, []object.StaticArc, error) {
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
	Graph *callgraph.Graph
	// Model is the serializable profile built from Graph after
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
}

// Run post-processes a profile against a source of symbols. It is the
// single entry point behind every tool: ctx cancels the long stages
// (attribution, propagation) between pipeline steps, opt.Jobs sets the
// worker-pool width (0 or 1 reproduces the serial pipeline exactly),
// and opt.Cache reuses static layers across calls.
//
// When ctx carries an obs.Trace (obs.NewContext), every pipeline stage
// records a span — load, graph (with its attribute sub-span), scc,
// cyclebreak, propagate, model-build — and the static-layer cache
// publishes its hit/miss gauges, so a run's internal schedule is
// inspectable with -stats or -tracefile. On cancellation the spans
// recorded so far survive in the trace: Run marks it failed and the
// partial run report stays diagnosable.
func Run(ctx context.Context, src Source, p *gmon.Profile, opt Options) (res *Result, err error) {
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
	loadSpan := tr.Span("load")
	tab, static, err := src.load(opt.Cache, opt.Static)
	loadSpan.End()
	if err != nil {
		return nil, err
	}
	if opt.Cache != nil {
		hits, misses := opt.Cache.Stats()
		tr.Gauge("cache.static_hits").Set(int64(hits))
		tr.Gauge("cache.static_misses").Set(int64(misses))
	}
	graphSpan := tr.Span("graph")
	g, err := callgraph.BuildCtx(ctx, tab, p, opt.jobs())
	graphSpan.End()
	if err != nil {
		return nil, err
	}
	if opt.Static {
		g.AddStatic(static)
	}
	tr.Gauge("graph.nodes").Set(int64(g.Len()))
	res, err = finish(ctx, g, opt)
	if err != nil {
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

// LoadProfiles reads one or more profile data files and sums them into
// a single profile, streaming each file through a pooled decode buffer
// across a worker pool of the given width (jobs <= 1 reads
// sequentially). It is the loading half of every tool's pipeline; the
// result feeds Run.
func LoadProfiles(ctx context.Context, names []string, jobs int) (*gmon.Profile, error) {
	return gmon.MergeAllStreaming(ctx, names, jobs)
}

func finish(ctx context.Context, g *callgraph.Graph, opt Options) (*Result, error) {
	tr := obs.FromContext(ctx)
	res := &Result{Graph: g, opt: opt, tr: tr}
	for _, id := range opt.RemoveArcs {
		if g.RemoveArc(id.Caller, id.Callee) {
			res.RemovedArcs++
		}
	}
	sCCSpan := tr.Span("scc")
	scc.Analyze(g)
	sCCSpan.End()
	tr.Gauge("graph.cycles").Set(int64(len(g.Cycles)))
	if opt.AutoBreak {
		breakSpan := tr.Span("cyclebreak")
		sug := cyclebreak.Suggest(g, cyclebreak.Options{MaxArcs: opt.MaxBreakArcs})
		res.Suggestion = &sug
		res.RemovedArcs += cyclebreak.Apply(g, sug.Arcs)
		breakSpan.End()
	}
	propSpan := tr.Span("propagate")
	err := propagate.RunCtx(ctx, g, opt.jobs())
	propSpan.End()
	if err != nil {
		return nil, err
	}
	if err := sanity(g); err != nil {
		return nil, err
	}
	modelSpan := tr.Span("model-build")
	res.Model = model.Build(g)
	modelSpan.End()
	return res, nil
}

// sanity verifies the propagation invariant on every analysis; a failure
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
// profile, then the index.
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
	if err := r.WriteCallGraph(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := r.WriteFlat(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return r.WriteIndex(w)
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/callgraph"
	"repro/internal/gmon"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/propagate"
	"repro/internal/report"
	"repro/internal/scc"
	"repro/internal/serve"
	"repro/internal/symtab"
)

// program is one executable and the profile files summed for it.
type program struct {
	image    string
	profiles []string
}

// stagedInputs is what the traced phase runs: the workload's own
// programs, a scale probe whose small side is a tenth of its big side,
// and the layers whose seconds add up to one end-to-end operation.
type stagedInputs struct {
	progs      []program
	big, small []program // big nil means progs
	// opLayers name the layers one end-to-end operation runs;
	// trace.overhead_s is their summed median minus the untraced
	// operation's median latency.
	opLayers []string
}

// stagedRun is one pass of the staged pipeline: per-layer seconds,
// allocated megabytes (runtime TotalAlloc growth) and megabytes read or
// written, summed over the pass's programs.
type stagedRun struct {
	sec, alloc, mb map[string]float64
	digests        []string // SHA-256 of each program's rendered listing
}

func (r *stagedRun) time(layer string, fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	r.sec[layer] += d.Seconds()
	r.alloc[layer] += float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	return err
}

func fileMB(name string) float64 {
	st, err := os.Stat(name)
	if err != nil {
		return 0
	}
	return float64(st.Size()) / 1e6
}

// stagedPass runs each program through the offline pipeline one
// exported entry point at a time — the calls core.Run and gprof make —
// and times every call. The rendered listing is `gprof -brief`'s
// stdout, which the cli-report gate compares against.
func stagedPass(ctx context.Context, progs []program, jobs int, dir string, buf *bytes.Buffer) (*stagedRun, error) {
	r := &stagedRun{sec: map[string]float64{}, alloc: map[string]float64{}, mb: map[string]float64{}}
	for _, pr := range progs {
		var runs []*gmon.Profile
		for _, f := range pr.profiles {
			var p *gmon.Profile
			if err := r.time("gmon.decode", func() (err error) { p, err = gmon.ReadFile(f); return err }); err != nil {
				return nil, err
			}
			r.mb["gmon.decode"] += fileMB(f)
			runs = append(runs, p)
		}
		var merged *gmon.Profile
		if err := r.time("gmon.merge", func() (err error) { merged, err = gmon.MergeAll(ctx, runs, jobs); return err }); err != nil {
			return nil, err
		}
		enc := filepath.Join(dir, "staged.gmon")
		if err := r.time("gmon.encode", func() error { return gmon.WriteFileVersion(enc, merged, gmon.Version2) }); err != nil {
			return nil, err
		}
		r.mb["gmon.encode"] += fileMB(enc)
		var im *object.Image
		if err := r.time("object.load", func() (err error) { im, err = object.ReadImageFile(pr.image); return err }); err != nil {
			return nil, err
		}
		r.mb["object.load"] += fileMB(pr.image)
		var tab *symtab.Table
		if err := r.time("symtab.build", func() error { tab = symtab.New(im); return tab.Validate() }); err != nil {
			return nil, err
		}
		var g *callgraph.Graph
		if err := r.time("callgraph.build", func() (err error) { g, err = callgraph.BuildCtx(ctx, tab, merged, jobs); return err }); err != nil {
			return nil, err
		}
		r.time("scc.analyze", func() error { scc.Analyze(g); return nil })
		if err := r.time("propagate.run", func() error { return propagate.RunCtx(ctx, g, jobs) }); err != nil {
			return nil, err
		}
		var m *model.Profile
		r.time("model.build", func() error { m = model.Build(g); return nil })
		buf.Reset()
		opt := report.Options{NoHeaders: true}
		if err := r.time("report.callgraph", func() error { return report.CallGraph(buf, m, opt) }); err != nil {
			return nil, err
		}
		buf.WriteByte('\n')
		if err := r.time("report.flat", func() error { return report.Flat(buf, m, opt) }); err != nil {
			return nil, err
		}
		buf.WriteByte('\n')
		if err := r.time("report.index", func() error { return report.IndexListing(buf, m) }); err != nil {
			return nil, err
		}
		r.mb["report"] += float64(buf.Len()) / 1e6
		r.digests = append(r.digests, digest(buf.Bytes()))
	}
	return r, nil
}

// serveRun is one in-process replay of a workload's uploads through the
// serve layer's HTTP handler, every handler call timed.
type serveRun struct {
	ingest, visible, warm []float64 // ms
	foldP50               float64   // ms, from the /metrics fold histogram
}

// serveReplay registers each program with a fresh in-process gprofd
// handler, uploads its profiles, makes them visible with one
// /v1/flat?sync=1, then asks warm times more. visible is the last
// upload plus the cold query.
func serveReplay(ctx context.Context, progs []program, jobs, warm int) (*serveRun, error) {
	srv := serve.New(serve.Config{Window: time.Hour, Jobs: jobs})
	defer srv.Close()
	h := srv.Handler()
	call := func(method, target string, body []byte, fp string) (int, []byte, float64) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req := httptest.NewRequest(method, target, rd).WithContext(ctx)
		if fp != "" {
			req.Header.Set("X-Gprof-Fingerprint", fp)
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), ms(time.Since(start))
	}
	do := func(method, target string, body []byte, fp string) (int, []byte, error) {
		code, resp, _ := call(method, target, body, fp)
		return code, resp, nil
	}
	fps := make([]string, len(progs))
	for i, pr := range progs {
		img, err := os.ReadFile(pr.image)
		if err != nil {
			return nil, err
		}
		if fps[i], err = register(do, img); err != nil {
			return nil, fmt.Errorf("%s: %w", pr.image, err)
		}
	}
	before, err := takeScrape(do)
	if err != nil {
		return nil, err
	}
	sr := &serveRun{}
	for i, pr := range progs {
		last := 0.0
		for _, f := range pr.profiles {
			body, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			code, resp, took := call(http.MethodPost, "/v1/ingest", body, fps[i])
			if code != http.StatusAccepted {
				return nil, fmt.Errorf("ingest %s: status %d: %s", f, code, resp)
			}
			sr.ingest = append(sr.ingest, took)
			last = took
		}
		flat := "/v1/flat?fp=" + url.QueryEscape(fps[i])
		code, resp, took := call(http.MethodGet, flat+"&sync=1", nil, "")
		if code != http.StatusOK {
			return nil, fmt.Errorf("cold flat query: status %d: %s", code, resp)
		}
		sr.visible = append(sr.visible, last+took)
		for k := 0; k < warm; k++ {
			code, resp, took := call(http.MethodGet, flat, nil, "")
			if code != http.StatusOK {
				return nil, fmt.Errorf("warm flat query: status %d: %s", code, resp)
			}
			sr.warm = append(sr.warm, took)
		}
	}
	after, err := takeScrape(do)
	if err != nil {
		return nil, err
	}
	sr.foldP50 = bucketQuantile(histogramDelta(before.expo, after.expo, "gprofd_shard_fold_duration_ns", nil), 0.5) / 1e6
	return sr, nil
}

// traced runs the staged pipeline, the in-process serve replay and the
// scale probe over and over for d, and reduces them to the per-layer
// metrics: each the median over passes. refSec is the untraced
// operation's median latency from the same run.
func traced(ctx context.Context, cfg config, in stagedInputs, d time.Duration, refSec float64) ([]metric, *stagedRun, error) {
	dir := filepath.Join(cfg.work, "traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	var passes, bigs, smalls []*stagedRun
	var serves []*serveRun
	deadline := time.Now().Add(d)
	for len(passes) == 0 || time.Now().Before(deadline) {
		p, err := stagedPass(ctx, in.progs, cfg.jobs, dir, &buf)
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, p)
		sr, err := serveReplay(ctx, in.progs, cfg.jobs, cfg.sz.warmPerCycle)
		if err != nil {
			return nil, nil, fmt.Errorf("serve replay: %w", err)
		}
		serves = append(serves, sr)
		if in.big != nil {
			if p, err = stagedPass(ctx, in.big, cfg.jobs, dir, &buf); err != nil {
				return nil, nil, err
			}
			bigs = append(bigs, p)
		}
		if p, err = stagedPass(ctx, in.small, cfg.jobs, dir, &buf); err != nil {
			return nil, nil, err
		}
		smalls = append(smalls, p)
	}
	if in.big == nil {
		bigs = passes
	}
	return layerMetrics(in, passes, bigs, smalls, serves, refSec), passes[0], nil
}

func perPass(runs []*stagedRun, f func(*stagedRun) float64) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return median(xs)
}

// scaleLayers are the layers whose cost the scale probe compares at two
// input sizes; 1.0 means linear.
var scaleLayers = []string{"gmon.decode", "object.load", "callgraph.build", "propagate.run",
	"model.build", "report.callgraph", "report.flat", "report.index"}

// layerMetrics reduces the traced passes to the per-layer metrics, in
// the order BENCHMARK.json lists them.
func layerMetrics(in stagedInputs, passes, bigs, smalls []*stagedRun, serves []*serveRun, refSec float64) []metric {
	n := len(passes)
	sec := func(l string) float64 { return perPass(passes, func(r *stagedRun) float64 { return r.sec[l] }) }
	alloc := func(l string) float64 { return perPass(passes, func(r *stagedRun) float64 { return r.alloc[l] }) }
	rate := func(l string) float64 {
		return perPass(passes, func(r *stagedRun) float64 { return r.mb[l] / r.sec[l] })
	}
	reportSec := func(r *stagedRun) float64 {
		return r.sec["report.callgraph"] + r.sec["report.flat"] + r.sec["report.index"]
	}
	var ingest, visible, warm, fold []float64
	for _, s := range serves {
		ingest = append(ingest, s.ingest...)
		visible = append(visible, s.visible...)
		warm = append(warm, s.warm...)
		fold = append(fold, s.foldP50)
	}
	ms := []metric{
		{Name: "gmon.decode_s", Unit: "s", Value: sec("gmon.decode"), N: n},
		{Name: "gmon.decode_mb_s", Unit: "MB/s", Value: rate("gmon.decode"), N: n},
		{Name: "gmon.decode_alloc_mb", Unit: "MB", Value: alloc("gmon.decode"), N: n},
		{Name: "gmon.merge_s", Unit: "s", Value: sec("gmon.merge"), N: n},
		{Name: "gmon.encode_s", Unit: "s", Value: sec("gmon.encode"), N: n},
		{Name: "gmon.encode_mb_s", Unit: "MB/s", Value: rate("gmon.encode"), N: n},
		{Name: "object.load_s", Unit: "s", Value: sec("object.load"), N: n},
		{Name: "object.load_mb_s", Unit: "MB/s", Value: rate("object.load"), N: n},
		{Name: "object.load_alloc_mb", Unit: "MB", Value: alloc("object.load"), N: n},
		{Name: "symtab.build_s", Unit: "s", Value: sec("symtab.build"), N: n},
		{Name: "callgraph.build_s", Unit: "s", Value: sec("callgraph.build"), N: n},
		{Name: "callgraph.alloc_mb", Unit: "MB", Value: alloc("callgraph.build"), N: n},
		{Name: "scc.analyze_s", Unit: "s", Value: sec("scc.analyze"), N: n},
		{Name: "propagate.run_s", Unit: "s", Value: sec("propagate.run"), N: n},
		{Name: "model.build_s", Unit: "s", Value: sec("model.build"), N: n},
		{Name: "model.alloc_mb", Unit: "MB", Value: alloc("model.build"), N: n},
		{Name: "report.callgraph_s", Unit: "s", Value: sec("report.callgraph"), N: n},
		{Name: "report.flat_s", Unit: "s", Value: sec("report.flat"), N: n},
		{Name: "report.index_s", Unit: "s", Value: sec("report.index"), N: n},
		{Name: "report.out_mb_s", Unit: "MB/s", Value: perPass(passes, func(r *stagedRun) float64 { return r.mb["report"] / reportSec(r) }), N: n},
		{Name: "report.alloc_mb", Unit: "MB", Value: perPass(passes, func(r *stagedRun) float64 {
			return r.alloc["report.callgraph"] + r.alloc["report.flat"] + r.alloc["report.index"]
		}), N: n},
		{Name: "serve.ingest_p50_ms", Unit: "ms", Value: median(ingest), N: len(ingest)},
		{Name: "serve.fold_p50_ms", Unit: "ms", Value: median(fold), N: len(fold)},
		{Name: "serve.visible_ms", Unit: "ms", Value: median(visible), N: len(visible)},
		{Name: "serve.warm_query_p50_ms", Unit: "ms", Value: median(warm), N: len(warm)},
	}
	for _, l := range scaleLayers {
		big := perPass(bigs, func(r *stagedRun) float64 { return r.sec[l] })
		small := perPass(smalls, func(r *stagedRun) float64 { return r.sec[l] })
		ms = append(ms, metric{Name: l + ".scale_10x", Unit: "ratio", Value: big / (10 * small), N: len(smalls)})
	}
	op := 0.0
	for _, l := range in.opLayers {
		switch l {
		case "serve.visible":
			op += median(visible) / 1e3
		case "serve.ingest":
			op += median(ingest) / 1e3
		default:
			op += sec(l)
		}
	}
	return append(ms, metric{Name: "trace.overhead_s", Unit: "s", Value: op - refSec, N: n})
}

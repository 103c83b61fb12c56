package main

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gmon"
	"repro/internal/object"
)

// workload is one benchmark workload. setup may be called several
// times (setup_s is their median); close undoes one setup.
type workload interface {
	setup(ctx context.Context) error
	measure(ctx context.Context, d time.Duration, rec *recorder) error
	// staged returns the traced phase's inputs; it may generate the
	// scale probe's smaller inputs.
	staged(ctx context.Context) (stagedInputs, error)
	// check runs the correctness gates. ref is the traced phase's first
	// staged pass, or nil when the run was untraced.
	check(ctx context.Context, rec *recorder, ref *stagedRun) error
	close()
}

// benchmarks maps each workload name to its constructor; BENCHMARK.json
// records why each was chosen.
var benchmarks = map[string]func(config) workload{
	"cli-report-100k":     func(c config) workload { return &cliReport{cfg: c} },
	"cli-sum-8x100k":      func(c config) workload { return &cliSum{cfg: c} },
	"gprofd-visible-100k": func(c config) workload { return &visible{cfg: c} },
	"gprofd-mixed-small":  func(c config) workload { return &mixed{cfg: c} },
}

// timeLoop calls op until d has passed, at least once.
func timeLoop(ctx context.Context, d time.Duration, op func()) error {
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := ctx.Err(); err != nil {
			return err
		}
		op()
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// invocation records one successful gprof run: its wall time, CPU and
// peak RSS, then the reference kernel right after it.
func (r *recorder) invocation(run cliRun) {
	r.lat = append(r.lat, ms(run.wall))
	r.cpuMs += ms(run.cpu)
	r.ops++
	r.rssMB = append(r.rssMB, run.rssMB)
	r.reference(ms(run.wall))
}

// smallInputs writes the scale probe's tenth-size twin of a synthetic
// program.
func smallInputs(cfg config, nodes, runs int) ([]program, error) {
	sp, err := writeSynth(filepath.Join(cfg.work, "small"), max(nodes/10, 1), cfg.seed, runs)
	if err != nil {
		return nil, err
	}
	return []program{{sp.image, sp.profiles}}, nil
}

var offlineLayers = []string{"gmon.decode", "object.load", "symtab.build", "callgraph.build",
	"scc.analyze", "propagate.run", "model.build", "report.callgraph", "report.flat", "report.index"}

// cliReport times `gprof -brief a.out gmon.out`.
type cliReport struct {
	cfg     config
	prog    *synthProgram
	digests []string // stdout digest of each invocation
	out     int64
}

func (w *cliReport) setup(ctx context.Context) (err error) {
	w.prog, err = writeSynth(w.cfg.work, w.cfg.sz.reportNodes, w.cfg.seed, 0)
	return err
}

func (w *cliReport) measure(ctx context.Context, d time.Duration, rec *recorder) error {
	gprof := filepath.Join(w.cfg.bin, "gprof")
	return timeLoop(ctx, d, func() {
		r, err := runCLI(ctx, gprof, "-brief", "-jobs", strconv.Itoa(w.cfg.jobs), w.prog.image, w.prog.profiles[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			rec.op(false)
			return
		}
		w.digests = append(w.digests, r.digest)
		w.out = r.bytes
		rec.invocation(r)
	})
}

func (w *cliReport) staged(ctx context.Context) (stagedInputs, error) {
	small, err := smallInputs(w.cfg, w.cfg.sz.reportNodes, 0)
	return stagedInputs{
		progs:    []program{{w.prog.image, w.prog.profiles}},
		small:    small,
		opLayers: offlineLayers,
	}, err
}

// check: every invocation's stdout equals the staged pipeline's render.
func (w *cliReport) check(ctx context.Context, rec *recorder, ref *stagedRun) error {
	if ref == nil {
		var err error
		var buf bytes.Buffer
		if ref, err = stagedPass(ctx, []program{{w.prog.image, w.prog.profiles}}, w.cfg.jobs, w.cfg.work, &buf); err != nil {
			return err
		}
	}
	for i, d := range w.digests {
		var err error
		if d != ref.digests[0] {
			err = fmt.Errorf("invocation %d: stdout sha256 %s, staged render %s", i, d, ref.digests[0])
		}
		rec.check("cli-stdout-equals-staged-render", err)
	}
	rec.note("stdout_mb", "MB", float64(w.out)/1e6, 1)
	return nil
}

func (w *cliReport) close() {}

// cliSum times `gprof -sum merged -format 2 g.1 … g.n` over perturbed
// runs of one program.
type cliSum struct {
	cfg     config
	prog    *synthProgram
	digests []string // merged-file digest of each invocation
}

func (w *cliSum) setup(ctx context.Context) (err error) {
	w.prog, err = writeSynth(w.cfg.work, w.cfg.sz.sumNodes, w.cfg.seed, w.cfg.sz.sumFiles)
	return err
}

func (w *cliSum) measure(ctx context.Context, d time.Duration, rec *recorder) error {
	gprof := filepath.Join(w.cfg.bin, "gprof")
	out := filepath.Join(w.cfg.work, "merged.gmon")
	args := append([]string{"-jobs", strconv.Itoa(w.cfg.jobs), "-sum", out, "-format", "2"}, w.prog.profiles...)
	return timeLoop(ctx, d, func() {
		os.Remove(out)
		r, err := runCLI(ctx, gprof, args...)
		var merged []byte
		if err == nil {
			merged, err = os.ReadFile(out)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			rec.op(false)
			return
		}
		w.digests = append(w.digests, digest(merged))
		rec.invocation(r)
	})
}

func (w *cliSum) staged(ctx context.Context) (stagedInputs, error) {
	small, err := smallInputs(w.cfg, w.cfg.sz.sumNodes, w.cfg.sz.sumFiles)
	return stagedInputs{
		progs:    []program{{w.prog.image, w.prog.profiles}},
		small:    small,
		opLayers: []string{"gmon.decode", "gmon.merge", "gmon.encode"},
	}, err
}

// check: every merged file equals MergeAll + the v2 encoding of the
// decoded runs, and the sum's counts are the runs' counts added up.
func (w *cliSum) check(ctx context.Context, rec *recorder, _ *stagedRun) error {
	runs, err := decodeAll(w.prog.bodies)
	if err != nil {
		return err
	}
	want, err := gmon.MergeAll(ctx, runs, 1)
	if err != nil {
		return err
	}
	body, err := encode(want, gmon.Version2, false)
	if err != nil {
		return err
	}
	wantDigest := digest(body)
	for i, d := range w.digests {
		var err error
		if d != wantDigest {
			err = fmt.Errorf("invocation %d: merged file sha256 %s, staged MergeAll %s", i, d, wantDigest)
		}
		rec.check("cli-sum-equals-staged-merge", err)
	}
	var arcs, ticks int64
	for _, p := range runs {
		for _, a := range p.Arcs {
			arcs += a.Count
		}
		ticks += p.Hist.TotalTicks()
	}
	var gotArcs int64
	for _, a := range want.Arcs {
		gotArcs += a.Count
	}
	err = nil
	if gotArcs != arcs || want.Hist.TotalTicks() != ticks {
		err = fmt.Errorf("sum holds %d arc traversals and %d ticks, runs add up to %d and %d",
			gotArcs, want.Hist.TotalTicks(), arcs, ticks)
	}
	rec.check("cli-sum-counts-add-up", err)
	return nil
}

func (w *cliSum) close() {}

// serverPhase brackets a measured phase of a gprofd: its CPU time, a
// /metrics + /v1/stats scrape at both ends, and its peak RSS. A phase
// under steady load may be cut into windows, each with its own peak,
// because one peak over the whole phase reads whichever garbage
// collection came latest and the median of the window peaks does not.
// A phase with no windows is one window.
type serverPhase struct {
	s      *server
	cpu0   float64
	before scrape
	peaks  []float64 // gprofd's peak RSS in each window, MB
	err    error     // the first failure to read or reset the peak
}

func beginPhase(ctx context.Context, s *server) (*serverPhase, error) {
	p := &serverPhase{s: s}
	var err error
	if p.before, err = takeScrape(s.doer(ctx)); err != nil {
		return nil, err
	}
	if p.cpu0, err = s.cpuSeconds(); err != nil {
		return nil, err
	}
	return p, s.resetPeakRSS()
}

// window ends one window: it records gprofd's peak RSS since the last
// window and resets it. Windows are taken one at a time.
func (p *serverPhase) window() {
	mb, err := p.s.peakRSSMB()
	if err == nil {
		err = p.s.resetPeakRSS()
	}
	if err != nil {
		p.err = cmp.Or(p.err, err)
		return
	}
	p.peaks = append(p.peaks, mb)
}

// windowEvery ends a window every d until the returned stop is called.
func (p *serverPhase) windowEvery(d time.Duration) (stop func()) {
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				p.window()
			}
		}
	}()
	return func() { close(done); <-stopped }
}

// end records the phase's CPU per operation, gprofd's peak RSS per
// window, and the serve-layer scrape delta.
func (p *serverPhase) end(ctx context.Context, rec *recorder, ops int64) error {
	if len(p.peaks) == 0 {
		p.window()
	}
	if p.err != nil {
		return p.err
	}
	cpu1, err := p.s.cpuSeconds()
	if err != nil {
		return err
	}
	after, err := takeScrape(p.s.doer(ctx))
	if err != nil {
		return err
	}
	rec.cpuMs += (cpu1 - p.cpu0) * 1e3
	rec.ops += ops
	rec.rssMB = append(rec.rssMB, p.peaks...)
	for _, m := range serveDelta(p.before, after) {
		rec.note(m.Name, m.Unit, m.Value, 0)
	}
	return nil
}

// visible measures how long an upload takes to become visible to a
// query on a gprofd holding a 10^5-routine program: one client, closed
// loop, each cycle an upload, a sync=1 flat query, and warm queries.
type visible struct {
	cfg      config
	prog     *synthProgram
	srv      *server
	fp       string
	accepted [][]byte // upload bodies gprofd accepted
}

func (w *visible) setup(ctx context.Context) (err error) {
	if w.prog, err = writeSynth(w.cfg.work, w.cfg.sz.visibleNodes, w.cfg.seed, w.cfg.sz.variants); err != nil {
		return err
	}
	// Each upload makes a new data version, and the analysis cache keeps
	// every version's ~100 MB analysis at 10^5 routines until its 128
	// entries fill. Two entries hold the version the queries reuse and
	// the one before it, and keep peak RSS a property of one version,
	// not of how many cycles fit in the run.
	if w.srv, err = startServer(ctx, w.cfg.bin, w.cfg.jobs, "-querycache", "2"); err != nil {
		return err
	}
	img, err := os.ReadFile(w.prog.image)
	if err != nil {
		return err
	}
	w.fp, err = register(w.srv.doer(ctx), img)
	return err
}

func (w *visible) measure(ctx context.Context, d time.Duration, rec *recorder) error {
	phase, err := beginPhase(ctx, w.srv)
	if err != nil {
		return err
	}
	flat := "/v1/flat?fp=" + url.QueryEscape(w.fp)
	var ingest, warm []float64
	cycle := 0
	err = timeLoop(ctx, d, func() {
		v := cycle % len(w.prog.bodies)
		cycle++
		start := time.Now()
		status, _, err := w.srv.do(ctx, http.MethodPost, "/v1/ingest", w.prog.bodies[v], w.fp)
		ingest = append(ingest, ms(time.Since(start)))
		if ok := err == nil && status == http.StatusAccepted; !ok {
			rec.op(false)
			return
		}
		rec.op(true)
		w.accepted = append(w.accepted, w.prog.bodies[v])
		status, cold, err := w.srv.get(ctx, flat+"&sync=1")
		if ok := err == nil && status == http.StatusOK; !ok {
			rec.op(false)
			return
		}
		rec.op(true)
		visible := ms(time.Since(start))
		rec.lat = append(rec.lat, visible)
		for k := 0; k < w.cfg.sz.warmPerCycle; k++ {
			t := time.Now()
			status, body, err := w.srv.get(ctx, flat)
			warm = append(warm, ms(time.Since(t)))
			rec.op(err == nil && status == http.StatusOK && bytes.Equal(body, cold))
		}
		rec.reference(visible)
	})
	if err != nil {
		return err
	}
	rec.latencies("ingest", ingest)
	rec.latencies("warm_query", warm)
	return phase.end(ctx, rec, int64(cycle))
}

func (w *visible) staged(ctx context.Context) (stagedInputs, error) {
	small, err := smallInputs(w.cfg, w.cfg.sz.visibleNodes, w.cfg.sz.variants)
	return stagedInputs{
		progs:    []program{{w.prog.image, w.prog.profiles}},
		small:    small,
		opLayers: []string{"serve.visible"},
	}, err
}

// check: the served merge equals an offline MergeAll of the accepted
// uploads, and the served flat profile equals an offline core.Run's.
func (w *visible) check(ctx context.Context, rec *recorder, _ *stagedRun) error {
	want, err := mergeBodies(ctx, w.accepted)
	if err != nil {
		return err
	}
	rec.check("gprofd-gmon-equals-offline-merge", compareGmon(ctx, w.srv, w.fp, want))
	im, err := object.ReadImageFile(w.prog.image)
	if err != nil {
		return err
	}
	res, err := core.Run(ctx, core.ImageSource{Image: im}, want, core.Options{Jobs: w.cfg.jobs})
	if err != nil {
		return err
	}
	var flat bytes.Buffer
	if err := res.WriteFlat(&flat); err != nil {
		return err
	}
	status, got, err := w.srv.get(ctx, "/v1/flat?sync=1&fp="+url.QueryEscape(w.fp))
	if err == nil && (status != http.StatusOK || !bytes.Equal(got, flat.Bytes())) {
		err = fmt.Errorf("served flat profile (status %d, %d bytes) differs from offline core.Run (%d bytes)",
			status, len(got), flat.Len())
	}
	rec.check("gprofd-flat-equals-offline-run", err)
	return nil
}

func (w *visible) close() { w.srv.stop(); w.srv, w.accepted = nil, nil }

// compareGmon checks a fingerprint's served merge (/v1/gmon, v3 so
// stack tables count too) against an offline merge.
func compareGmon(ctx context.Context, s *server, fp string, want *gmon.Profile) error {
	body, err := encode(want, gmon.Version3, false)
	if err != nil {
		return err
	}
	status, got, err := s.get(ctx, "/v1/gmon?sync=1&v=3&fp="+url.QueryEscape(fp))
	if err != nil {
		return err
	}
	if status != http.StatusOK || !bytes.Equal(got, body) {
		return fmt.Errorf("%s: served merge (status %d, %d bytes) differs from offline MergeAll (%d bytes)",
			fp, status, len(got), len(body))
	}
	return nil
}

// mixed offers the toy corpus to a gprofd as an open loop: 90% uploads
// cycling over program × run × transport, 10% queries cycling over
// /v1/flat, /v1/profile and /v1/callgraph across fingerprints, at each
// rate of a fixed ladder.
type mixed struct {
	cfg   config
	items []*corpusItem
	srv   *server

	mu       sync.Mutex
	accepted [][][]byte // upload bodies gprofd accepted, per item
}

var mixedQueries = []string{"/v1/flat?fp=", "/v1/profile?fp=", "/v1/callgraph?fp="}

// mixedLatencyLimit is the tail latency a ladder rung must meet, for
// uploads and queries alike.
const mixedLatencyLimit = 20.0 // ms

func (w *mixed) setup(ctx context.Context) (err error) {
	if w.items, err = buildCorpus(w.cfg.work, w.cfg.seed); err != nil {
		return err
	}
	if w.srv, err = startServer(ctx, w.cfg.bin, w.cfg.jobs); err != nil {
		return err
	}
	w.accepted = make([][][]byte, len(w.items))
	for _, it := range w.items {
		if it.fp, err = register(w.srv.doer(ctx), it.body); err != nil {
			return err
		}
	}
	return nil
}

// upload sends run r of item i in transport t to s; on gprofd it
// records the body as accepted.
func (w *mixed) upload(ctx context.Context, s *server, i, r, t int) error {
	it := w.items[i]
	status, body, err := s.do(ctx, http.MethodPost, "/v1/ingest", it.runs[r].bodies[t], it.fp)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("upload: status %d: %s", status, body)
	}
	if s == w.srv {
		w.mu.Lock()
		w.accepted[i] = append(w.accepted[i], it.runs[r].bodies[t])
		w.mu.Unlock()
	}
	return nil
}

// request sends the seq'th request of the mix to s and reports its
// kind: every tenth a query, cycling over endpoints and fingerprints,
// the rest uploads cycling over program, run and transport.
func (w *mixed) request(ctx context.Context, s *server, seq int) (kind int, err error) {
	n := len(w.items)
	if seq%10 == 9 {
		q := seq / 10
		status, body, err := s.get(ctx, mixedQueries[q%len(mixedQueries)]+url.QueryEscape(w.items[(q/len(mixedQueries))%n].fp))
		if err == nil && (status != http.StatusOK || len(body) == 0) {
			err = fmt.Errorf("query: status %d: %s", status, body)
		}
		return kindQuery, err
	}
	return kindUpload, w.upload(ctx, s, seq%n, (seq/n)%corpusSeeds, (seq/(n*corpusSeeds))%len(transports))
}

// echoServer is the harness's own do-nothing HTTP server, the reference
// operation gprofd-mixed's latency is divided by. It drains each body
// and answers at once, so the same open-loop traffic timed against it
// measures what the generator, the HTTP client and the loopback path
// cost on the host at that moment.
func echoServer() (*httptest.Server, *server) {
	h := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.Method == http.MethodPost {
			rw.WriteHeader(http.StatusAccepted)
		}
		rw.Write([]byte("ok\n"))
	}))
	return h, &server{base: h.URL, client: newClient()}
}

func (w *mixed) measure(ctx context.Context, d time.Duration, rec *recorder) error {
	// Every fingerprint gets data before the clock starts, so no query
	// meets an empty shard.
	for i, it := range w.items {
		if err := w.upload(ctx, w.srv, i, 0, 1); err != nil {
			return err
		}
		if status, _, err := w.srv.get(ctx, "/v1/flat?sync=1&fp="+url.QueryEscape(it.fp)); err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up query for %s: status %d: %v", it.name, status, err)
		}
	}
	echo, echoClient := echoServer()
	defer echo.Close()
	rungTime := d / time.Duration(len(w.cfg.sz.ladder))
	// echoPhase offers the reference rung's traffic to the echo server
	// for a third of a rung.
	echoPhase := func(rate float64) {
		res := openLoop(ctx, rate, rungTime/3, maxConns, func(i int) (int, error) {
			return w.request(ctx, echoClient, i)
		})
		rec.ref = append(append(rec.ref, res.lat[kindUpload]...), res.lat[kindQuery]...)
	}
	// The serve-layer scrape, CPU and RSS cover the reference rung, the
	// rate the latency metrics come from; its RSS is cut into eight
	// windows.
	var rungs []rung
	seq := 0
	for k, rate := range w.cfg.sz.ladder {
		var phase *serverPhase
		stopWindows := func() {}
		if k == w.cfg.sz.refRung {
			echoPhase(rate)
			var err error
			if phase, err = beginPhase(ctx, w.srv); err != nil {
				return err
			}
			stopWindows = phase.windowEvery(rungTime / 8)
		}
		base := seq
		res := openLoop(ctx, rate, rungTime, maxConns, func(i int) (int, error) {
			return w.request(ctx, w.srv, base+i)
		})
		stopWindows()
		seq += res.offered
		rec.attempted += int64(res.sent)
		rec.failed += int64(res.failed)
		r := res.rung(mixedLatencyLimit)
		rungs = append(rungs, r)
		if phase != nil {
			rec.lat = append(append(rec.lat, res.lat[kindUpload]...), res.lat[kindQuery]...)
			rec.latencies("ingest", res.lat[kindUpload])
			rec.latencies("query", res.lat[kindQuery])
			rec.note("gen.lateness_p99_ms", "ms", percentile(res.late, 990), len(res.late))
			if err := phase.end(ctx, rec, int64(res.sent)); err != nil {
				return err
			}
			echoPhase(rate)
			rec.rel = append(rec.rel, median(rec.lat)/median(rec.ref))
		}
		if k >= w.cfg.sz.refRung && !r.ok() {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	rec.note("max_rate_per_s", "1/s", maxRate(rungs), len(rungs))
	return nil
}

func (w *mixed) staged(ctx context.Context) (stagedInputs, error) {
	in := stagedInputs{opLayers: []string{"serve.ingest"}}
	for _, it := range w.items {
		p := program{image: it.image}
		for _, r := range it.runs {
			p.profiles = append(p.profiles, r.files...)
		}
		in.progs = append(in.progs, p)
	}
	// The toy programs have no size to scale, so the scale probe runs a
	// synthetic program at scaleNodes and a tenth of it.
	big, err := writeSynth(filepath.Join(w.cfg.work, "big"), w.cfg.sz.scaleNodes, w.cfg.seed, 0)
	if err != nil {
		return in, err
	}
	in.big = []program{{big.image, big.profiles}}
	in.small, err = smallInputs(w.cfg, w.cfg.sz.scaleNodes, 0)
	return in, err
}

// check: each fingerprint's served merge equals an offline MergeAll of
// exactly the uploads the server accepted.
func (w *mixed) check(ctx context.Context, rec *recorder, _ *stagedRun) error {
	for i, it := range w.items {
		want, err := mergeBodies(ctx, w.accepted[i])
		if err != nil {
			return err
		}
		rec.check("gprofd-gmon-equals-offline-merge/"+it.name, compareGmon(ctx, w.srv, it.fp, want))
	}
	return nil
}

func (w *mixed) close() { w.srv.stop(); w.srv = nil }

// Package loadgen replays the workload corpus against a gprofd server
// from many concurrent simulated agents: the fleet side of the
// fleet-scale profiling service. cmd/gprofload is the CLI; the serve
// package's soak test drives the same code in-process.
//
// A corpus is built once: every workload program is compiled and run
// under the profiler (with whole-stack collection on) a few times with
// different seeds, and each resulting profile is pre-encoded in all six
// transport forms (format v1/v2/v3 × identity/gzip — only v3 bodies
// carry the stack table). Agents then upload the pre-encoded bodies —
// the load generator spends its cycles on HTTP, not on re-encoding —
// cycling deterministically through variants and transports so a run
// is reproducible. Backpressure (429) is honored with a short backoff
// and the upload retried. Options.Readers adds concurrent query agents
// hitting /v1/flat and /v1/profile while ingest runs — mixed traffic
// that exercises the server's incremental query path (analysis
// memoization, single-flight) under live invalidation.
//
// Verify fetches each fingerprint's merged profile back
// (/v1/gmon?sync=1) and byte-compares it against an offline
// gmon.MergeAll over the exact multiset of profiles uploaded — the
// end-to-end correctness check behind `make gprofd-smoke`.
package loadgen

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gmon"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/pprofenc"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// VariantsPerWorkload is how many differently-seeded profiles each
// workload contributes to the corpus.
const VariantsPerWorkload = 3

// encoding selects one pre-encoded transport form of a variant.
type encoding int

const (
	encV1 encoding = iota
	encV2
	encV1Gzip
	encV2Gzip
	encV3
	encV3Gzip
	numEncodings
)

// carriesStacks reports whether the encoding's bodies keep the stack
// table: pre-v3 formats drop it on the wire, so Verify must account
// v1/v2 and v3 uploads separately.
func (e encoding) carriesStacks() bool { return e == encV3 || e == encV3Gzip }

// variant is one profiled run of a workload, pre-encoded. profile is
// the full collected profile (with stacks); stripped is what a v1/v2
// body decodes back to on the server — the same profile minus the
// stack table.
type variant struct {
	profile  *gmon.Profile
	stripped *gmon.Profile
	bodies   [numEncodings][]byte
}

// Item is one workload's corpus entry: the linked image and its
// profiled runs.
type Item struct {
	Workload    string
	Fingerprint string // set by RegisterAll
	imageBytes  []byte
	variants    []variant
}

// Corpus is the full replay set.
type Corpus struct {
	Items []Item
}

// BuildCorpus compiles and profiles the named workloads (nil means
// every workload). Each workload runs VariantsPerWorkload times with
// distinct seeds so uploads are not all identical.
func BuildCorpus(names []string) (*Corpus, error) {
	if len(names) == 0 {
		names = workloads.Names()
	}
	c := &Corpus{}
	for _, name := range names {
		im, err := workloads.Build(name, true)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", name, err)
		}
		var imBuf bytes.Buffer
		if err := object.WriteImage(&imBuf, im); err != nil {
			return nil, fmt.Errorf("encoding %s image: %w", name, err)
		}
		item := Item{Workload: name, imageBytes: imBuf.Bytes()}
		for seed := uint64(1); seed <= VariantsPerWorkload; seed++ {
			p, _, _, err := workloads.Run(im, workloads.RunConfig{Seed: seed, Stacks: true})
			if err != nil {
				return nil, fmt.Errorf("profiling %s (seed %d): %w", name, seed, err)
			}
			stripped := p.Clone()
			stripped.Stacks = nil
			v := variant{profile: p, stripped: stripped}
			for enc := encoding(0); enc < numEncodings; enc++ {
				version, zip := encV(enc)
				if v.bodies[enc], err = encode(p, version, zip); err != nil {
					return nil, err
				}
			}
			item.variants = append(item.variants, v)
		}
		c.Items = append(c.Items, item)
	}
	return c, nil
}

// encV maps an encoding to its format version and transport.
func encV(e encoding) (version int, zip bool) {
	switch e {
	case encV1, encV1Gzip:
		version = gmon.Version1
	case encV2, encV2Gzip:
		version = gmon.Version2
	default:
		version = gmon.Version3
	}
	return version, e == encV1Gzip || e == encV2Gzip || e == encV3Gzip
}

func encode(p *gmon.Profile, version int, zip bool) ([]byte, error) {
	var buf bytes.Buffer
	var w io.Writer = &buf
	var zw *gzip.Writer
	if zip {
		zw = gzip.NewWriter(&buf)
		w = zw
	}
	if err := gmon.WriteVersion(w, p, version); err != nil {
		return nil, err
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// decodeJSON decodes a JSON body, tolerating trailing garbage.
func decodeJSON(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// Client talks to one gprofd server.
type Client struct {
	Base string // e.g. "http://127.0.0.1:7421"
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// WaitReady polls /v1/stats until the server answers or the deadline
// passes — how gprofload waits out a just-started gprofd.
func (c *Client) WaitReady(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, err := c.Stats(ctx); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: server %s not ready after %v: %w", c.Base, timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Stats fetches and decodes /v1/stats.
func (c *Client) Stats(ctx context.Context) (*serve.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: /v1/stats: %s", resp.Status)
	}
	var st serve.Stats
	if err := decodeJSON(resp.Body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// RegisterAll uploads every corpus executable to /v1/exe and records
// the fingerprints the server assigned.
func (c *Client) RegisterAll(ctx context.Context, corpus *Corpus) error {
	for i := range corpus.Items {
		item := &corpus.Items[i]
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/exe", bytes.NewReader(item.imageBytes))
		if err != nil {
			return err
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return fmt.Errorf("loadgen: registering %s: %w", item.Workload, err)
		}
		var body struct {
			Fingerprint string `json:"fingerprint"`
			Error       string `json:"error"`
		}
		err = decodeJSON(resp.Body, &body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("loadgen: registering %s: %w", item.Workload, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("loadgen: registering %s: %s (%s)", item.Workload, resp.Status, body.Error)
		}
		item.Fingerprint = body.Fingerprint
	}
	return nil
}

// Options shapes a replay.
type Options struct {
	// Agents is the number of concurrent uploaders.
	Agents int
	// UploadsPerAgent bounds each agent's uploads; with Duration set
	// it is ignored.
	UploadsPerAgent int
	// Duration, when positive, replaces the per-agent count: agents
	// upload until it elapses.
	Duration time.Duration
	// Backoff is the sleep before retrying a 429 (default 10ms).
	Backoff time.Duration
	// Readers adds that many concurrent query agents alongside the
	// uploaders: mixed read/write traffic against the incremental query
	// path. Each reader cycles deterministically through (fingerprint,
	// endpoint) over /v1/flat, /v1/profile, /v1/folded, and /v1/pprof,
	// requiring 200s with schema-valid bodies (404 is tolerated before a
	// fingerprint has merged data — or merged stack data, for the stack
	// endpoints). Readers run until the upload phase finishes; then,
	// outside Elapsed and Reads, each fingerprint is quiesced with
	// ?sync=1 and its flat profile read once more, a read the analysis
	// memo answers (a failure counts in ReadErrors).
	Readers int
	// Metrics, when set, adds an observability prober alongside the
	// agents: every ~100ms it scrapes /metrics (the body must parse as
	// the Prometheus text format and pass structural validation) and
	// probes /healthz and /readyz (both must answer 200 while the replay
	// runs). It models the monitoring stack that scrapes a production
	// gprofd concurrently with ingest traffic.
	Metrics bool
}

// Result is one replay's outcome.
type Result struct {
	Uploads    int64         // accepted uploads (202)
	Retries429 int64         // backpressure rejections retried
	Errors     int64         // other non-2xx responses or transport errors
	Elapsed    time.Duration // wall time of the upload phase
	// PerSecond is Uploads / Elapsed — the achieved ingest rate.
	PerSecond float64
	// Reads counts reader agents' schema-valid 200 responses;
	// ReadErrors counts their transport failures, unexpected statuses,
	// and invalid bodies (zero on a healthy server).
	Reads      int64
	ReadErrors int64
	// ReadsPerSecond is Reads / Elapsed — the query rate sustained
	// while ingest ran.
	ReadsPerSecond float64
	// MetricsScrapes counts the observability prober's fully valid
	// passes (parsed + validated /metrics, 200 from both health
	// endpoints); MetricsErrors counts failed ones. Zero errors on a
	// healthy server.
	MetricsScrapes int64
	MetricsErrors  int64
	// counts[fingerprint][variant*2+stackBit] = accepted uploads, for
	// Verify; stackBit 1 counts the v3-encoded uploads whose bodies
	// carried the stack table, 0 the v1/v2 ones that dropped it.
	counts map[string][]int64
}

// Run replays the corpus from Options.Agents concurrent agents. Each
// agent cycles deterministically through (workload, variant,
// transport) so runs are reproducible; 429s back off briefly and
// retry the same upload.
func (c *Client) Run(ctx context.Context, corpus *Corpus, opts Options) (*Result, error) {
	if opts.Agents <= 0 {
		opts.Agents = 1
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 10 * time.Millisecond
	}
	if opts.Duration <= 0 && opts.UploadsPerAgent <= 0 {
		opts.UploadsPerAgent = 1
	}
	for i := range corpus.Items {
		if corpus.Items[i].Fingerprint == "" {
			return nil, fmt.Errorf("loadgen: corpus item %s not registered", corpus.Items[i].Workload)
		}
	}
	res := &Result{counts: make(map[string][]int64)}
	counts := make([][]atomic.Int64, len(corpus.Items))
	for i := range counts {
		counts[i] = make([]atomic.Int64, len(corpus.Items[i].variants)*2)
	}
	var uploads, retries, errs atomic.Int64
	deadline := time.Time{}
	if opts.Duration > 0 {
		deadline = time.Now().Add(opts.Duration)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for a := 0; a < opts.Agents; a++ {
		wg.Add(1)
		go func(agent int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if ctx.Err() != nil {
					return
				}
				if deadline.IsZero() {
					if i >= opts.UploadsPerAgent {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				// Deterministic walk: spread agents across items and
				// cycle variant and transport per upload.
				seq := agent + i*opts.Agents
				itemIdx := seq % len(corpus.Items)
				item := &corpus.Items[itemIdx]
				variantIdx := (seq / len(corpus.Items)) % len(item.variants)
				enc := encoding(seq % int(numEncodings))
				body := item.variants[variantIdx].bodies[enc]
				for {
					status, err := c.upload(ctx, item.Fingerprint, body)
					if err != nil {
						if ctx.Err() != nil {
							return
						}
						errs.Add(1)
						break
					}
					if status == http.StatusAccepted {
						uploads.Add(1)
						bit := 0
						if enc.carriesStacks() {
							bit = 1
						}
						counts[itemIdx][variantIdx*2+bit].Add(1)
						break
					}
					if status == http.StatusTooManyRequests {
						retries.Add(1)
						select {
						case <-ctx.Done():
							return
						case <-time.After(opts.Backoff):
						}
						continue
					}
					errs.Add(1)
					break
				}
			}
		}(a)
	}
	var reads, readErrs atomic.Int64
	stopReaders := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < opts.Readers; r++ {
		rg.Add(1)
		go func(reader int) {
			defer rg.Done()
			for i := 0; ; i++ {
				if ctx.Err() != nil {
					return
				}
				if i > 0 { // every reader makes at least one pass
					select {
					case <-stopReaders:
						return
					default:
					}
				}
				// The same deterministic walk the uploaders use, over
				// (fingerprint, endpoint) instead of upload bodies.
				seq := reader + i*opts.Readers
				item := &corpus.Items[seq%len(corpus.Items)]
				ep := readEndpoints[(seq/len(corpus.Items))%len(readEndpoints)]
				status, body, err := c.get(ctx, ep.path+item.Fingerprint)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					readErrs.Add(1)
					continue
				}
				if status == http.StatusNotFound {
					continue // registered but nothing merged yet
				}
				if status != http.StatusOK {
					readErrs.Add(1)
					continue
				}
				if ep.validate(body) != nil {
					readErrs.Add(1)
					continue
				}
				reads.Add(1)
			}
		}(r)
	}
	var scrapes, scrapeErrs atomic.Int64
	stopScraper := make(chan struct{})
	scraperDone := make(chan struct{})
	if opts.Metrics {
		go func() {
			defer close(scraperDone)
			t := time.NewTicker(100 * time.Millisecond)
			defer t.Stop()
			for first := true; ; first = false {
				if !first {
					select {
					case <-stopScraper:
						return
					case <-ctx.Done():
						return
					case <-t.C:
					}
				}
				if err := c.probeObservability(ctx); err != nil {
					if ctx.Err() != nil {
						return
					}
					scrapeErrs.Add(1)
					continue
				}
				scrapes.Add(1)
			}
		}()
	} else {
		close(scraperDone)
	}
	wg.Wait()
	close(stopReaders)
	rg.Wait()
	close(stopScraper)
	<-scraperDone
	res.Elapsed = time.Since(start)
	res.Uploads = uploads.Load()
	res.Retries429 = retries.Load()
	res.Errors = errs.Load()
	res.Reads = reads.Load()
	res.ReadErrors = readErrs.Load()
	res.MetricsScrapes = scrapes.Load()
	res.MetricsErrors = scrapeErrs.Load()
	if res.Elapsed > 0 {
		res.PerSecond = float64(res.Uploads) / res.Elapsed.Seconds()
		res.ReadsPerSecond = float64(res.Reads) / res.Elapsed.Seconds()
	}
	if opts.Readers > 0 {
		res.ReadErrors += c.settle(ctx, corpus)
	}
	for i := range corpus.Items {
		row := make([]int64, len(counts[i]))
		for j := range counts[i] {
			row[j] = counts[i][j].Load()
		}
		res.counts[corpus.Items[i].Fingerprint] = row
	}
	return res, nil
}

// settle runs after the readers stop, outside the timed run: every
// read may have raced a fold, so it quiesces each fingerprint with
// ?sync=1 and then reads its flat profile once more, a read a working
// analysis memo answers with nothing folding in between. It returns
// the reads that failed; cancellation ends it quietly, as it ends the
// readers.
func (c *Client) settle(ctx context.Context, corpus *Corpus) (errs int64) {
	for i := range corpus.Items {
		fp := corpus.Items[i].Fingerprint
		for _, path := range []string{"/v1/flat?sync=1&fp=", readEndpoints[0].path} {
			status, body, err := c.get(ctx, path+fp)
			switch {
			case ctx.Err() != nil:
				return errs
			case err != nil || status != http.StatusOK && status != http.StatusNotFound:
				errs++
			case status == http.StatusOK && readEndpoints[0].validate(body) != nil:
				errs++
			}
		}
	}
	return errs
}

// upload POSTs one pre-encoded profile body.
func (c *Client) upload(ctx context.Context, fp string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set(serve.FingerprintHeader, fp)
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// readEndpoints are the query endpoints reader agents cycle through,
// each with the schema check its 200 bodies must pass.
var readEndpoints = []struct {
	path     string
	validate func([]byte) error
}{
	{"/v1/flat?fp=", func(body []byte) error {
		if !bytes.Contains(body, []byte("flat profile")) {
			return fmt.Errorf("flat body lacks the report header")
		}
		return nil
	}},
	{"/v1/profile?fp=", func(body []byte) error {
		var p struct {
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(body, &p); err != nil {
			return err
		}
		if p.Schema != model.Schema && p.Schema != model.SchemaV2 {
			return fmt.Errorf("profile schema %q, want %q or %q", p.Schema, model.Schema, model.SchemaV2)
		}
		return nil
	}},
	{"/v1/folded?fp=", func(body []byte) error {
		if len(bytes.TrimSpace(body)) == 0 {
			return fmt.Errorf("folded body is empty")
		}
		return nil
	}},
	{"/v1/pprof?fp=", func(body []byte) error {
		d, err := pprofenc.Decode(bytes.NewReader(body))
		if err != nil {
			return err
		}
		if len(d.Samples) == 0 {
			return fmt.Errorf("pprof body has no samples")
		}
		return nil
	}},
}

// probeObservability is one monitoring pass: scrape and validate
// /metrics, then require 200 from /healthz and /readyz.
func (c *Client) probeObservability(ctx context.Context) error {
	status, body, err := c.get(ctx, "/metrics")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("loadgen: /metrics: status %d", status)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("loadgen: /metrics body: %w", err)
	}
	if err := exp.Validate(); err != nil {
		return fmt.Errorf("loadgen: /metrics structure: %w", err)
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		status, _, err := c.get(ctx, path)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("loadgen: %s: status %d", path, status)
		}
	}
	return nil
}

// Exposition fetches and validates one /metrics scrape — gprofload's
// final-state dump and the soak test's populated-histogram assertions
// read it.
func (c *Client) Exposition(ctx context.Context) (*obs.Exposition, error) {
	status, body, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("loadgen: /metrics: status %d", status)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if err := exp.Validate(); err != nil {
		return nil, err
	}
	return exp, nil
}

// get fetches one query endpoint, returning status and body.
func (c *Client) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// Verify fetches each fingerprint's merged profile (quiesced with
// ?sync=1) and byte-compares it against an offline gmon.MergeAll over
// the same multiset of uploads res accounted — v1/v2 uploads enter the
// offline merge without their stack tables, exactly as the server
// decoded them. Both the v1 and the v3 served encodings are compared,
// so the stack-table fold path is checked end to end. A mismatch is a
// server merge bug.
func (c *Client) Verify(ctx context.Context, corpus *Corpus, res *Result) error {
	for i := range corpus.Items {
		item := &corpus.Items[i]
		counts := res.counts[item.Fingerprint]
		var inputs []*gmon.Profile
		for v, n := range counts {
			p := item.variants[v/2].stripped
			if v%2 == 1 {
				p = item.variants[v/2].profile
			}
			for k := int64(0); k < n; k++ {
				inputs = append(inputs, p)
			}
		}
		if len(inputs) == 0 {
			continue
		}
		want, err := gmon.MergeAll(ctx, inputs, 1)
		if err != nil {
			return fmt.Errorf("loadgen: offline merge for %s: %w", item.Workload, err)
		}
		for _, version := range []int{gmon.Version1, gmon.Version3} {
			var wantBuf bytes.Buffer
			if err := gmon.WriteVersion(&wantBuf, want, version); err != nil {
				return err
			}
			got, err := c.fetchGmon(ctx, item.Fingerprint, version)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, wantBuf.Bytes()) {
				return fmt.Errorf("loadgen: %s: merged v%d profile from server (%d bytes) differs from offline MergeAll of %d uploads (%d bytes)",
					item.Workload, version, len(got), len(inputs), wantBuf.Len())
			}
		}
	}
	return nil
}

// fetchGmon downloads the merged raw profile for one fingerprint in
// the given format version.
func (c *Client) fetchGmon(ctx context.Context, fp string, version int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/gmon?sync=1&fp=%s&v=%d", c.Base, fp, version), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: /v1/gmon %s: %s", fp, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

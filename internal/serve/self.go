package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/pprofenc"
	"repro/internal/report"
)

// Self-profiling on demand: gprofd profiles itself with the same
// machinery it serves to everyone else. Each GET /v1/self captures the
// process's own Go runtime CPU profile for selfWindow, decodes it with
// the in-repo pprof reader (internal/pprofenc — no go tool pprof),
// converts the name-resolved stacks into the gprof.profile.v2 stacks
// model, and renders the one view asked for: a flat table, folded
// stacks, a re-encoded pprof protobuf, or the model JSON. The operator
// question "where does gprofd itself spend its time?" is answered by
// gprofd, when it is asked.

// selfWindow is the duration of one /v1/self capture.
const selfWindow = time.Second

// selfProfiler serializes captures — the Go runtime allows one active
// CPU profile per process.
type selfProfiler struct {
	mu sync.Mutex

	// captureFn runs one CPU capture of duration d and returns the raw
	// pprof bytes. Injectable so tests feed deterministic profiles
	// without racing the runtime profiler.
	captureFn func(d time.Duration) ([]byte, error)
}

// captureCPUProfile is the production captureFn: one runtime/pprof CPU
// capture of duration d.
func captureCPUProfile(d time.Duration) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		// Another capture is active (the operator's -pprof listener,
		// most likely). Report rather than fight over the profiler.
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	time.Sleep(d)
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

var errSelfEmpty = errors.New("self profile capture held no samples (idle process); retry under load")

// captureSelf runs one capture → decode → model cycle. A capture with
// no samples is errSelfEmpty: an idle process has nothing to show.
func (s *Server) captureSelf() (*model.Profile, error) {
	s.self.mu.Lock()
	defer s.self.mu.Unlock()
	m := s.metrics
	m.selfCaptures.Add(1)
	sp := s.rec.Start("selfprofile capture")
	raw, err := s.self.captureFn(selfWindow)
	sp.End()
	var d *pprofenc.Decoded
	if err == nil {
		d, err = pprofenc.Decode(bytes.NewReader(raw))
	}
	if err != nil {
		m.selfErrors.Add(1)
		return nil, err
	}
	prof, samples := selfModel(d)
	if samples == 0 {
		m.selfEmpty.Add(1)
		return nil, errSelfEmpty
	}
	if err := prof.Validate(); err != nil {
		m.selfErrors.Add(1)
		return nil, fmt.Errorf("self profile failed validation: %w", err)
	}
	return prof, nil
}

// selfModel converts a decoded runtime CPU profile into the stacks-only
// gprof.profile.v2 model: the samples/count value per stack feeds
// StacksFromFrames, and the sampling rate comes from the period (the
// runtime reports nanoseconds per sample).
func selfModel(d *pprofenc.Decoded) (*model.Profile, int64) {
	valIdx := 0
	for i, st := range d.SampleType {
		if st[0] == "samples" && st[1] == "count" {
			valIdx = i
			break
		}
	}
	hz := int64(100)
	if d.PeriodType[1] == "nanoseconds" && d.Period > 0 {
		hz = int64(time.Second) / d.Period
		if hz <= 0 {
			hz = 1
		}
	}
	frames := make([]model.FrameSample, 0, len(d.Samples))
	var total int64
	for _, s := range d.Samples {
		if valIdx >= len(s.Values) {
			continue
		}
		v := s.Values[valIdx]
		if v <= 0 {
			continue
		}
		total += v
		frames = append(frames, model.FrameSample{Frames: s.Stack, Count: v})
	}
	view := model.StacksFromFrames(frames)
	return &model.Profile{
		Schema:       model.SchemaV2,
		Hz:           hz,
		TotalTicks:   float64(view.Samples),
		TotalSeconds: float64(view.Samples) / float64(hz),
		Stacks:       view,
	}, total
}

// writeSelfFlat renders the per-routine rollup as a flat table: the
// measured self/inclusive split BuildStacks guarantees, ordered by
// decreasing inclusive time.
func writeSelfFlat(w io.Writer, p *model.Profile, capturedAt time.Time) error {
	v := p.Stacks
	fmt.Fprintf(w, "gprofd self profile: %d samples over %s (captured %s)\n",
		v.Samples, selfWindow, capturedAt.UTC().Format(time.RFC3339))
	fmt.Fprintf(w, "%7s %7s %8s %8s  %s\n", "incl%", "self%", "incl", "self", "routine")
	total := float64(v.Samples)
	for _, r := range v.Routines {
		fmt.Fprintf(w, "%6.1f%% %6.1f%% %8d %8d  %s\n",
			100*float64(r.InclusiveTicks)/total, 100*float64(r.SelfTicks)/total,
			r.InclusiveTicks, r.SelfTicks, r.Name)
	}
	return nil
}

// handleSelf captures gprofd's own CPU profile and serves the one view
// asked for; 503 when the capture yields no samples or the profiler is
// busy.
func (s *Server) handleSelf(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET /v1/self")
		return
	}
	var render func(io.Writer, *model.Profile) error
	contentType := textPlain
	switch view := r.URL.Query().Get("view"); view {
	case "", "flat":
		render = func(w io.Writer, p *model.Profile) error { return writeSelfFlat(w, p, s.cfg.Now()) }
	case "folded":
		render = report.Folded
	case "pprof":
		render, contentType = pprofenc.Encode, "application/octet-stream"
	case "json":
		render, contentType = model.Encode, "application/json"
	default:
		s.fail(w, http.StatusBadRequest, "unknown view %q (want flat, folded, pprof, or json)", view)
		return
	}
	prof, err := s.captureSelf()
	if err != nil {
		s.fail(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	var buf bytes.Buffer
	if err := render(&buf, prof); err != nil {
		s.fail(w, http.StatusInternalServerError, "rendering self profile: %v", err)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(buf.Bytes())
}

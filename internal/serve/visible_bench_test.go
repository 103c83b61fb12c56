package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/gmon"
	"repro/internal/object"
	"repro/internal/synth"
)

// BenchmarkVisibleCycle is gprofd's visible cycle in process at 10^5
// routines: each iteration uploads another run of one program (the
// same arc records, other counts) and queries its flat profile with
// sync=1, which analyzes the grown window afresh. Run it with
// -cpuprofile to see what each cycle spends per stage:
//
//	go test -run xxx -bench VisibleCycle -benchtime 40x -cpuprofile cpu.out ./internal/serve
func BenchmarkVisibleCycle(b *testing.B) {
	w := synth.Generate(synth.Tier(100000, 1))
	var img bytes.Buffer
	if err := object.WriteImage(&img, w.Image()); err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, 4)
	for v := range bodies {
		p := w.Prof.Clone()
		for i := range p.Arcs {
			p.Arcs[i].Count += int64((i + v) % 8)
		}
		for i := range p.Hist.Counts {
			p.Hist.Counts[i] += uint32((i*3 + v) % 4)
		}
		var buf bytes.Buffer
		if err := gmon.WriteVersion(&buf, p, gmon.Version2); err != nil {
			b.Fatal(err)
		}
		bodies[v] = buf.Bytes()
	}
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	do := func(method, path string, body []byte, fp string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if fp != "" {
			req.Header.Set(FingerprintHeader, fp)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	rec := do(http.MethodPost, "/v1/exe", img.Bytes(), "")
	var exe struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &exe); rec.Code != http.StatusOK || err != nil {
		b.Fatalf("register: status %d: %v", rec.Code, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := do(http.MethodPost, "/v1/ingest", bodies[i%len(bodies)], exe.Fingerprint); rec.Code != http.StatusAccepted {
			b.Fatalf("upload: status %d: %s", rec.Code, rec.Body)
		}
		if rec := do(http.MethodGet, "/v1/flat?sync=1&fp="+exe.Fingerprint, nil, ""); rec.Code != http.StatusOK {
			b.Fatalf("query: status %d: %s", rec.Code, rec.Body)
		}
	}
}

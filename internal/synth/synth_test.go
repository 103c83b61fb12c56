package synth

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gmon"
	"repro/internal/model"
)

// encode serializes a workload's profile in the given format version.
func encode(t *testing.T, w *Workload, version int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gmon.WriteVersion(&buf, w.Prof, version); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterministicPerSeed pins the generator contract: same seed,
// same bytes — across the profile encoding and the symbol table — and
// a different seed changes them.
func TestDeterministicPerSeed(t *testing.T) {
	a := Generate(Tier(5000, 7))
	b := Generate(Tier(5000, 7))
	if !bytes.Equal(encode(t, a, gmon.Version1), encode(t, b, gmon.Version1)) {
		t.Fatal("same seed produced different profile bytes")
	}
	if len(a.Syms) != len(b.Syms) {
		t.Fatalf("same seed produced different symbol counts: %d vs %d", len(a.Syms), len(b.Syms))
	}
	for i := range a.Syms {
		if a.Syms[i].Name != b.Syms[i].Name || a.Syms[i].Addr != b.Syms[i].Addr {
			t.Fatalf("same seed, symbol %d differs: %+v vs %+v", i, a.Syms[i], b.Syms[i])
		}
	}
	c := Generate(Tier(5000, 8))
	if bytes.Equal(encode(t, a, gmon.Version1), encode(t, c, gmon.Version1)) {
		t.Fatal("different seeds produced identical profile bytes")
	}
}

// TestRoundTrip checks that a generated profile survives both on-disk
// formats: decode(encode(p)) re-encodes to the same bytes, and the
// headline quantities match the original.
func TestRoundTrip(t *testing.T) {
	w := Generate(Tier(3000, 3))
	for _, version := range []int{gmon.Version1, gmon.Version2} {
		enc := encode(t, w, version)
		p, err := gmon.Open(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("v%d: decode: %v", version, err)
		}
		if got, want := p.Hist.TotalTicks(), w.Prof.Hist.TotalTicks(); got != want {
			t.Fatalf("v%d: ticks %d after round trip, want %d", version, got, want)
		}
		if got, want := len(p.Arcs), len(w.Prof.Arcs); got != want {
			t.Fatalf("v%d: %d arcs after round trip, want %d", version, got, want)
		}
		var buf bytes.Buffer
		if err := gmon.WriteVersion(&buf, p, version); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, buf.Bytes()) {
			t.Fatalf("v%d: re-encode differs from original encode", version)
		}
	}
}

// TestJobsInvariance is the pipeline's exactness contract at scale: the
// fully analyzed model must encode to byte-identical JSON whatever the
// worker width, cycles and recursion included. The coarse leg rebuckets
// the histogram at three words per bucket, so buckets straddle routine
// boundaries and their ticks split fractionally: any width-dependent
// summation order in attribution shows up as a rounding difference.
func TestJobsInvariance(t *testing.T) {
	// Worker pools clamp to GOMAXPROCS; raise it so a width-dependent
	// path would really run even on a 1-CPU host.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	}
	w := Generate(Tier(20000, 5))
	coarse := *w.Prof
	coarse.Hist = gmon.Histogram{Low: w.Prof.Hist.Low, High: w.Prof.Hist.High, Step: 3}
	coarse.Hist.Counts = make([]uint32, coarse.Hist.NumBuckets())
	r := rng(5)
	for i := range coarse.Hist.Counts {
		coarse.Hist.Counts[i] = uint32(r.intn(50))
	}
	src := core.TableSource{Table: w.Table()}
	for _, leg := range []struct {
		name string
		prof *gmon.Profile
	}{{"step1", w.Prof}, {"step3", &coarse}} {
		var want []byte
		for _, jobs := range []int{1, 4, 8, 13} {
			res, err := core.Run(context.Background(), src, leg.prof, core.Options{Jobs: jobs})
			if err != nil {
				t.Fatalf("%s jobs=%d: %v", leg.name, jobs, err)
			}
			var buf bytes.Buffer
			if err := model.Encode(&buf, res.Model); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
				continue
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Errorf("%s: jobs=%d model JSON differs from jobs=1", leg.name, jobs)
			}
		}
	}
}

// TestDesignedShape verifies the generator delivers the graph features
// it promises: the designed cycle groups survive as SCC cycles, the
// graph is connected enough to analyze, and recursion exists.
func TestDesignedShape(t *testing.T) {
	cfg := Tier(10000, 1)
	w := Generate(cfg)
	res, err := core.Run(context.Background(), core.TableSource{Table: w.Table()},
		w.Prof, core.Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Model.Cycles), w.Cfg.CycleCount; got != want {
		t.Fatalf("SCC found %d cycles, generator designed %d", got, want)
	}
	for i, c := range res.Model.Cycles {
		if len(c.Members) != w.Cfg.CycleSize {
			t.Fatalf("cycle %d has %d members, want %d", i+1, len(c.Members), w.Cfg.CycleSize)
		}
	}
	if len(res.Model.Routines) != cfg.Nodes {
		t.Fatalf("profile has %d routines, want %d", len(res.Model.Routines), cfg.Nodes)
	}
}

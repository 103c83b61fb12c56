package gmon

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Profile {
	return &Profile{
		Hist: Histogram{
			Low: 0x1000, High: 0x1010, Step: 1,
			Counts: []uint32{0, 5, 0, 9, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 7, 3},
		},
		Arcs: []Arc{
			{FromPC: 0x1002, SelfPC: 0x1008, Count: 4},
			{FromPC: 0x1003, SelfPC: 0x1008, Count: 6},
			{FromPC: SpontaneousPC, SelfPC: 0x100e, Count: 1},
		},
		Hz: 60,
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := Histogram{Low: 100, High: 110, Step: 3}
	if got := h.NumBuckets(); got != 4 {
		t.Errorf("NumBuckets = %d, want 4", got)
	}
	for _, tc := range []struct {
		pc   int64
		want int
	}{{99, -1}, {100, 0}, {102, 0}, {103, 1}, {109, 3}, {110, -1}} {
		if got := h.BucketFor(tc.pc); got != tc.want {
			t.Errorf("BucketFor(%d) = %d, want %d", tc.pc, got, tc.want)
		}
	}
	lo, hi := h.BucketRange(3)
	if lo != 109 || hi != 110 {
		t.Errorf("BucketRange(3) = [%d,%d), want [109,110) (clamped)", lo, hi)
	}
}

func TestValidate(t *testing.T) {
	p := sample()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	bad := []func(*Profile){
		func(p *Profile) { p.Hist.Step = 0 },
		func(p *Profile) { p.Hist.High = p.Hist.Low - 1 },
		func(p *Profile) { p.Hist.Counts = p.Hist.Counts[:3] },
		func(p *Profile) { p.Arcs[0].Count = -1 },
		func(p *Profile) { p.Arcs[0].SelfPC = -5 },
		func(p *Profile) { p.Arcs[0].FromPC = -7 },
	}
	for i, f := range bad {
		q := sample()
		f(q)
		if err := q.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	p := sample()
	var buf bytes.Buffer
	if err := WriteVersion(&buf, p, Version1); err != nil {
		t.Fatalf("Write: %v", err)
	}
	q, err := Open(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", q, p)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(counts []uint32, arcsRaw []int64, hz uint16) bool {
		p := &Profile{
			Hist: Histogram{Low: 0x1000, High: 0x1000 + int64(len(counts)), Step: 1, Counts: counts},
			Hz:   int64(hz%1000) + 1,
		}
		if counts == nil {
			p.Hist.Counts = []uint32{}
		}
		p.Arcs = []Arc{}
		for i := 0; i+2 < len(arcsRaw); i += 3 {
			p.Arcs = append(p.Arcs, Arc{
				FromPC: abs64(arcsRaw[i]),
				SelfPC: abs64(arcsRaw[i+1]),
				Count:  abs64(arcsRaw[i+2]),
			})
		}
		var buf bytes.Buffer
		if err := WriteVersion(&buf, p, Version1); err != nil {
			return false
		}
		q, err := Open(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		v = -v
	}
	if v < 0 { // MinInt64
		v = 0
	}
	return v
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name    string
		data    []byte
		wantSub string
	}{
		{"empty", nil, "magic"},
		{"bad magic", []byte("NOPE1234"), "bad magic"},
		{"truncated", []byte("GMON\x01"), "version"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(bytes.NewReader(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestReadBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteVersion(&buf, sample(), Version1); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // version byte
	_, err := Open(bytes.NewReader(b))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("err = %v, want version error", err)
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	p := sample()
	p.Hist.Step = 0
	if err := WriteVersion(&bytes.Buffer{}, p, Version1); err == nil {
		t.Error("Write accepted invalid profile")
	}
}

func TestMerge(t *testing.T) {
	a := sample()
	b := sample()
	b.Arcs = append(b.Arcs, Arc{FromPC: 0x1001, SelfPC: 0x100e, Count: 11})
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if a.Hist.Counts[1] != 10 || a.Hist.Counts[3] != 18 {
		t.Errorf("histogram not summed: %v", a.Hist.Counts)
	}
	// 3 original arcs doubled plus 1 new.
	if len(a.Arcs) != 4 {
		t.Fatalf("arcs = %d, want 4", len(a.Arcs))
	}
	var found bool
	for _, arc := range a.Arcs {
		if arc.FromPC == 0x1002 && arc.SelfPC == 0x1008 {
			if arc.Count != 8 {
				t.Errorf("merged count = %d, want 8", arc.Count)
			}
			found = true
		}
	}
	if !found {
		t.Error("arc 0x1002->0x1008 missing after merge")
	}
}

func TestMergeMismatch(t *testing.T) {
	a := sample()
	b := sample()
	b.Hist.Step = 2
	b.Hist.Counts = b.Hist.Counts[:8]
	if err := a.Merge(b); err == nil || !strings.Contains(err.Error(), "geometry") {
		t.Errorf("err = %v, want geometry mismatch", err)
	}
	c := sample()
	c.Hz = 100
	if err := sample().Merge(c); err == nil || !strings.Contains(err.Error(), "clock rate") {
		t.Error("merge with different Hz accepted")
	}
}

// TestMergeLinearity: merging k copies of p equals scaling p's counts by
// k (property over random profiles) — the paper's multi-run accumulation.
func TestMergeLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(20) + 1
		p := &Profile{Hist: Histogram{Low: 0, High: int64(n), Step: 1, Counts: make([]uint32, n)}}
		for i := range p.Hist.Counts {
			p.Hist.Counts[i] = uint32(rng.Intn(100))
		}
		for i := 0; i < rng.Intn(10); i++ {
			p.Arcs = append(p.Arcs, Arc{
				FromPC: int64(rng.Intn(n)), SelfPC: int64(rng.Intn(n)), Count: int64(rng.Intn(50)),
			})
		}
		p.SortArcs()
		// Deduplicate identical (from,self) pairs the way a collector would.
		dedup := p.Clone()
		dedup.Arcs = nil
		if err := dedup.Merge(p); err != nil {
			t.Fatal(err)
		}
		k := rng.Intn(4) + 2
		total := dedup.Clone()
		for i := 1; i < k; i++ {
			if err := total.Merge(dedup); err != nil {
				t.Fatal(err)
			}
		}
		for i := range total.Hist.Counts {
			if total.Hist.Counts[i] != uint32(k)*dedup.Hist.Counts[i] {
				t.Fatalf("bucket %d: %d != %d*%d", i, total.Hist.Counts[i], k, dedup.Hist.Counts[i])
			}
		}
		if len(total.Arcs) != len(dedup.Arcs) {
			t.Fatalf("arc set changed size: %d vs %d", len(total.Arcs), len(dedup.Arcs))
		}
		for i := range total.Arcs {
			if total.Arcs[i].Count != int64(k)*dedup.Arcs[i].Count {
				t.Fatalf("arc %d count %d != %d*%d", i, total.Arcs[i].Count, k, dedup.Arcs[i].Count)
			}
		}
	}
}

func TestFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p1 := sample()
	p2 := sample()
	f1 := filepath.Join(dir, "gmon.1")
	f2 := filepath.Join(dir, "gmon.2")
	if err := WriteFileVersion(f1, p1, Version1); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileVersion(f2, p2, Version1); err != nil {
		t.Fatal(err)
	}
	total, err := ReadFiles(context.Background(), []string{f1, f2}, 1)
	if err != nil {
		t.Fatalf("ReadFiles: %v", err)
	}
	if total.Hist.Counts[1] != 10 {
		t.Errorf("merged bucket = %d, want 10", total.Hist.Counts[1])
	}
	if _, err := ReadFiles(context.Background(), nil, 1); err == nil {
		t.Error("ReadFiles(nil) succeeded")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("ReadFile(missing) succeeded")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := sample()
	q := p.Clone()
	q.Hist.Counts[0] = 999
	q.Arcs[0].Count = 999
	if p.Hist.Counts[0] == 999 || p.Arcs[0].Count == 999 {
		t.Error("Clone shares storage with original")
	}
}

func TestTotalSeconds(t *testing.T) {
	p := sample()
	ticks := p.Hist.TotalTicks()
	if ticks != 27 {
		t.Fatalf("TotalTicks = %d, want 27", ticks)
	}
	if got := p.TotalSeconds(); got != 27.0/60.0 {
		t.Errorf("TotalSeconds = %v, want 0.45", got)
	}
	p.Hz = 0
	if got := p.ClockHz(); got != DefaultHz {
		t.Errorf("ClockHz zero-value = %d, want %d", got, DefaultHz)
	}
}

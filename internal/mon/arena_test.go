package mon

import (
	"bytes"
	"testing"

	"repro/internal/gmon"
	"repro/internal/isa"
)

// Tests for the arena-backed arc table: the one-entry last-arc cache,
// zero steady-state allocation, and the O(1) generation-based Reset.

func TestLastArcCache(t *testing.T) {
	im := testImage(t, 16)
	c := New(im, Config{})
	site, callee := im.TextBase+3, im.TextBase+10

	if extra := c.Mcount(callee, site); extra != isa.McountInsertCost {
		t.Errorf("first call extra = %d, want insert cost %d", extra, isa.McountInsertCost)
	}
	for i := 0; i < 5; i++ {
		if extra := c.Mcount(callee, site); extra != 0 {
			t.Errorf("repeat call extra = %d, want 0", extra)
		}
	}
	st := c.Stats()
	if st.CacheHits != 5 {
		t.Errorf("CacheHits = %d, want 5", st.CacheHits)
	}
	if st.Inserts != 1 || st.Probes != 0 {
		t.Errorf("stats = %+v, want 1 insert, 0 probes", st)
	}
	p := c.Snapshot()
	if len(p.Arcs) != 1 || p.Arcs[0].Count != 6 {
		t.Fatalf("arcs = %+v, want one arc with count 6", p.Arcs)
	}
}

func TestLastArcCacheAlternation(t *testing.T) {
	// Alternating between two arcs never repeats the previous pair, so
	// the cache must not fire — and must not confuse the counts.
	im := testImage(t, 16)
	c := New(im, Config{})
	site1, site2 := im.TextBase+3, im.TextBase+5
	callee := im.TextBase + 10
	for i := 0; i < 4; i++ {
		c.Mcount(callee, site1)
		c.Mcount(callee, site2)
	}
	st := c.Stats()
	if st.CacheHits != 0 {
		t.Errorf("CacheHits = %d, want 0 for alternating arcs", st.CacheHits)
	}
	p := c.Snapshot()
	if len(p.Arcs) != 2 {
		t.Fatalf("arcs = %+v, want 2", p.Arcs)
	}
	for _, a := range p.Arcs {
		if a.Count != 4 {
			t.Errorf("arc %+v count = %d, want 4", a, a.Count)
		}
	}
}

func TestMcountSteadyStateAllocs(t *testing.T) {
	im := testImage(t, 64)
	c := New(im, Config{})
	callee := im.TextBase + 32
	// Warm up: create the cells (and the arena's capacity).
	for s := int64(0); s < 16; s++ {
		c.Mcount(callee, im.TextBase+s)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for s := int64(0); s < 16; s++ {
			c.Mcount(callee, im.TextBase+s)
		}
		c.Mcount(callee, callee) // cache-hit path too
	})
	if allocs != 0 {
		t.Errorf("steady-state Mcount allocates %v per run, want 0", allocs)
	}
}

func TestResetClearsEverything(t *testing.T) {
	im := testImage(t, 32)
	c := New(im, Config{})
	callee := im.TextBase + 20
	record := func() {
		for s := int64(0); s < 8; s++ {
			c.Mcount(callee, im.TextBase+s)
			c.Mcount(callee, im.TextBase+s)
		}
		c.Mcount(callee, -1) // one spontaneous arc
		for i := int64(0); i < 10; i++ {
			c.Tick(im.TextBase + i%4)
		}
	}
	encode := func() []byte {
		var buf bytes.Buffer
		if err := gmon.WriteVersion(&buf, c.Snapshot(), gmon.Version1); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	record()
	first := encode()

	c.Reset()
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("stats after Reset = %+v, want zero", st)
	}
	p := c.Snapshot()
	if len(p.Arcs) != 0 {
		t.Errorf("arcs after Reset = %+v, want none", p.Arcs)
	}
	for b, n := range p.Hist.Counts {
		if n != 0 {
			t.Errorf("hist bucket %d = %d after Reset, want 0", b, n)
		}
	}

	// Recording again after Reset reproduces the first profile exactly —
	// stale table slots and histogram buckets from the old generation
	// must not leak in.
	record()
	if second := encode(); !bytes.Equal(first, second) {
		t.Errorf("profile after Reset+rerecord differs from first recording")
	}
}

func TestResetPreservesEnabled(t *testing.T) {
	im := testImage(t, 8)
	c := New(im, Config{})
	c.Disable()
	c.Reset()
	if c.Enabled() {
		t.Error("Reset turned recording on; it must preserve the enabled state")
	}
	c.Enable()
	c.Reset()
	if !c.Enabled() {
		t.Error("Reset turned recording off; it must preserve the enabled state")
	}
}

func TestManyResetGenerations(t *testing.T) {
	// Hammer Reset to make sure generation tags from different epochs
	// never alias (the wrap branch is unreachable in practice but the
	// steady increments must stay correct).
	im := testImage(t, 16)
	c := New(im, Config{})
	callee := im.TextBase + 10
	for epoch := 0; epoch < 100; epoch++ {
		site := im.TextBase + int64(epoch%8)
		c.Mcount(callee, site)
		p := c.Snapshot()
		if len(p.Arcs) != 1 || p.Arcs[0].Count != 1 {
			t.Fatalf("epoch %d: arcs = %+v, want one count-1 arc", epoch, p.Arcs)
		}
		st := c.Stats()
		if st.Inserts != 1 || st.CacheHits != 0 || st.Probes != 0 {
			t.Fatalf("epoch %d: stats = %+v", epoch, st)
		}
		c.Reset()
	}
}

// BenchmarkSnapshot measures the presized snapshot path: the allocation
// count must stay a small constant regardless of how many arcs and
// histogram samples the collector holds.
func BenchmarkSnapshot(b *testing.B) {
	im := testImage(b, 4096)
	c := New(im, Config{})
	callee := im.TextBase + 2048
	for s := int64(0); s < 512; s++ {
		c.Mcount(callee, im.TextBase+s)
		c.Tick(im.TextBase + s*7%4096)
	}
	c.Mcount(callee, -1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Snapshot()
	}
}

// BenchmarkMcountSteady measures the post-warm-up Mcount paths the VM
// drives on every profiled call: cache hit, first-cell hash hit, and a
// two-deep chain probe.
func BenchmarkMcountSteady(b *testing.B) {
	im := testImage(b, 1024)
	c := New(im, Config{})
	callee := im.TextBase + 512
	sites := make([]int64, 64)
	for s := range sites {
		sites[s] = im.TextBase + int64(s)
		c.Mcount(callee, sites[s])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Mcount(callee, sites[i&63])
	}
}

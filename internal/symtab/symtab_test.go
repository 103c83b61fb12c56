package symtab

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gmon"
	"repro/internal/object"
)

func table() *Table {
	return FromSyms([]object.Sym{
		{Name: "c", Addr: 300, Size: 50},
		{Name: "a", Addr: 100, Size: 10},
		{Name: "b", Addr: 110, Size: 90}, // adjacent to a; gap before c at 200..299
	})
}

func TestFind(t *testing.T) {
	tb := table()
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		pc   int64
		want string
		ok   bool
	}{
		{99, "", false}, {100, "a", true}, {109, "a", true},
		{110, "b", true}, {199, "b", true}, {200, "", false},
		{299, "", false}, {300, "c", true}, {349, "c", true}, {350, "", false},
	}
	for _, tc := range cases {
		got, ok := tb.Find(tc.pc)
		if ok != tc.ok || (ok && got.Name != tc.want) {
			t.Errorf("Find(%d) = %q,%v, want %q,%v", tc.pc, got.Name, ok, tc.want, tc.ok)
		}
	}
}

func TestLookupAndNames(t *testing.T) {
	tb := table()
	if s, ok := tb.Lookup("b"); !ok || s.Addr != 110 {
		t.Errorf("Lookup(b) = %+v,%v", s, ok)
	}
	if _, ok := tb.Lookup("zz"); ok {
		t.Error("Lookup(zz) found")
	}
	names := tb.Names()
	want := []string{"a", "b", "c"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Names = %v, want %v", names, want)
		}
	}
	if tb.Len() != 3 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestValidateOverlap(t *testing.T) {
	bad := FromSyms([]object.Sym{
		{Name: "x", Addr: 0, Size: 10},
		{Name: "y", Addr: 5, Size: 10},
	})
	if err := bad.Validate(); err == nil {
		t.Error("overlapping symbols accepted")
	}
	empty := FromSyms([]object.Sym{{Name: "z", Addr: 0, Size: 0}})
	if err := empty.Validate(); err == nil {
		t.Error("zero-size symbol accepted")
	}
}

func TestAttributeExactGranularity(t *testing.T) {
	tb := table()
	h := &gmon.Histogram{Low: 100, High: 350, Step: 1, Counts: make([]uint32, 250)}
	h.Counts[0] = 5   // pc 100 -> a
	h.Counts[9] = 1   // pc 109 -> a
	h.Counts[10] = 7  // pc 110 -> b
	h.Counts[105] = 3 // pc 205 -> gap (lost)
	h.Counts[200] = 2 // pc 300 -> c
	ticks, lost := tb.AttributeHist(h)
	if ticks["a"] != 6 || ticks["b"] != 7 || ticks["c"] != 2 {
		t.Errorf("ticks = %v", ticks)
	}
	if lost != 3 {
		t.Errorf("lost = %v, want 3", lost)
	}
	if got := ticks.Total() + lost; got != 18 {
		t.Errorf("conservation: %v != 18", got)
	}
}

func TestAttributeProportionalSplit(t *testing.T) {
	// Bucket [95,105) covers 5 words outside any routine and 5 in a:
	// half the ticks to a, half lost. Bucket [105,115) covers a's last
	// 5 words and b's first 5: split evenly between a and b.
	tb := table()
	h := &gmon.Histogram{Low: 95, High: 115, Step: 10, Counts: []uint32{8, 4}}
	ticks, lost := tb.AttributeHist(h)
	if math.Abs(ticks["a"]-(4+2)) > 1e-9 {
		t.Errorf("a = %v, want 6", ticks["a"])
	}
	if math.Abs(ticks["b"]-2) > 1e-9 {
		t.Errorf("b = %v, want 2", ticks["b"])
	}
	if math.Abs(lost-4) > 1e-9 {
		t.Errorf("lost = %v, want 4", lost)
	}
}

// TestAttributeConservation: for random symbol tables and histograms,
// attributed ticks + lost ticks always equal the histogram total (the
// paper's flat-profile property that individual times sum to total).
func TestAttributeConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var syms []object.Sym
		addr := int64(rng.Intn(10))
		for i := 0; i < rng.Intn(8)+1; i++ {
			size := int64(rng.Intn(20) + 1)
			syms = append(syms, object.Sym{Name: string(rune('a' + i)), Addr: addr, Size: size})
			addr += size + int64(rng.Intn(5)) // occasional gaps
		}
		tb := FromSyms(syms)
		step := int64(rng.Intn(7) + 1)
		low := int64(rng.Intn(5))
		n := rng.Intn(40) + 1
		h := &gmon.Histogram{Low: low, High: low + int64(n)*step, Step: step, Counts: make([]uint32, n)}
		var total float64
		for i := range h.Counts {
			h.Counts[i] = uint32(rng.Intn(10))
			total += float64(h.Counts[i])
		}
		ticks, lost := tb.AttributeHist(h)
		return math.Abs(ticks.Total()+lost-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAttributeEmptyHistogram(t *testing.T) {
	tb := table()
	h := &gmon.Histogram{Low: 0, High: 0, Step: 1}
	ticks, lost := tb.AttributeHist(h)
	if len(ticks) != 0 || lost != 0 {
		t.Errorf("empty histogram attributed: %v, %v", ticks, lost)
	}
}

package symtab

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// searchIndex is the whole-table binary search FindIndex must agree
// with on a validated table.
func searchIndex(t *Table, pc int64) (int, bool) {
	i := sort.Search(len(t.funcs), func(i int) bool { return t.funcs[i].End() > pc })
	if i < len(t.funcs) && t.funcs[i].Addr <= pc && pc < t.funcs[i].End() {
		return i, true
	}
	return 0, false
}

// TestAddressTable checks the address-bucket table: it never exceeds
// 2·Len()+2 entries, however far apart the routines lie, and FindIndex
// answers as a whole-table binary search does at both edges of every
// routine.
func TestAddressTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	wide := func(n int) []object.Sym {
		// Routines strewn over most of the positive int64 range, with
		// a cluster of small ones and one that ends at the top.
		var syms []object.Sym
		addr := int64(0)
		for i := 0; i < n; i++ {
			addr += 1 + rng.Int63n(math.MaxInt64/int64(2*n))
			size := 1 + rng.Int63n(64)
			if i%7 == 0 {
				size = 1 + rng.Int63n(math.MaxInt64/int64(4*n))
			}
			syms = append(syms, object.Sym{Name: fmt.Sprint("w", i), Addr: addr, Size: size})
			addr += size
		}
		for i := 0; i < n/2; i++ {
			syms = append(syms, object.Sym{Name: fmt.Sprint("c", i), Addr: int64(-1000 + 2*i), Size: 2})
		}
		syms = append(syms, object.Sym{Name: "top", Addr: math.MaxInt64 - 9, Size: 9})
		return syms
	}
	dense := func(n int) []object.Sym {
		var syms []object.Sym
		addr := int64(rng.Intn(100))
		for i := 0; i < n; i++ {
			size := 1 + rng.Int63n(30)
			syms = append(syms, object.Sym{Name: fmt.Sprint("d", i), Addr: addr, Size: size})
			addr += size + rng.Int63n(3)
		}
		return syms
	}
	for _, tc := range []struct {
		name string
		syms []object.Sym
	}{
		{"empty", nil},
		{"one", []object.Sym{{Name: "f", Addr: 5, Size: 1}}},
		{"dense", dense(5000)},
		{"wide", wide(1000)},
		{"wide-small", wide(3)},
	} {
		tb := FromSyms(tc.syms)
		if err := tb.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, limit := len(tb.start), 2*tb.Len()+2; got > limit {
			t.Errorf("%s: address table has %d entries, limit %d", tc.name, got, limit)
		}
		for _, s := range tb.Syms() {
			for _, pc := range []int64{s.Addr - 1, s.Addr, s.End() - 1, s.End()} {
				gi, gok := tb.FindIndex(pc)
				wi, wok := searchIndex(tb, pc)
				if gi != wi || gok != wok {
					t.Fatalf("%s: FindIndex(%d) = %d,%v, binary search %d,%v", tc.name, pc, gi, gok, wi, wok)
				}
			}
		}
		for _, pc := range []int64{math.MinInt64, -1, 0, math.MaxInt64} {
			gi, gok := tb.FindIndex(pc)
			wi, wok := searchIndex(tb, pc)
			if gi != wi || gok != wok {
				t.Errorf("%s: FindIndex(%d) = %d,%v, binary search %d,%v", tc.name, pc, gi, gok, wi, wok)
			}
		}
	}
}

// TestAddressTableUnvalidated builds the table over symbols Validate
// rejects — overlapping, nested, zero, negative and overflowing sizes —
// and probes it: nothing may panic, and a routine FindIndex returns
// must contain the pc.
func TestAddressTableUnvalidated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		var syms []object.Sym
		for i := rng.Intn(12); i >= 0; i-- {
			s := object.Sym{Name: fmt.Sprint(rng.Intn(4)), Addr: rng.Int63n(200) - 50, Size: rng.Int63n(80) - 10}
			switch rng.Intn(8) {
			case 0:
				s.Size = 0
			case 1:
				s.Addr, s.Size = math.MaxInt64-rng.Int63n(10), math.MaxInt64
			case 2:
				s.Addr = math.MinInt64 + rng.Int63n(10)
			}
			syms = append(syms, s)
		}
		tb := FromSyms(syms)
		if got, limit := len(tb.start), 2*tb.Len()+2; got > limit {
			t.Fatalf("address table has %d entries, limit %d", got, limit)
		}
		for _, s := range tb.Syms() {
			for _, pc := range []int64{s.Addr - 1, s.Addr, s.End() - 1, s.End(), rng.Int63n(300) - 60} {
				if i, ok := tb.FindIndex(pc); ok {
					if f := tb.Syms()[i]; pc < f.Addr || pc >= f.End() {
						t.Fatalf("FindIndex(%d) = %+v, which does not contain it", pc, f)
					}
				}
			}
		}
		h := &gmon.Histogram{Low: -60, High: 240, Step: 3, Counts: make([]uint32, 100)}
		for i := range h.Counts {
			h.Counts[i] = uint32(rng.Intn(4))
		}
		tb.AttributeHistIdx(h)
	}
}

// TestAttributeMatchesSearch pins the attribution walk's start: each
// bucket starting from the address table must visit the routines a
// whole-table search would, so every routine's ticks and the lost
// ticks are bit-identical to that scan's.
func TestAttributeMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 300; iter++ {
		var syms []object.Sym
		addr := int64(rng.Intn(20))
		for i := rng.Intn(30) + 1; i > 0; i-- {
			size := int64(rng.Intn(25) + 1)
			syms = append(syms, object.Sym{Name: fmt.Sprint(i), Addr: addr, Size: size})
			addr += size + int64(rng.Intn(6))
		}
		tb := FromSyms(syms)
		step := int64(rng.Intn(9) + 1)
		low := int64(rng.Intn(30)) - 10
		n := rng.Intn(120) + 1
		h := &gmon.Histogram{Low: low, High: low + int64(n)*step, Step: step, Counts: make([]uint32, n)}
		for i := range h.Counts {
			h.Counts[i] = uint32(rng.Intn(1000))
		}
		got, gotLost := tb.AttributeHistIdx(h)
		want, wantLost := searchAttribute(tb, h)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("routine %d: %v, whole-table scan %v", i, got[i], want[i])
			}
		}
		if math.Float64bits(gotLost) != math.Float64bits(wantLost) {
			t.Fatalf("lost %v, whole-table scan %v", gotLost, wantLost)
		}
	}
}

// searchAttribute is AttributeHistIdx with each bucket's walk started
// by a binary search over the whole table.
func searchAttribute(t *Table, h *gmon.Histogram) ([]float64, float64) {
	out := make([]float64, len(t.funcs))
	var lost float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.BucketRange(i)
		width := float64(hi - lo)
		covered := 0.0
		j := sort.Search(len(t.funcs), func(k int) bool { return t.funcs[k].End() > lo })
		for ; j < len(t.funcs) && t.funcs[j].Addr < hi; j++ {
			s := t.funcs[j]
			olo, ohi := max(lo, s.Addr), min(hi, s.End())
			if ohi <= olo {
				continue
			}
			frac := float64(ohi-olo) / width
			out[j] += float64(n) * frac
			covered += frac
		}
		if covered < 1 {
			lost += float64(n) * (1 - covered)
		}
	}
	return out, lost
}

// TestNodeIndex checks the duplicate-name collapse: nodes numbered by
// first appearance in address order, identity when names are unique.
func TestNodeIndex(t *testing.T) {
	tb := FromSyms([]object.Sym{
		{Name: "b", Addr: 10, Size: 5},
		{Name: "a", Addr: 0, Size: 5},
		{Name: "a", Addr: 20, Size: 5},
		{Name: "c", Addr: 30, Size: 5},
		{Name: "b", Addr: 40, Size: 5},
	})
	want := []int{0, 1, 0, 2, 1} // a b a c b
	for i, w := range want {
		if got := tb.NodeIndex(i); got != w {
			t.Errorf("NodeIndex(%d) = %d, want %d", i, got, w)
		}
	}
	if tb.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", tb.NumNodes())
	}
	u := table()
	for i := 0; i < u.Len(); i++ {
		if u.NodeIndex(i) != i {
			t.Errorf("unique names: NodeIndex(%d) = %d", i, u.NodeIndex(i))
		}
	}
	if u.NumNodes() != u.Len() || u.node != nil {
		t.Errorf("unique names: NumNodes %d, node map %v", u.NumNodes(), u.node)
	}
}

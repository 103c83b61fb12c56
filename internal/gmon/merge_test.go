package gmon

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// randomProfile builds a profile with shared geometry and rng-chosen
// counts and arcs.
func randomProfile(rng *rand.Rand) *Profile {
	p := &Profile{
		Hist: Histogram{Low: 0x100, High: 0x100 + 64, Step: 1, Counts: make([]uint32, 64)},
		Hz:   60,
	}
	for i := range p.Hist.Counts {
		p.Hist.Counts[i] = uint32(rng.Intn(50))
	}
	seen := map[[2]int64]bool{}
	for n := rng.Intn(20); n > 0; n-- {
		from := int64(0x100 + rng.Intn(64))
		self := int64(0x100 + rng.Intn(64))
		if seen[[2]int64{from, self}] {
			continue
		}
		seen[[2]int64{from, self}] = true
		p.Arcs = append(p.Arcs, Arc{FromPC: from, SelfPC: self, Count: int64(rng.Intn(1000) + 1)})
	}
	return p
}

func encode(t *testing.T, p *Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteVersion(&buf, p, Version1); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestMergeAllMatchesSequential is the merge-determinism property: the
// worker fold of a shuffled profile list equals the sequential fold
// bit-for-bit, for every list length and worker count tried.
func TestMergeAllMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 3, 5, 8, 16, 33} {
		ps := make([]*Profile, k)
		for i := range ps {
			ps[i] = randomProfile(rng)
		}
		sequential, err := MergeAll(context.Background(), ps, 1)
		if err != nil {
			t.Fatalf("k=%d sequential: %v", k, err)
		}
		want := encode(t, sequential)
		for _, jobs := range []int{2, 4, 7} {
			shuffled := append([]*Profile(nil), ps...)
			rng.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			got, err := MergeAll(context.Background(), shuffled, jobs)
			if err != nil {
				t.Fatalf("k=%d jobs=%d: %v", k, jobs, err)
			}
			// Shuffling changes nothing: counts sum and arcs sort.
			if !bytes.Equal(encode(t, got), want) {
				t.Errorf("k=%d jobs=%d: worker fold of shuffled list differs from sequential", k, jobs)
			}
		}
	}
	// Duplicate (FromPC, SelfPC) keys, in file order: which duplicate
	// of the first profile's run carries the later counts is fixed by
	// the first profile alone, so every worker split agrees — but only
	// for the list order given, since the first profile's runs survive.
	for _, k := range []int{2, 3, 5, 8, 16, 33} {
		ps := make([]*Profile, k)
		for i := range ps {
			ps[i] = dupProfile(rng, rng.Intn(24), rng.Intn(6))
		}
		sequential, err := MergeAll(context.Background(), ps, 1)
		if err != nil {
			t.Fatalf("k=%d duplicates sequential: %v", k, err)
		}
		want := encode(t, sequential)
		for _, jobs := range []int{2, 4, 7} {
			got, err := MergeAll(context.Background(), ps, jobs)
			if err != nil {
				t.Fatalf("k=%d jobs=%d duplicates: %v", k, jobs, err)
			}
			if !bytes.Equal(encode(t, got), want) {
				t.Errorf("k=%d jobs=%d: worker fold with duplicate keys differs from sequential", k, jobs)
			}
		}
	}
}

// TestMergeAllLeavesInputsAlone: the inputs must not accumulate into
// each other, and the result must share no storage with them — not
// even when a single input leaves nothing to sum — so mutating the
// result leaves every input as it was.
func TestMergeAllLeavesInputsAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ps := []*Profile{randomProfile(rng), randomProfile(rng), randomProfile(rng)}
	for _, inputs := range [][]*Profile{ps, ps[:1]} {
		before := make([][]byte, len(inputs))
		for i, p := range inputs {
			before[i] = encode(t, p)
		}
		for _, jobs := range []int{1, 4} {
			got, err := MergeAll(context.Background(), inputs, jobs)
			if err != nil {
				t.Fatal(err)
			}
			got.Hist.Counts[0] += 1000
			if len(got.Arcs) > 0 {
				got.Arcs[0].Count += 1000
			}
			for i, p := range inputs {
				if !bytes.Equal(encode(t, p), before[i]) {
					t.Errorf("%d inputs, jobs=%d: MergeAll or a write to its result changed input %d", len(inputs), jobs, i)
				}
			}
		}
	}
}

func TestMergeAllErrors(t *testing.T) {
	if _, err := MergeAll(context.Background(), nil, 4); err == nil {
		t.Error("empty profile list accepted")
	}
	rng := rand.New(rand.NewSource(9))
	ps := []*Profile{randomProfile(rng), randomProfile(rng), randomProfile(rng)}
	ps[2] = ps[2].Clone()
	ps[2].Hist.Step = 2
	ps[2].Hist.Counts = ps[2].Hist.Counts[:ps[2].Hist.NumBuckets()]
	for _, jobs := range []int{1, 4} {
		if _, err := MergeAll(context.Background(), ps, jobs); err == nil {
			t.Errorf("jobs=%d: geometry mismatch accepted", jobs)
		}
	}
}

func TestMergeAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(10))
	ps := make([]*Profile, 16)
	for i := range ps {
		ps[i] = randomProfile(rng)
	}
	for _, jobs := range []int{1, 4} {
		if _, err := MergeAll(ctx, ps, jobs); err == nil {
			t.Errorf("jobs=%d: canceled context not honored", jobs)
		}
	}
}

// TestReadFilesCtxMatchesReadFiles: reading files across workers
// returns the same bytes as reading them sequentially and attributes
// incompatible files by name.
func TestReadFilesCtxMatchesReadFiles(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	var names []string
	for i := 0; i < 9; i++ {
		name := filepath.Join(dir, "gmon."+string(rune('a'+i)))
		if err := WriteFileVersion(name, randomProfile(rng), Version1); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	want, err := ReadFiles(context.Background(), names, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadFiles(context.Background(), names, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, want), encode(t, got)) {
		t.Error("ReadFiles at 4 workers differs from ReadFiles at 1")
	}

	// A geometry mismatch names the offending file.
	odd := randomProfile(rng)
	odd.Hz = 100
	oddName := filepath.Join(dir, "gmon.odd")
	if err := WriteFileVersion(oddName, odd, Version1); err != nil {
		t.Fatal(err)
	}
	_, err = ReadFiles(context.Background(), append(names, oddName), 4)
	if err == nil || !strings.Contains(err.Error(), "gmon.odd") {
		t.Errorf("mismatch error does not name the file: %v", err)
	}

	if _, err := ReadFiles(context.Background(), nil, 4); err == nil {
		t.Error("empty name list accepted")
	}
	if _, err := ReadFiles(context.Background(), []string{filepath.Join(dir, "missing")}, 4); err == nil {
		t.Error("missing file accepted")
	}
}

// mapMerge is the hash-index fold Merge replaced, kept as the reference
// oracle: index p's keys (the last duplicate wins), add each of other's
// entries into its indexed entry or append it and index it, then sort.
// The sort is stable so the order of p's duplicate runs is defined; the
// replaced fold sorted unstably, which left that order to the sort.
func mapMerge(p, other *Profile) error {
	if err := p.checkMergeable(other); err != nil {
		return err
	}
	for i, c := range other.Hist.Counts {
		p.Hist.Counts[i] += c
	}
	type key struct{ from, self int64 }
	idx := make(map[key]int, len(p.Arcs))
	for i, a := range p.Arcs {
		idx[key{a.FromPC, a.SelfPC}] = i
	}
	for _, a := range other.Arcs {
		if i, ok := idx[key{a.FromPC, a.SelfPC}]; ok {
			p.Arcs[i].Count += a.Count
		} else {
			idx[key{a.FromPC, a.SelfPC}] = len(p.Arcs)
			p.Arcs = append(p.Arcs, a)
		}
	}
	sort.SliceStable(p.Arcs, func(i, j int) bool { return compareArcs(&p.Arcs[i], &p.Arcs[j]) < 0 })
	if len(other.Stacks) > 0 {
		sidx := make(map[string]int, len(p.Stacks))
		for i := range p.Stacks {
			sidx[fmt.Sprint(p.Stacks[i].PCs)] = i
		}
		for _, s := range other.Stacks {
			if i, ok := sidx[fmt.Sprint(s.PCs)]; ok {
				p.Stacks[i].Count += s.Count
			} else {
				sidx[fmt.Sprint(s.PCs)] = len(p.Stacks)
				p.Stacks = append(p.Stacks, s)
			}
		}
		sort.SliceStable(p.Stacks, func(i, j int) bool {
			return compareStacks(p.Stacks[i].PCs, p.Stacks[j].PCs) < 0
		})
	}
	return nil
}

// canonicalize puts p in the canonical order Merge's duplicate rule is
// stated against, keeping duplicate runs in their current order.
func canonicalize(p *Profile) {
	sort.SliceStable(p.Arcs, func(i, j int) bool { return compareArcs(&p.Arcs[i], &p.Arcs[j]) < 0 })
	sort.SliceStable(p.Stacks, func(i, j int) bool {
		return compareStacks(p.Stacks[i].PCs, p.Stacks[j].PCs) < 0
	})
}

// checkMergeMatchesOracle merges other into clones of p with Merge and
// with mapMerge and requires identical results, an unmodified other,
// and a canonically ordered accumulator.
func checkMergeMatchesOracle(t *testing.T, name string, p, other *Profile) {
	t.Helper()
	before := *other // Clone would turn empty tables into nil ones
	before.Hist.Counts = slices.Clone(other.Hist.Counts)
	before.Arcs = slices.Clone(other.Arcs)
	before.Stacks = slices.Clone(other.Stacks)
	got, want := p.Clone(), p.Clone()
	gotErr, wantErr := got.Merge(other), mapMerge(want, other)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: Merge error %v, oracle error %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(*other, before) {
		t.Fatalf("%s: Merge modified its argument:\n got %+v\nwant %+v", name, other, before)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Merge differs from the map fold:\n got %+v\nwant %+v", name, got, want)
	}
	if !arcsSorted(got.Arcs) || !stacksSorted(got.Stacks) {
		t.Fatalf("%s: merged tables not in canonical order", name)
	}
}

// dupProfile is randomProfile over a key space small enough that
// duplicate (FromPC, SelfPC) keys and duplicate stacks are common, in
// generation (v1 file) order.
func dupProfile(rng *rand.Rand, narcs, nstacks int) *Profile {
	p := &Profile{
		Hist: Histogram{Low: 0x100, High: 0x100 + 8, Step: 1, Counts: make([]uint32, 8)},
		Hz:   60,
	}
	for i := range p.Hist.Counts {
		p.Hist.Counts[i] = uint32(rng.Intn(50))
	}
	for i := 0; i < narcs; i++ {
		p.Arcs = append(p.Arcs, Arc{
			FromPC: int64(0x100 + rng.Intn(5)), SelfPC: int64(0x100 + rng.Intn(5)),
			Count: int64(rng.Intn(1000) + 1),
		})
	}
	for i := 0; i < nstacks; i++ {
		pcs := make([]int64, 1+rng.Intn(3))
		for j := range pcs {
			pcs[j] = int64(0x100 + rng.Intn(3))
		}
		p.Stacks = append(p.Stacks, StackSample{PCs: pcs, Count: int64(rng.Intn(100) + 1)})
	}
	return p
}

// TestMergeMatchesMapFold is the differential test: on a canonically
// ordered accumulator, the linear fold equals the map fold it replaced,
// duplicates included, whatever the order of the argument.
func TestMergeMatchesMapFold(t *testing.T) {
	arcs := func(keys ...int64) []Arc {
		var out []Arc
		for i := 0; i+1 < len(keys); i += 2 {
			out = append(out, Arc{FromPC: keys[i], SelfPC: keys[i+1], Count: int64(10*i + 1)})
		}
		return out
	}
	prof := func(a []Arc) *Profile {
		p := sample()
		p.Arcs = a
		return p
	}
	cases := []struct {
		name     string
		p, other *Profile
	}{
		{"both empty", prof(nil), prof(nil)},
		{"empty accumulator", prof(nil), prof(arcs(3, 4, 1, 2, 3, 4))},
		{"empty argument", prof(arcs(1, 2, 1, 2)), prof([]Arc{})},
		{"identical keys", prof(arcs(1, 2, 3, 4, 5, 6)), prof(arcs(1, 2, 3, 4, 5, 6))},
		{"disjoint keys", prof(arcs(1, 2, 5, 6)), prof(arcs(0, 1, 3, 4, 7, 8))},
		{"duplicates both sides", prof(arcs(1, 2, 1, 2, 3, 4)), prof(arcs(1, 2, 1, 2, 5, 6, 5, 6))},
		{"unsorted argument", prof(arcs(1, 2, 1, 2, 3, 4)), prof(arcs(5, 6, 1, 2, 0, 9, 5, 6, 1, 2))},
		{"spontaneous", prof(arcs(SpontaneousPC, 4, 1, 2)), prof(arcs(1, 2, SpontaneousPC, 4, SpontaneousPC, 1))},
		{"stacks", sampleV3(), func() *Profile {
			q := sampleV3()
			q.Stacks = append(q.Stacks,
				StackSample{PCs: []int64{0x1003, 0x1009}, Count: 4},
				StackSample{PCs: []int64{0x1002}, Count: 8},
				StackSample{PCs: []int64{0x1002}, Count: 1})
			return q
		}()},
	}
	for _, c := range cases {
		checkMergeMatchesOracle(t, c.name, c.p, c.other)
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 500; trial++ {
		p := dupProfile(rng, rng.Intn(12), rng.Intn(6))
		canonicalize(p)
		other := dupProfile(rng, rng.Intn(12), rng.Intn(6))
		if trial%2 == 0 {
			canonicalize(other)
		}
		checkMergeMatchesOracle(t, fmt.Sprintf("trial %d", trial), p, other)
	}
}

// TestMergeDuplicateRule pins the rule itself: p's run of a key keeps
// its entries and the argument's entries add into the run's last; an
// argument run for a key p lacks collapses into one entry.
func TestMergeDuplicateRule(t *testing.T) {
	p := sample()
	p.Arcs = []Arc{{1, 2, 1}, {1, 2, 2}, {3, 4, 4}}
	other := sample()
	other.Arcs = []Arc{{5, 6, 100}, {1, 2, 10}, {5, 6, 200}, {1, 2, 20}}
	if err := p.Merge(other); err != nil {
		t.Fatal(err)
	}
	want := []Arc{{1, 2, 1}, {1, 2, 32}, {3, 4, 4}, {5, 6, 300}}
	if !reflect.DeepEqual(p.Arcs, want) {
		t.Errorf("arcs = %v, want %v", p.Arcs, want)
	}
}

// TestMergeAllocations: a fold whose argument brings no new key adds in
// place and allocates nothing; one that brings new keys allocates the
// merged arc table once, at its exact size.
func TestMergeAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := dupProfile(rng, 2000, 50)
	canonicalize(p)
	same := p.Clone()
	if err := p.Merge(same); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { p.Merge(same) }); n != 0 {
		t.Errorf("same-key fold: %v allocations, want 0", n)
	}

	base := p.Arcs
	fresh := sample()
	fresh.Hist = p.Hist
	fresh.Arcs = []Arc{{FromPC: 0x100, SelfPC: 0x200, Count: 1}, {FromPC: 0x200, SelfPC: 0x100, Count: 1}}
	if err := p.Merge(fresh); err != nil {
		t.Fatal(err)
	}
	if len(p.Arcs) != len(base)+2 || cap(p.Arcs) != len(p.Arcs) {
		t.Errorf("merged arcs len %d cap %d, want both %d", len(p.Arcs), cap(p.Arcs), len(base)+2)
	}
	if n := testing.AllocsPerRun(100, func() {
		p.Arcs = base
		p.Merge(fresh)
	}); n != 1 {
		t.Errorf("new-key fold: %v allocations, want 1", n)
	}
}

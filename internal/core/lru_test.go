package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cyclebreak"
	"repro/internal/report"
)

func TestLRUBasics(t *testing.T) {
	l := NewLRU(2)
	if _, ok := l.Get("a", "v1"); ok {
		t.Fatal("empty cache reported a hit")
	}
	l.Put("a", "v1", 1)
	l.Put("b", "v1", 2)
	if v, ok := l.Get("a", "v1"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now least recently used; adding "c" must evict it.
	l.Put("c", "v1", 3)
	if _, ok := l.Get("b", "v1"); ok {
		t.Error("LRU entry b survived eviction")
	}
	if v, ok := l.Get("a", "v1"); !ok || v.(int) != 1 {
		t.Errorf("recently used entry a evicted: %v, %v", v, ok)
	}
	hits, misses, evictions := l.Stats()
	if hits != 2 || misses != 2 || evictions != 1 {
		t.Errorf("stats = %d/%d/%d, want hits=2 misses=2 evictions=1", hits, misses, evictions)
	}
}

// TestLRUVersionedSlot pins the slot contract: a lookup of another
// version misses, a new version overwrites its slot in place without
// evicting anything, and the old version is gone.
func TestLRUVersionedSlot(t *testing.T) {
	l := NewLRU(2)
	l.Put("a", "v1", 1)
	l.Put("b", "v1", 2)
	if _, ok := l.Get("a", "v2"); ok {
		t.Error("a lookup of version v2 hit the slot holding v1")
	}
	if got := l.Put("a", "v2", 3); got != 3 {
		t.Errorf("Put of a new version returned %v, want the new value 3", got)
	}
	if v, ok := l.Get("a", "v2"); !ok || v.(int) != 3 {
		t.Errorf("Get(a, v2) = %v, %v, want 3", v, ok)
	}
	if _, ok := l.Get("a", "v1"); ok {
		t.Error("the replaced version v1 still hits")
	}
	if v, ok := l.Get("b", "v1"); !ok || v.(int) != 2 {
		t.Errorf("replacing a's version disturbed b: %v, %v", v, ok)
	}
	hits, misses, evictions := l.Stats()
	if hits != 2 || misses != 2 || evictions != 0 {
		t.Errorf("stats = %d/%d/%d, want hits=2 misses=2 evictions=0", hits, misses, evictions)
	}
}

// TestLRUPutFirstInsertWins pins the concurrent-fill contract: racing
// Puts of one slot and version converge on the first inserted value,
// so every caller shares one cached object.
func TestLRUPutFirstInsertWins(t *testing.T) {
	l := NewLRU(4)
	first := l.Put("k", "v", "one")
	second := l.Put("k", "v", "two")
	if first != "one" || second != "one" {
		t.Errorf("Put returned %v then %v, want both \"one\"", first, second)
	}
}

func TestLRUConcurrent(t *testing.T) {
	l := NewLRU(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				slot, version := fmt.Sprintf("k%d", i%16), fmt.Sprintf("v%d", i%3)
				if v, ok := l.Get(slot, version); ok {
					if v.(string) != slot+version {
						t.Errorf("Get(%s, %s) = %v", slot, version, v)
						return
					}
					continue
				}
				l.Put(slot, version, slot+version)
			}
		}(g)
	}
	wg.Wait()
}

// TestOptionsCacheKey pins what the analysis-memoization key must and
// must not depend on: output-affecting options change it, worker-pool
// width does not, and RemoveArcs order is normalized away.
func TestOptionsCacheKey(t *testing.T) {
	base := Options{}
	if base.CacheKey() != (Options{}).CacheKey() {
		t.Fatal("zero Options keys differ")
	}
	same := []Options{
		{Jobs: 7},
		{Jobs: 13},
	}
	for _, o := range same {
		if o.CacheKey() != base.CacheKey() {
			t.Errorf("CacheKey changed by non-output option %+v", o)
		}
	}
	distinct := []Options{
		{Static: true},
		{AutoBreak: true},
		{AutoBreak: true, MaxBreakArcs: 3},
		{RemoveArcs: []cyclebreak.ArcID{{Caller: "a", Callee: "b"}}},
		{Report: report.Options{MinPercent: 1}},
		{Report: report.Options{NoHeaders: true}},
		{Report: report.Options{Focus: []string{"main"}}},
		{Report: report.Options{Exclude: []string{"main"}}},
	}
	seen := map[string]int{base.CacheKey(): -1}
	for i, o := range distinct {
		k := o.CacheKey()
		if j, dup := seen[k]; dup {
			t.Errorf("options %d and %d share key %q", i, j, k)
		}
		seen[k] = i
	}
	a := Options{RemoveArcs: []cyclebreak.ArcID{{Caller: "a", Callee: "b"}, {Caller: "c", Callee: "d"}}}
	b := Options{RemoveArcs: []cyclebreak.ArcID{{Caller: "c", Callee: "d"}, {Caller: "a", Callee: "b"}}}
	if a.CacheKey() != b.CacheKey() {
		t.Error("RemoveArcs order changed the key; it must be normalized")
	}
}

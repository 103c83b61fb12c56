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
	if _, ok := l.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	l.Add("a", 1)
	l.Add("b", 2)
	if v, ok := l.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now least recently used; adding "c" must evict it.
	l.Add("c", 3)
	if _, ok := l.Get("b"); ok {
		t.Error("LRU entry b survived eviction")
	}
	if v, ok := l.Get("a"); !ok || v.(int) != 1 {
		t.Errorf("recently used entry a evicted: %v, %v", v, ok)
	}
	hits, misses, evictions := l.Stats()
	if hits != 2 || misses != 2 || evictions != 1 {
		t.Errorf("stats = %d/%d/%d, want hits=2 misses=2 evictions=1", hits, misses, evictions)
	}
}

// TestLRUAddFirstInsertWins pins the concurrent-fill contract: racing
// Adds of one key converge on the first inserted value, so every
// caller shares one cached object.
func TestLRUAddFirstInsertWins(t *testing.T) {
	l := NewLRU(4)
	first := l.Add("k", "one")
	second := l.Add("k", "two")
	if first != "one" || second != "one" {
		t.Errorf("Add returned %v then %v, want both \"one\"", first, second)
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
				key := fmt.Sprintf("k%d", i%16)
				if v, ok := l.Get(key); ok {
					if v.(string) != key {
						t.Errorf("Get(%s) = %v", key, v)
						return
					}
					continue
				}
				l.Add(key, key)
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

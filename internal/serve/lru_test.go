package serve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestLRUBasics(t *testing.T) {
	evictions := &obs.Counter{}
	l := newLRU(2, evictions)
	a, b, c := &analysisEntry{}, &analysisEntry{}, &analysisEntry{}
	if _, ok := l.get("a", "v1"); ok {
		t.Fatal("empty cache reported a hit")
	}
	l.put("a", "v1", a)
	l.put("b", "v1", b)
	if v, ok := l.get("a", "v1"); !ok || v != a {
		t.Fatalf("get(a) = %p, %v, want %p", v, ok, a)
	}
	// "b" is now least recently used; adding "c" must evict it.
	l.put("c", "v1", c)
	if _, ok := l.get("b", "v1"); ok {
		t.Error("LRU entry b survived eviction")
	}
	if v, ok := l.get("a", "v1"); !ok || v != a {
		t.Errorf("recently used entry a evicted: %p, %v", v, ok)
	}
	if n := evictions.Value(); n != 1 {
		t.Errorf("evictions = %d, want 1", n)
	}
}

// TestLRUVersionedSlot pins the slot contract: a lookup of another
// version misses, a new version overwrites its slot in place without
// evicting anything, and the old version is gone.
func TestLRUVersionedSlot(t *testing.T) {
	evictions := &obs.Counter{}
	l := newLRU(2, evictions)
	a1, b1, a2 := &analysisEntry{}, &analysisEntry{}, &analysisEntry{}
	l.put("a", "v1", a1)
	l.put("b", "v1", b1)
	if _, ok := l.get("a", "v2"); ok {
		t.Error("a lookup of version v2 hit the slot holding v1")
	}
	if got := l.put("a", "v2", a2); got != a2 {
		t.Errorf("put of a new version returned %p, want the new value %p", got, a2)
	}
	if v, ok := l.get("a", "v2"); !ok || v != a2 {
		t.Errorf("get(a, v2) = %p, %v, want %p", v, ok, a2)
	}
	if _, ok := l.get("a", "v1"); ok {
		t.Error("the replaced version v1 still hits")
	}
	if v, ok := l.get("b", "v1"); !ok || v != b1 {
		t.Errorf("replacing a's version disturbed b: %p, %v", v, ok)
	}
	if n := evictions.Value(); n != 0 {
		t.Errorf("evictions = %d, want 0", n)
	}
}

// TestLRUPutFirstInsertWins pins the concurrent-fill contract: racing
// puts of one slot and version converge on the first inserted value,
// so every caller shares one cached object.
func TestLRUPutFirstInsertWins(t *testing.T) {
	l := newLRU(4, nil)
	one, two := &analysisEntry{}, &analysisEntry{}
	first := l.put("k", "v", one)
	second := l.put("k", "v", two)
	if first != one || second != one {
		t.Errorf("put returned %p then %p, want both %p", first, second, one)
	}
}

func TestLRUConcurrent(t *testing.T) {
	l := newLRU(8, &obs.Counter{})
	entries := map[string]*analysisEntry{}
	for i := 0; i < 16; i++ {
		for j := 0; j < 3; j++ {
			entries[fmt.Sprintf("k%dv%d", i, j)] = &analysisEntry{}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				slot, version := fmt.Sprintf("k%d", i%16), fmt.Sprintf("v%d", i%3)
				want := entries[slot+version]
				if v, ok := l.get(slot, version); ok {
					if v != want {
						t.Errorf("get(%s, %s) = %p, want %p", slot, version, v, want)
						return
					}
					continue
				}
				l.put(slot, version, want)
			}
		}()
	}
	wg.Wait()
}

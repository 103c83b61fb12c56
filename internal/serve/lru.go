package serve

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// lru is a mutex-guarded least-recently-used cache of versioned
// analysis slots. A slot is named by what a lookup asks for (one per
// query shape) and holds one analysis together with the version it was
// computed from, so a newer version replaces the older one in place
// instead of taking a second entry: the cache never holds a value that
// no lookup can hit. It keeps no counters of its own; the caller counts
// hits and misses, and Put reports evictions to the evictions counter.
//
// A cached entry may be handed to many concurrent readers, so
// consumers must treat it as immutable.
type lru struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	bySlot    map[string]*list.Element
	evictions *obs.Counter
}

type lruEntry struct {
	slot, version string
	val           *analysisEntry
}

// newLRU creates a cache holding up to capacity slots; capacity <= 0
// caches nothing (every put is evicted at once).
func newLRU(capacity int, evictions *obs.Counter) *lru {
	return &lru{cap: capacity, ll: list.New(), bySlot: make(map[string]*list.Element), evictions: evictions}
}

// get returns the value slot holds for version, marking the slot most
// recently used. An empty slot, or one holding another version, misses;
// a miss still returns the slot's incumbent, if any, which the caller
// may build the new version on but must not serve.
func (l *lru) get(slot, version string) (*analysisEntry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.bySlot[slot]
	if !ok {
		return nil, false
	}
	e := el.Value.(*lruEntry)
	if e.version != version {
		return e.val, false
	}
	l.ll.MoveToFront(el)
	return e.val, true
}

// put stores val in slot for version and returns the value now cached
// there: val, or the incumbent when the slot already holds this
// version (first insert wins, so concurrent fills converge on one
// shared value). A slot holding another version is overwritten in
// place; only a new slot may evict the least recently used ones.
// Whether the version is still worth keeping is the caller's call.
func (l *lru) put(slot, version string, val *analysisEntry) *analysisEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.bySlot[slot]; ok {
		l.ll.MoveToFront(el)
		e := el.Value.(*lruEntry)
		if e.version != version {
			e.version, e.val = version, val
		}
		return e.val
	}
	l.bySlot[slot] = l.ll.PushFront(&lruEntry{slot: slot, version: version, val: val})
	for l.ll.Len() > l.cap {
		oldest := l.ll.Back()
		l.ll.Remove(oldest)
		delete(l.bySlot, oldest.Value.(*lruEntry).slot)
		l.evictions.Add(1)
	}
	return val
}

package core

import (
	"container/list"
	"sync"
)

// LRU is a mutex-guarded least-recently-used cache of versioned slots,
// with hit/miss/eviction accounting. A slot is named by what a lookup
// asks for (the serving layer uses one per query shape) and holds one
// value together with the version it was computed from, so a newer
// version replaces the older one in place instead of taking a second
// entry: the cache never holds a value that no lookup can hit.
//
// Values are stored as any; a cached value may be handed to many
// concurrent readers, so consumers must treat it as immutable.
type LRU struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	bySlot map[string]*list.Element

	hits, misses, evictions uint64
}

type lruEntry struct {
	slot, version string
	val           any
}

// NewLRU creates a cache holding up to capacity slots; capacity <= 0
// caches nothing (every Put is evicted at once).
func NewLRU(capacity int) *LRU {
	return &LRU{cap: capacity, ll: list.New(), bySlot: make(map[string]*list.Element)}
}

// Get returns the value slot holds for version, marking the slot most
// recently used. An empty slot, or one holding another version, counts
// one miss; the counters only move here, so a Get-then-Put fill counts
// one miss.
func (l *LRU) Get(slot, version string) (any, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.bySlot[slot]
	if !ok || el.Value.(*lruEntry).version != version {
		l.misses++
		return nil, false
	}
	l.hits++
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put stores val in slot for version and returns the value now cached
// there: val, or the incumbent when the slot already holds this
// version (first insert wins, so concurrent fills converge on one
// shared value). A slot holding another version is overwritten in
// place; only a new slot may evict the least recently used ones.
// Whether the version is still worth keeping is the caller's call.
func (l *LRU) Put(slot, version string, val any) any {
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
		l.evictions++
	}
	return val
}

// Stats returns the lookup and eviction counters.
func (l *LRU) Stats() (hits, misses, evictions uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hits, l.misses, l.evictions
}

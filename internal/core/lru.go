package core

import (
	"container/list"
	"sync"
)

// LRU is a mutex-guarded, string-keyed least-recently-used cache with
// hit/miss/eviction accounting. The serving layer memoizes finished
// analyses and raw-merge encodings in one, keyed by the shard's window
// versions.
//
// Values are stored as any; a cached value may be handed to many
// concurrent readers, so consumers must treat it as immutable.
type LRU struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element

	hits, misses, evictions uint64
}

type lruEntry struct {
	key string
	val any
}

// NewLRU creates a cache holding up to capacity entries; capacity <= 0
// caches nothing (every Add is evicted at once).
func NewLRU(capacity int) *LRU {
	return &LRU{cap: capacity, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the value cached under key, marking it most recently
// used. The miss counter only moves here — Add never counts — so a
// Get-then-Add fill sequence counts one miss.
func (l *LRU) Get(key string) (any, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.byKey[key]
	if !ok {
		l.misses++
		return nil, false
	}
	l.hits++
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Add inserts val under key and returns the value now cached there:
// val, or the incumbent when a racing Add of the same key got there
// first (first insert wins, so concurrent fills converge on one shared
// value). Inserting may evict the least recently used entries.
func (l *LRU) Add(key string, val any) any {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.byKey[key]; ok {
		l.ll.MoveToFront(el)
		return el.Value.(*lruEntry).val
	}
	l.byKey[key] = l.ll.PushFront(&lruEntry{key: key, val: val})
	for l.ll.Len() > l.cap {
		oldest := l.ll.Back()
		l.ll.Remove(oldest)
		delete(l.byKey, oldest.Value.(*lruEntry).key)
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

package cache

import (
	"container/list"
	"sync"
)

// LRU is a bounded least-recently-used map from content addresses to
// arbitrary values, safe for concurrent use. It is the memory of Cache and
// backs the caches whose values are live objects rather than byte payloads
// — the compiled-plan cache and the serving layer's warm solver sessions;
// an optional eviction hook lets owners observe entries falling out.
type LRU[V any] struct {
	mu         sync.Mutex
	maxEntries int
	ll         *list.List // front = most recently used
	items      map[Key]*list.Element
	onEvict    func(Key, V)
	hits       uint64
	misses     uint64
	evictions  uint64
}

type lruEntry[V any] struct {
	key Key
	val V
}

// NewLRU returns an LRU holding at most maxEntries values (<= 0 selects
// 128). onEvict, when non-nil, is called for every entry displaced by
// capacity or removed by Delete — outside the cache lock is NOT guaranteed;
// hooks must not call back into the LRU.
func NewLRU[V any](maxEntries int, onEvict func(Key, V)) *LRU[V] {
	if maxEntries <= 0 {
		maxEntries = 128
	}
	return &LRU[V]{
		maxEntries: maxEntries,
		ll:         list.New(),
		items:      make(map[Key]*list.Element),
		onEvict:    onEvict,
	}
}

// Get returns the value stored under key and marks it most recently used.
func (l *LRU[V]) Get(key Key) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		l.misses++
		var zero V
		return zero, false
	}
	l.hits++
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Peek returns the value stored under key without counting a hit or a
// miss and without touching recency.
func (l *LRU[V]) Peek(key Key) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*lruEntry[V]).val, true
}

// Put stores val under key, evicting the least recently used entry past the
// capacity bound.
func (l *LRU[V]) Put(key Key, val V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		l.ll.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = val
		return
	}
	l.items[key] = l.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for l.ll.Len() > l.maxEntries {
		last := l.ll.Back()
		l.ll.Remove(last)
		e := last.Value.(*lruEntry[V])
		delete(l.items, e.key)
		l.evictions++
		if l.onEvict != nil {
			l.onEvict(e.key, e.val)
		}
	}
}

// Delete removes the entry under key, if any, reporting whether one was
// removed. The eviction hook fires for removed entries.
func (l *LRU[V]) Delete(key Key) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		return false
	}
	l.ll.Remove(el)
	e := el.Value.(*lruEntry[V])
	delete(l.items, e.key)
	if l.onEvict != nil {
		l.onEvict(e.key, e.val)
	}
	return true
}

// Keys returns every live key, most recently used first, without touching
// recency. The list-order iteration is deterministic, so callers may range
// over the result in rendering paths.
func (l *LRU[V]) Keys() []Key {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Key, 0, l.ll.Len())
	for el := l.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[V]).key)
	}
	return out
}

// Len returns the number of live entries.
func (l *LRU[V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ll.Len()
}

// LRUStats is a snapshot of an LRU's effectiveness counters.
type LRUStats struct {
	Entries   int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Stats returns a snapshot of the effectiveness counters.
func (l *LRU[V]) Stats() LRUStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LRUStats{Entries: l.ll.Len(), Hits: l.hits, Misses: l.misses, Evictions: l.evictions}
}

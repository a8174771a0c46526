// Package cache is the content-addressed result cache of the serving
// layer: fixed 32-byte (SHA-256) keys map to opaque value bytes through an
// in-memory LRU, optionally backed by one internal/store result file per
// entry. The store publishes each file with a single atomic flip, so a
// crash leaves the old file, the new one or none, and recovery is loading
// every file. A re-Put replaces the key's file (last write wins) and an
// eviction deletes it, so the directory never holds more files than the
// capacity. Files load in the order they were written, so a reopened
// cache holds its entries in Put order and, at a smaller capacity, keeps
// the most recently Put ones.
package cache

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/store"
)

// Key is a content address: the SHA-256 of a canonically encoded instance.
type Key = [32]byte

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Entries     int
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	Replayed    int // entries loaded from result files at Open
	Quarantined int // result files Open renamed aside as corrupt
}

// Cache is a bounded LRU over content-addressed byte values, safe for
// concurrent use. The zero value is not usable; construct with Open.
//
// Two locks keep the read path fast: the LRU's own lock covers memory, and
// fileMu serializes Puts so that the files change in the same order as the
// LRU. A Put holds fileMu across its memory update and its file writes, so
// cache hits never wait behind an fsync.
type Cache struct {
	lru         *LRU[[]byte]
	replayed    int
	quarantined int

	fileMu  sync.Mutex
	files   *store.ResultDir // guarded by fileMu; nil when memory-only or closed
	evicted []Key            // filled by the LRU's eviction hook, which runs only inside a Put or Open
}

// Open creates a cache holding at most maxEntries values (<= 0 selects
// 1024). A non-empty dir enables persistence: every entry is published as
// a result file under dir and loaded by the next Open, so a restarted
// server keeps serving previously solved instances without re-solving. A
// file failing verification is quarantined and its key re-solves.
func Open(dir string, maxEntries int) (*Cache, error) {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	c := &Cache{}
	c.lru = NewLRU(maxEntries, func(k Key, _ []byte) { c.evicted = append(c.evicted, k) })
	if dir == "" {
		return c, nil
	}
	files, err := store.OpenResultDir(dir, func(key Key, val []byte) {
		c.lru.Put(key, val)
		c.replayed++
	})
	if err != nil {
		return nil, fmt.Errorf("cache: load: %w", err)
	}
	if err := files.Remove(c.evicted); err != nil {
		return nil, fmt.Errorf("cache: remove evicted: %w", err)
	}
	c.evicted = nil
	c.quarantined = files.Quarantined()
	c.fileMu.Lock() // uncontended: nobody else holds c yet
	c.files = files
	c.fileMu.Unlock()
	return c, nil
}

// Get returns the value stored under key and marks it most recently used.
// The returned slice is the cache's backing storage: callers must treat it
// as read-only.
func (c *Cache) Get(key Key) ([]byte, bool) { return c.lru.Get(key) }

// Peek is Get for reads that serve no request, such as handing an entry
// to another node: it counts neither a hit nor a miss and leaves recency
// alone. The returned slice is read-only, as Get's is.
func (c *Cache) Peek(key Key) ([]byte, bool) { return c.lru.Peek(key) }

// Put stores val under key, evicting the least recently used entry past the
// capacity bound, and — when persistence is on — deletes the evicted
// entries' files and publishes key's before returning. The value bytes are
// copied. Deleting first keeps the directory within the capacity.
func (c *Cache) Put(key Key, val []byte) error {
	c.fileMu.Lock()
	defer c.fileMu.Unlock()
	c.lru.Put(key, append([]byte(nil), val...))
	evicted := c.evicted
	c.evicted = nil
	if c.files == nil {
		return nil
	}
	if err := c.files.Remove(evicted); err != nil {
		return fmt.Errorf("cache: remove evicted: %w", err)
	}
	if err := c.files.Write(key, val, time.Now()); err != nil {
		return fmt.Errorf("cache: publish: %w", err)
	}
	return nil
}

// Len returns the number of live entries.
func (c *Cache) Len() int { return c.lru.Len() }

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache) Stats() Stats {
	ls := c.lru.Stats()
	return Stats{Entries: ls.Entries, Hits: ls.Hits, Misses: ls.Misses, Evictions: ls.Evictions, Replayed: c.replayed, Quarantined: c.quarantined}
}

// Close detaches the cache from its directory. The in-memory contents
// remain usable, but later Puts are no longer durable.
func (c *Cache) Close() error {
	c.fileMu.Lock()
	defer c.fileMu.Unlock()
	c.files = nil
	return nil
}

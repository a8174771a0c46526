package cache

import (
	"fmt"
	"sync"
	"testing"
)

func lruKey(i int) Key {
	var k Key
	copy(k[:], fmt.Sprintf("key-%d", i))
	return k
}

func TestLRUBasics(t *testing.T) {
	var evicted []Key
	l := NewLRU[int](2, func(k Key, v int) { evicted = append(evicted, k) })
	l.Put(lruKey(1), 10)
	l.Put(lruKey(2), 20)
	if v, ok := l.Get(lruKey(1)); !ok || v != 10 {
		t.Fatalf("Get(1) = %d,%v", v, ok)
	}
	// 1 is now most recent; inserting 3 must evict 2.
	l.Put(lruKey(3), 30)
	if _, ok := l.Get(lruKey(2)); ok {
		t.Fatalf("2 survived past capacity")
	}
	if len(evicted) != 1 || evicted[0] != lruKey(2) {
		t.Fatalf("eviction hook saw %v", evicted)
	}
	if v, ok := l.Get(lruKey(1)); !ok || v != 10 {
		t.Fatalf("recently-used entry evicted")
	}
	l.Put(lruKey(1), 11) // update in place
	if v, _ := l.Get(lruKey(1)); v != 11 {
		t.Fatalf("update lost")
	}
	if !l.Delete(lruKey(1)) || l.Delete(lruKey(1)) {
		t.Fatalf("Delete semantics broken")
	}
	st := l.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestLRUPeek: Peek reads an entry without counting a hit or a miss and
// without making it recent, so the entry it read is still evicted first.
func TestLRUPeek(t *testing.T) {
	l := NewLRU[int](2, nil)
	l.Put(lruKey(1), 10)
	l.Put(lruKey(2), 20)
	if v, ok := l.Peek(lruKey(1)); !ok || v != 10 {
		t.Fatalf("Peek(1) = %d,%v", v, ok)
	}
	if _, ok := l.Peek(lruKey(9)); ok {
		t.Fatal("Peek found a missing key")
	}
	if st := l.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek counted: %+v", st)
	}
	l.Put(lruKey(3), 30)
	if _, ok := l.Peek(lruKey(1)); ok {
		t.Fatal("a peeked entry was made recent: 2 was evicted before it")
	}
}

func TestLRUConcurrent(t *testing.T) {
	l := NewLRU[int](32, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Put(lruKey(i%40), g*1000+i)
				l.Get(lruKey((i + 7) % 40))
			}
		}(g)
	}
	wg.Wait()
	if l.Len() > 32 {
		t.Fatalf("capacity exceeded: %d", l.Len())
	}
}

package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func k(s string) Key { return sha256.Sum256([]byte(s)) }

func TestMemoryPutGet(t *testing.T) {
	c, err := Open("", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k("a")); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(k("a"), []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get(k("a"))
	if !ok || string(v) != "alpha" {
		t.Fatalf("get = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPutCopiesValue(t *testing.T) {
	c, _ := Open("", 8)
	buf := []byte("mutate-me")
	c.Put(k("a"), buf)
	buf[0] = 'X'
	if v, _ := c.Get(k("a")); string(v) != "mutate-me" {
		t.Errorf("cache shares caller storage: %q", v)
	}
}

func TestLRUEviction(t *testing.T) {
	c, _ := Open("", 2)
	c.Put(k("a"), []byte("1"))
	c.Put(k("b"), []byte("2"))
	c.Get(k("a")) // a is now more recent than b
	c.Put(k("c"), []byte("3"))
	if _, ok := c.Get(k("b")); ok {
		t.Error("LRU entry b survived eviction")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := c.Get(k(key)); !ok {
			t.Errorf("entry %s evicted out of order", key)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestUpdateExistingKey(t *testing.T) {
	c, _ := Open("", 2)
	c.Put(k("a"), []byte("old"))
	c.Put(k("a"), []byte("new"))
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	if v, _ := c.Get(k("a")); string(v) != "new" {
		t.Errorf("get = %q", v)
	}
}

func TestPersistReplay(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(k("a"), []byte("alpha"))
	c.Put(k("b"), []byte("beta"))
	c.Put(k("a"), []byte("alpha-v2")) // duplicate key: the last write wins
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Stats(); st.Replayed != 2 || st.Entries != 2 {
		t.Fatalf("replay stats = %+v", st)
	}
	if v, ok := c2.Get(k("a")); !ok || string(v) != "alpha-v2" {
		t.Errorf("a = %q, %v (want last-written value)", v, ok)
	}
	if v, ok := c2.Get(k("b")); !ok || string(v) != "beta" {
		t.Errorf("b = %q, %v", v, ok)
	}
}

// resPath is where the store publishes the result file for key under dir.
func resPath(dir string, key Key) string {
	return filepath.Join(dir, hex.EncodeToString(key[:])+".res")
}

// resFiles lists the result files under dir. Glob fails only on a
// malformed pattern, so its error is dropped.
func resFiles(dir string) []string {
	files, _ := filepath.Glob(filepath.Join(dir, "*.res"))
	return files
}

func TestReplayRespectsCapacity(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir, 8)
	c.Put(k("a"), []byte("1"))
	c.Put(k("b"), []byte("2"))
	c.Put(k("c"), []byte("3"))
	c.Close()

	c2, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 2 {
		t.Fatalf("len = %d, want capacity bound 2", c2.Len())
	}
	if _, ok := c2.Get(k("a")); ok {
		t.Error("oldest entry should have been evicted during replay")
	}
}

// Puts come faster than the clock ticks, yet a reopen at a smaller
// capacity keeps exactly the most recently Put keys: a re-Put counts as
// new, and Puts after a reopen come after every file already there, even
// when those files' times are ahead of the clock.
func TestReopenKeepsPutOrder(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir, 64)
	for i := 0; i < 32; i++ {
		c.Put(k(fmt.Sprintf("k%d", i)), []byte{byte(i)})
	}
	c.Put(k("k0"), []byte{0}) // k0 is now the newest
	c.Close()

	c2, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 8 {
		t.Fatalf("len = %d, want 8", c2.Len())
	}
	want := []string{"k0"}
	for i := 25; i < 32; i++ {
		want = append(want, fmt.Sprintf("k%d", i))
	}
	for _, name := range want {
		if _, ok := c2.Get(k(name)); !ok {
			t.Errorf("%s evicted on reopen; the 8 most recently Put keys are k0 and k25..k31", name)
		}
	}
	// A clock behind the newest file: later Puts must still load as newer,
	// and in the order they were made.
	future := time.Now().Add(time.Hour)
	for _, path := range resFiles(dir) {
		if err := os.Chtimes(path, future, future); err != nil {
			t.Fatal(err)
		}
	}
	c2.Close()
	c3, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c3.Put(k(fmt.Sprintf("late%d", i)), []byte{byte(i)})
	}
	c3.Close()
	// By name late3 < late1 < late2 < late0, so tied stamps would keep
	// late2 and late0.
	c4, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c4.Close()
	for _, name := range []string{"late2", "late3"} {
		if _, ok := c4.Get(k(name)); !ok {
			t.Errorf("%s evicted on reopen; Puts after a reopen must load newest, in Put order", name)
		}
	}
}

// A crash mid-publish leaves a temp file beside the result files. Even one
// holding a complete, valid result image is never loaded: only a renamed
// <key>.res is published.
func TestTempFileNeverLoaded(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir, 8)
	c.Put(k("a"), []byte("alpha"))
	c.Put(k("b"), []byte("beta"))
	c.Close()
	tmp := filepath.Join(dir, ".tmp-123456")
	if err := os.Rename(resPath(dir, k("a")), tmp); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Stats(); st.Replayed != 1 || st.Entries != 1 {
		t.Fatalf("replay stats = %+v, want only b", st)
	}
	if _, ok := c2.Get(k("a")); ok {
		t.Error("a was loaded from a temp file")
	}
	if v, ok := c2.Get(k("b")); !ok || string(v) != "beta" {
		t.Errorf("b = %q, %v", v, ok)
	}
	// The temp file is left for the store's start-up sweep, not parsed.
	if _, err := os.Stat(tmp); err != nil {
		t.Errorf("temp file moved: %v", err)
	}
}

// A result file that fails its CRC, is cut short, or holds another key's
// body is quarantined as <name>.corrupt and never served; the intact files
// beside it still load.
func TestCorruptFileQuarantined(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(path string, data []byte) error
	}{
		{"truncated", func(path string, data []byte) error {
			return os.WriteFile(path, data[:len(data)-7], 0o644)
		}},
		{"bit-flipped", func(path string, data []byte) error {
			data[len(data)/2] ^= 0x01
			return os.WriteFile(path, data, 0o644)
		}},
		{"other key", func(path string, _ []byte) error {
			other, err := os.ReadFile(resPath(filepath.Dir(path), k("b")))
			if err != nil {
				return err
			}
			return os.WriteFile(path, other, 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, _ := Open(dir, 8)
			c.Put(k("a"), []byte("alpha, long enough to cut"))
			c.Put(k("b"), []byte("beta"))
			c.Close()
			path := resPath(dir, k("a"))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.corrupt(path, data); err != nil {
				t.Fatal(err)
			}

			c2, err := Open(dir, 8)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			if v, ok := c2.Get(k("a")); ok {
				t.Errorf("corrupt entry served: %q", v)
			}
			if v, ok := c2.Get(k("b")); !ok || string(v) != "beta" {
				t.Errorf("b = %q, %v", v, ok)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupt file still at its name: %v", err)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Errorf("corrupt file not quarantined: %v", err)
			}
			if st := c2.Stats(); st.Quarantined != 1 {
				t.Errorf("Stats().Quarantined = %d, want 1", st.Quarantined)
			}
		})
	}
}

// The directory holds at most capacity result files: after more Puts than
// that, and after reopening with a smaller capacity.
func TestDiskBoundedByCapacity(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := c.Put(k(fmt.Sprintf("k%d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if n := len(resFiles(dir)); n > 4 {
			t.Fatalf("after put %d: %d result files, want <= 4", i, n)
		}
	}
	c.Close()

	c2, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if n := len(resFiles(dir)); n != 2 {
		t.Errorf("after reopening at capacity 2: %d result files, want 2", n)
	}
	// The two most recently written keys survive.
	for i := 18; i < 20; i++ {
		if v, ok := c2.Get(k(fmt.Sprintf("k%d", i))); !ok || v[0] != byte(i) {
			t.Errorf("k%d = %v, %v", i, v, ok)
		}
	}
}

// Concurrent Puts, Gets and evictions: run under -race, this pins down the
// two-lock design. Readers never see a value nobody wrote, the directory
// never outgrows the capacity, and a reopen finds only written values.
func TestConcurrentPutGetEvict(t *testing.T) {
	dir := t.TempDir()
	const capacity = 8
	c, err := Open(dir, capacity)
	if err != nil {
		t.Fatal(err)
	}

	// Each writer Puts its own key space, and re-Puts of a key carry the
	// same value, so every key has one correct value.
	const (
		writers = 4
		readers = 4
		rounds  = 60
	)
	done := make(chan struct{})
	var wWg, rWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wWg.Add(1)
		go func(w int) {
			defer wWg.Done()
			for i := 0; i < rounds; i++ {
				key := k(fmt.Sprintf("w%d-k%d", w, i%6))
				if err := c.Put(key, []byte(fmt.Sprintf("w%d-v%d", w, i%6))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rWg.Add(1)
		go func(r int) {
			defer rWg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if r == 0 {
					// One reader watches the directory bound instead.
					if n := len(resFiles(dir)); n > capacity {
						t.Errorf("%d result files, want <= %d", n, capacity)
						return
					}
					continue
				}
				key := k(fmt.Sprintf("w%d-k%d", i%writers, i%6))
				if v, ok := c.Get(key); ok {
					want := fmt.Sprintf("w%d-v%d", i%writers, i%6)
					if string(v) != want {
						t.Errorf("reader %d: key %x = %q, want %q", r, key[:4], v, want)
						return
					}
				}
			}
		}(r)
	}

	// Writers drain first, then the readers are told to stop.
	wWg.Wait()
	close(done)
	rWg.Wait()

	if c.Stats().Evictions == 0 {
		t.Error("workload never evicted — capacity too large to exercise eviction")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Every file holds a live entry, and every reloaded value is one the
	// workload actually wrote (value matches its key's writer and slot).
	if n := len(resFiles(dir)); n != capacity {
		t.Errorf("%d result files at rest, want %d", n, capacity)
	}
	c2, err := Open(dir, capacity)
	if err != nil {
		t.Fatalf("reopen after concurrent puts: %v", err)
	}
	defer c2.Close()
	if st := c2.Stats(); st.Replayed != capacity || st.Entries != capacity {
		t.Errorf("replay stats = %+v, want %d entries", st, capacity)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < 6; i++ {
			if v, ok := c2.Get(k(fmt.Sprintf("w%d-k%d", w, i))); ok {
				if want := fmt.Sprintf("w%d-v%d", w, i); string(v) != want {
					t.Errorf("replayed w%d-k%d = %q, want %q", w, i, v, want)
				}
			}
		}
	}
}

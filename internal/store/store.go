package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/table"
)

// Kind classifies a store file.
type Kind uint8

const (
	KindUnknown  Kind = iota
	KindSnapshot      // content-addressed relation snapshot (<fp>.snap)
	KindSession       // session record keyed by base fingerprint (<fp>.sess)
)

func (k Kind) String() string {
	switch k {
	case KindSnapshot:
		return "snapshot"
	case KindSession:
		return "session"
	default:
		return "unknown"
	}
}

const (
	snapExt    = ".snap"
	sessExt    = ".sess"
	corruptExt = ".corrupt"
)

// Store is the durable tier rooted at one data directory:
//
//	<dir>/snapshots/<fp>.snap  immutable relation snapshots, named by content
//	<dir>/sessions/<fp>.sess   session records, named by base fingerprint
//	<dir>/cache/<fp>.res       result cache bodies, named by request fingerprint
//	<dir>/flight/              flight-recorder dumps of failed traces (JSON)
//
// All files are published atomically (write-temp → fsync → rename), so the
// store is crash-consistent by construction; CRC framing catches anything
// that slips past. Store methods are safe for concurrent use — files are
// immutable once published and counters are atomic.
type Store struct {
	dir string

	snapshotsPut  atomic.Uint64
	sessionsPut   atomic.Uint64
	mappedNow     atomic.Int64
	corruptFiles  atomic.Uint64
	ingestedFiles atomic.Uint64
}

// Open prepares the data directory layout and sweeps temp files left by a
// crash mid-publish. It never removes data files, however damaged — those
// are quarantined lazily when a read detects corruption.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir}
	for _, sub := range []string{s.snapDir(), s.sessDir(), s.CacheDir(), s.FlightDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		ents, err := os.ReadDir(sub)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), ".tmp-") {
				os.Remove(filepath.Join(sub, e.Name()))
			}
		}
	}
	return s, nil
}

// Dir returns the store's root data directory.
func (s *Store) Dir() string { return s.dir }

// CacheDir returns the directory the result cache's files live in.
func (s *Store) CacheDir() string { return filepath.Join(s.dir, "cache") }

// FlightDir returns the directory the flight recorder dumps failed-request
// traces into (data/flight). The store only owns the location; the obsv
// layer writes and prunes the dumps.
func (s *Store) FlightDir() string { return filepath.Join(s.dir, "flight") }

func (s *Store) snapDir() string { return filepath.Join(s.dir, "snapshots") }
func (s *Store) sessDir() string { return filepath.Join(s.dir, "sessions") }

func (s *Store) snapPath(fp [32]byte) string {
	return filepath.Join(s.snapDir(), hex.EncodeToString(fp[:])+snapExt)
}

func (s *Store) sessPath(fp [32]byte) string {
	return filepath.Join(s.sessDir(), hex.EncodeToString(fp[:])+sessExt)
}

// snapshotFingerprint is the content address of a snapshot: SHA-256 over
// the kind- and length-prefixed section payloads. The columnar encoding is
// canonical, so equal relations (same name, schema, rows) share one file.
func snapshotFingerprint(secs []section) [32]byte {
	h := sha256.New()
	var pre [12]byte
	for _, sec := range secs {
		binary.LittleEndian.PutUint32(pre[0:4], sec.kind)
		binary.LittleEndian.PutUint64(pre[4:12], uint64(len(sec.payload)))
		h.Write(pre[:])
		h.Write(sec.payload)
	}
	var fp [32]byte
	h.Sum(fp[:0])
	return fp
}

func encodeSnapshot(rel *table.Relation) ([]byte, [32]byte, error) {
	var blob strings.Builder
	if _, err := table.EncodeColumnar(table.NewColumnar(rel), &blob); err != nil {
		return nil, [32]byte{}, err
	}
	secs := []section{
		{kind: secSnapName, payload: []byte(rel.Name)},
		{kind: secSnapColumnar, payload: []byte(blob.String())},
	}
	return buildFile(fileKindSnapshot, secs), snapshotFingerprint(secs), nil
}

// PutRelation snapshots rel into the store and returns its content
// fingerprint. Snapshots are immutable and deduplicated: putting an equal
// relation twice writes one file.
func (s *Store) PutRelation(rel *table.Relation) ([32]byte, error) {
	img, fp, err := encodeSnapshot(rel)
	if err != nil {
		return [32]byte{}, err
	}
	path := s.snapPath(fp)
	if _, err := os.Stat(path); err == nil {
		return fp, nil // already published; content-addressed files never change
	}
	if err := atomicWriteFile(path, img); err != nil {
		return [32]byte{}, err
	}
	s.snapshotsPut.Add(1)
	return fp, nil
}

// quarantine renames a corrupt store file aside and counts it.
func (s *Store) quarantine(path string) {
	s.corruptFiles.Add(1)
	quarantineFile(path)
}

// quarantineFile renames a corrupt file aside with the .corrupt suffix so
// it is never parsed again. The data is kept for post-mortems rather than
// deleted.
func quarantineFile(path string) { os.Rename(path, path+corruptExt) }

// openMapped maps (or pagewise-reads) a whole file. Callers must close the
// returned mapping.
func openMapped(path string) (*mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return mapFile(f, st.Size())
}

// loadSnapshotSections maps the snapshot file for fp and returns its parsed
// sections plus the mapping (which the caller must close; section payloads
// alias it). A framing defect or content-hash mismatch quarantines the file
// and returns an error — a corrupt snapshot is never served.
func (s *Store) loadSnapshotSections(fp [32]byte) ([]section, *mapped, error) {
	path := s.snapPath(fp)
	m, err := openMapped(path)
	if err != nil {
		return nil, nil, err
	}
	secs, perr := parseFile(m.bytes(), fileKindSnapshot)
	if perr == nil && snapshotFingerprint(secs) != fp {
		perr = fmt.Errorf("store: snapshot %s: content does not match its fingerprint", filepath.Base(path))
	}
	if perr != nil {
		m.close()
		s.quarantine(path)
		return nil, nil, perr
	}
	return secs, m, nil
}

// LoadRelation reads the snapshot named by fp back into a relation. The
// columnar payload is decoded with aliasing directly over the mapped file,
// and the materialized relation owns its rows, so the mapping is released
// before returning.
func (s *Store) LoadRelation(fp [32]byte) (*table.Relation, error) {
	secs, m, err := s.loadSnapshotSections(fp)
	if err != nil {
		return nil, err
	}
	s.mappedNow.Add(1)
	defer func() {
		m.close()
		s.mappedNow.Add(-1)
	}()
	name, err := findSection(secs, secSnapName)
	if err != nil {
		return nil, err
	}
	blob, err := findSection(secs, secSnapColumnar)
	if err != nil {
		return nil, err
	}
	c, err := table.DecodeColumnar(blob, true)
	if err != nil {
		// The CRC passed but the blob is structurally invalid — an encoder
		// bug or a deliberate corruption; either way, never serve it.
		s.quarantine(s.snapPath(fp))
		return nil, err
	}
	return c.Relation(string(name))
}

// MappedColumnar is a decoded snapshot whose arrays alias a live file
// mapping; Close releases the mapping, after which the Columnar must not
// be used. It is the zero-copy path for instances too large to materialize.
type MappedColumnar struct {
	C     *table.Columnar
	Name  string
	s     *Store
	m     *mapped
	moved atomic.Bool
}

// Close releases the underlying mapping. Safe to call twice.
func (mc *MappedColumnar) Close() error {
	if mc.moved.Swap(true) {
		return nil
	}
	mc.s.mappedNow.Add(-1)
	return mc.m.close()
}

// LoadColumnar opens the snapshot named by fp as a columnar view aliasing
// the mapped file — dictionaries are materialized, but value arrays, null
// masks, and posting lists read straight from the page cache.
func (s *Store) LoadColumnar(fp [32]byte) (*MappedColumnar, error) {
	secs, m, err := s.loadSnapshotSections(fp)
	if err != nil {
		return nil, err
	}
	name, err := findSection(secs, secSnapName)
	if err != nil {
		m.close()
		return nil, err
	}
	blob, err := findSection(secs, secSnapColumnar)
	if err != nil {
		m.close()
		return nil, err
	}
	c, err := table.DecodeColumnar(blob, mmapSupported)
	if err != nil {
		m.close()
		s.quarantine(s.snapPath(fp))
		return nil, err
	}
	s.mappedNow.Add(1)
	return &MappedColumnar{C: c, Name: string(name), s: s, m: m}, nil
}

// ReadFile returns the raw published bytes of the file addressed by fp —
// a session record if one exists, else a snapshot — for the cluster
// handoff endpoint. The framing is validated before the bytes are served.
func (s *Store) ReadFile(fp [32]byte) ([]byte, Kind, error) {
	if data, err := os.ReadFile(s.sessPath(fp)); err == nil {
		if _, perr := parseFile(data, fileKindSession); perr != nil {
			s.quarantine(s.sessPath(fp))
			return nil, KindUnknown, perr
		}
		return data, KindSession, nil
	}
	data, err := os.ReadFile(s.snapPath(fp))
	if err != nil {
		return nil, KindUnknown, err
	}
	secs, perr := parseFile(data, fileKindSnapshot)
	if perr == nil && snapshotFingerprint(secs) != fp {
		perr = fmt.Errorf("store: snapshot content does not match its fingerprint")
	}
	if perr != nil {
		s.quarantine(s.snapPath(fp))
		return nil, KindUnknown, perr
	}
	return data, KindSnapshot, nil
}

// Ingest verifies and publishes raw file bytes fetched from a peer. The
// claimed fingerprint must match the content: for snapshots the content
// hash, for session records the base fingerprint in the meta section.
// Ingesting a file that already exists is a no-op.
func (s *Store) Ingest(fp [32]byte, data []byte) (Kind, error) {
	if secs, err := parseFile(data, fileKindSnapshot); err == nil {
		if snapshotFingerprint(secs) != fp {
			return KindUnknown, fmt.Errorf("store: ingest: snapshot content does not match claimed fingerprint")
		}
		path := s.snapPath(fp)
		if _, err := os.Stat(path); err == nil {
			return KindSnapshot, nil
		}
		if err := atomicWriteFile(path, data); err != nil {
			return KindUnknown, err
		}
		s.ingestedFiles.Add(1)
		return KindSnapshot, nil
	}
	secs, err := parseFile(data, fileKindSession)
	if err != nil {
		return KindUnknown, fmt.Errorf("store: ingest: not a valid store file: %w", err)
	}
	rec, err := decodeSessionRecord(secs)
	if err != nil {
		return KindUnknown, fmt.Errorf("store: ingest: %w", err)
	}
	if rec.BaseFP != fp {
		return KindUnknown, fmt.Errorf("store: ingest: session record base fingerprint does not match claimed fingerprint")
	}
	path := s.sessPath(fp)
	if _, err := os.Stat(path); err == nil {
		return KindSession, nil
	}
	if err := atomicWriteFile(path, data); err != nil {
		return KindUnknown, err
	}
	s.ingestedFiles.Add(1)
	return KindSession, nil
}

// Sessions lists the base fingerprints of all persisted session records,
// sorted, skipping quarantined and foreign files.
func (s *Store) Sessions() ([][32]byte, error) {
	ents, err := os.ReadDir(s.sessDir())
	if err != nil {
		return nil, err
	}
	var out [][32]byte
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, sessExt) {
			continue
		}
		raw, err := hex.DecodeString(strings.TrimSuffix(name, sessExt))
		if err != nil || len(raw) != 32 {
			continue
		}
		var fp [32]byte
		copy(fp[:], raw)
		out = append(out, fp)
	}
	sort.Slice(out, func(i, j int) bool { return string(out[i][:]) < string(out[j][:]) })
	return out, nil
}

// Stats is a point-in-time inventory of the store.
type Stats struct {
	SnapshotBytes int64 // bytes on disk under snapshots/
	SessionBytes  int64 // bytes on disk under sessions/
	CacheBytes    int64 // bytes on disk under cache/
	Snapshots     int   // snapshot files resident
	Sessions      int   // session records resident
	MappedNow     int64 // snapshot mappings currently open
	SnapshotsPut  uint64
	SessionsPut   uint64
	CorruptFiles  uint64
	IngestedFiles uint64
}

// dirUsage sums the regular files in dir named with ext: quarantined
// .corrupt files, leftover temp files and foreign files count neither
// their bytes nor themselves.
func dirUsage(dir, ext string) (bytes int64, files int) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ext) {
			continue
		}
		info, err := e.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		bytes += info.Size()
		files++
	}
	return bytes, files
}

// CorruptFiles returns the number of snapshot and session files quarantined
// so far; unlike Stats, it does not walk the data directory.
func (s *Store) CorruptFiles() uint64 { return s.corruptFiles.Load() }

// Stats scans the data directory; cheap enough for a metrics scrape.
func (s *Store) Stats() Stats {
	st := Stats{
		MappedNow:     s.mappedNow.Load(),
		SnapshotsPut:  s.snapshotsPut.Load(),
		SessionsPut:   s.sessionsPut.Load(),
		CorruptFiles:  s.corruptFiles.Load(),
		IngestedFiles: s.ingestedFiles.Load(),
	}
	st.SnapshotBytes, st.Snapshots = dirUsage(s.snapDir(), snapExt)
	st.SessionBytes, st.Sessions = dirUsage(s.sessDir(), sessExt)
	st.CacheBytes, _ = dirUsage(s.CacheDir(), resExt)
	return st
}

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
// the kind- and length-prefixed section payloads. The relation encoding is
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

// encodeSnapshot frames rel's encoding (table.AppendRelation) as the one
// section of a snapshot file. A relation with rows but no columns has no
// snapshot: no byte of its encoding bounds its row count, so the decoder
// refuses it.
func encodeSnapshot(rel *table.Relation) ([]byte, [32]byte, error) {
	if rel.Schema().Len() == 0 && rel.Len() > 0 {
		return nil, [32]byte{}, fmt.Errorf("store: snapshot of %s: %d rows but no columns", rel.Name, rel.Len())
	}
	secs := []section{{kind: secSnapRelation, payload: table.AppendRelation(nil, rel, nil)}}
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

// readSnapshot reads the snapshot file for fp and returns its bytes and
// sections. A framing defect or content-hash mismatch quarantines the file
// and returns an error: a corrupt snapshot is never served.
func (s *Store) readSnapshot(fp [32]byte) ([]byte, []section, error) {
	path := s.snapPath(fp)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	secs, err := parseFile(data, fileKindSnapshot)
	if err == nil && snapshotFingerprint(secs) != fp {
		err = fmt.Errorf("store: snapshot %s: content does not match its fingerprint", filepath.Base(path))
	}
	if err != nil {
		s.quarantine(path)
		return nil, nil, err
	}
	return data, secs, nil
}

// LoadRelation reads the snapshot named by fp back into a relation. A
// snapshot whose one section is not a relation encoding, such as one in an
// older release's format, is quarantined like a corrupt one.
func (s *Store) LoadRelation(fp [32]byte) (*table.Relation, error) {
	_, secs, err := s.readSnapshot(fp)
	if err != nil {
		return nil, err
	}
	path := s.snapPath(fp)
	var rel *table.Relation
	if len(secs) == 1 && secs[0].kind == secSnapRelation {
		rel, err = table.DecodeRelation(secs[0].payload)
	} else {
		err = fmt.Errorf("store: snapshot %s: not one relation section", filepath.Base(path))
	}
	if err != nil {
		// The CRCs and the content address hold, so the file is what was
		// published, but not as this release encodes a relation: an older
		// format, an encoder bug or a forged push. Never serve it.
		s.quarantine(path)
		return nil, err
	}
	return rel, nil
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
	data, _, err := s.readSnapshot(fp)
	if err != nil {
		return nil, KindUnknown, err
	}
	return data, KindSnapshot, nil
}

// Ingest verifies and publishes a snapshot or session record a peer sent.
// The claimed fingerprint must match the content: for snapshots the content
// hash, for session records the base fingerprint in the meta section.
// Ingesting a file that already exists is a no-op. Result files are
// refused: the result cache owns its directory and its bound, so a pushed
// result file goes into the cache instead.
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

package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/table"
)

func censusInput(hh int, seed int64) core.Input {
	d := census.Generate(census.Config{Households: hh, Areas: 6, Seed: seed})
	return core.Input{
		R1: d.Persons, R2: d.Housing,
		K1: "pid", K2: "hid", FK: "hid",
		CCs: d.GoodCCs(8), DCs: census.AllDCs(),
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func relationsEqual(a, b *table.Relation) bool {
	if a.Name != b.Name || !a.Schema().Equal(b.Schema()) || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < a.Schema().Len(); j++ {
			if a.At(i, j) != b.At(i, j) {
				return false
			}
		}
	}
	return true
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	in := censusInput(30, 3)

	fp1, err := s.PutRelation(in.R1)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := s.PutRelation(in.R2)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp2 {
		t.Fatal("distinct relations share a fingerprint")
	}
	// Content addressing: putting an equal relation dedups to one file.
	fp1b, err := s.PutRelation(in.R1.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if fp1b != fp1 {
		t.Fatal("equal relations got different fingerprints")
	}
	if st := s.Stats(); st.Snapshots != 2 {
		t.Fatalf("want 2 snapshot files, have %d", st.Snapshots)
	}

	for _, c := range []struct {
		fp  [32]byte
		rel *table.Relation
	}{{fp1, in.R1}, {fp2, in.R2}} {
		back, err := s.LoadRelation(c.fp)
		if err != nil {
			t.Fatal(err)
		}
		if !relationsEqual(back, c.rel) {
			t.Fatalf("loaded %s differs", c.rel.Name)
		}
	}
}

// TestPutRelationRefusesRowsWithoutColumns: no byte of the encoding of
// rows without columns bounds their count, so such a snapshot is neither
// written nor, when planted, loaded.
func TestPutRelationRefusesRowsWithoutColumns(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	r := table.NewRelation("z", table.NewSchema())
	r.MustAppend()
	if _, err := s.PutRelation(r); err == nil {
		t.Fatal("wrote a snapshot of rows without columns")
	}
	if st := s.Stats(); st.Snapshots != 0 {
		t.Fatalf("%d snapshot files after a refused put", st.Snapshots)
	}
	fp, err := s.PutRelation(table.NewRelation("z", table.NewSchema()))
	if err != nil {
		t.Fatalf("empty columnless relation: %v", err)
	}
	if got, err := s.LoadRelation(fp); err != nil || got.Len() != 0 {
		t.Fatalf("empty columnless relation loaded as %v, %v", got, err)
	}
	fp = plantSnapshot(t, s, table.AppendRelation(nil, r, nil))
	if _, err := s.LoadRelation(fp); err == nil || !strings.Contains(err.Error(), "no columns") {
		t.Fatalf("LoadRelation of rows without columns: got %v", err)
	}
}

func makeRecord(t *testing.T, s *Store, in core.Input, opt core.Options) *SessionRecord {
	t.Helper()
	baseFP, err := core.Fingerprint(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.CompilePlan(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	r1fp, err := s.PutRelation(in.R1)
	if err != nil {
		t.Fatal(err)
	}
	r2fp, err := s.PutRelation(in.R2)
	if err != nil {
		t.Fatal(err)
	}
	return &SessionRecord{
		BaseFP: baseFP, SFP: pl.Key(), R1FP: r1fp, R2FP: r2fp,
		K1: in.K1, K2: in.K2, FK: in.FK,
		Opt: opt, CCs: in.CCs, DCs: in.DCs, Plan: pl,
	}
}

// TestSessionRecordRoundTrip: the record must reconstruct an input whose
// content fingerprint equals the persisted base fingerprint — the property
// the restore path stakes correctness on.
func TestSessionRecordRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	in := censusInput(30, 5)
	opt := core.Options{Seed: 7, Mode: core.ModeHybrid, NoMarginals: true}
	rec := makeRecord(t, s, in, opt)
	if err := s.PutSession(rec); err != nil {
		t.Fatal(err)
	}

	got, err := s.LoadSession(rec.BaseFP)
	if err != nil {
		t.Fatal(err)
	}
	if got.BaseFP != rec.BaseFP || got.SFP != rec.SFP || got.R1FP != rec.R1FP || got.R2FP != rec.R2FP {
		t.Fatal("fingerprints did not round-trip")
	}
	if got.K1 != in.K1 || got.K2 != in.K2 || got.FK != in.FK {
		t.Fatal("key columns did not round-trip")
	}
	if !reflect.DeepEqual(got.Opt, rec.Opt) {
		t.Fatalf("options did not round-trip: %+v vs %+v", got.Opt, rec.Opt)
	}
	if got.Plan == nil || got.Plan.Key() != rec.Plan.Key() {
		t.Fatal("plan did not round-trip")
	}

	// Reconstruct the instance from stored parts and re-fingerprint it.
	r1, err := s.LoadRelation(got.R1FP)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.LoadRelation(got.R2FP)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := core.Input{R1: r1, R2: r2, K1: got.K1, K2: got.K2, FK: got.FK, CCs: got.CCs, DCs: got.DCs}
	fp, err := core.Fingerprint(rebuilt, got.Opt)
	if err != nil {
		t.Fatal(err)
	}
	if fp != rec.BaseFP {
		t.Fatal("reconstructed instance fingerprint differs from persisted base fingerprint")
	}

	fps, err := s.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 1 || fps[0] != rec.BaseFP {
		t.Fatalf("Sessions() = %x", fps)
	}

	// A record without a plan round-trips too.
	rec2 := *rec
	rec2.Plan = nil
	rec2.SFP = [32]byte{}
	if err := s.PutSession(&rec2); err != nil {
		t.Fatal(err)
	}
	got2, err := s.LoadSession(rec2.BaseFP)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Plan != nil {
		t.Fatal("nil plan decoded as non-nil")
	}
}

// TestFaultInjection is the crash-recovery discipline test: for a valid
// snapshot file and a valid session file, EVERY truncation length and EVERY
// single-byte corruption must either load the intact content or fail
// cleanly — never decode into different bytes. Failures must quarantine the
// file so it is not parsed again.
func TestFaultInjection(t *testing.T) {
	base := mustOpen(t, t.TempDir())
	in := censusInput(12, 9)
	opt := core.Options{Seed: 2}
	rec := makeRecord(t, base, in, opt)
	if err := base.PutSession(rec); err != nil {
		t.Fatal(err)
	}
	snapImg, err := os.ReadFile(base.snapPath(rec.R1FP))
	if err != nil {
		t.Fatal(err)
	}
	sessImg, err := os.ReadFile(base.sessPath(rec.BaseFP))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s := mustOpen(t, dir)
	snapPath := s.snapPath(rec.R1FP)
	sessPath := s.sessPath(rec.BaseFP)

	plant := func(path string, img []byte) {
		t.Helper()
		// Clear any quarantined leftover from the previous iteration.
		os.Remove(path)
		os.Remove(path + corruptExt)
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Truncation at every boundary: a torn tail must never load.
	for cut := 0; cut < len(snapImg); cut += 7 {
		plant(snapPath, snapImg[:cut])
		if _, err := s.LoadRelation(rec.R1FP); err == nil {
			t.Fatalf("snapshot truncated to %d bytes loaded without error", cut)
		}
		if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
			t.Fatalf("snapshot truncated to %d bytes was not quarantined", cut)
		}
	}
	for cut := 0; cut < len(sessImg); cut += 7 {
		plant(sessPath, sessImg[:cut])
		if _, err := s.LoadSession(rec.BaseFP); err == nil {
			t.Fatalf("session truncated to %d bytes loaded without error", cut)
		}
	}

	// Single-byte corruption at every offset.
	for off := 0; off < len(snapImg); off++ {
		mut := bytes.Clone(snapImg)
		mut[off] ^= 0x5a
		plant(snapPath, mut)
		got, err := s.LoadRelation(rec.R1FP)
		if err == nil && !relationsEqual(got, in.R1) {
			t.Fatalf("snapshot with corrupt byte %d served wrong content", off)
		}
		if err == nil {
			t.Fatalf("snapshot with corrupt byte %d loaded (CRC or fingerprint should catch any flip)", off)
		}
	}
	for off := 0; off < len(sessImg); off++ {
		mut := bytes.Clone(sessImg)
		mut[off] ^= 0x5a
		plant(sessPath, mut)
		if _, err := s.LoadSession(rec.BaseFP); err == nil {
			t.Fatalf("session with corrupt byte %d loaded (CRC should catch any flip)", off)
		}
	}

	if st := s.Stats(); st.CorruptFiles == 0 {
		t.Fatal("corrupt loads were not counted")
	}

	// Intact images still load in the same store after all that.
	plant(snapPath, snapImg)
	if got, err := s.LoadRelation(rec.R1FP); err != nil || !relationsEqual(got, in.R1) {
		t.Fatalf("intact snapshot failed to load: %v", err)
	}
	plant(sessPath, sessImg)
	if _, err := s.LoadSession(rec.BaseFP); err != nil {
		t.Fatalf("intact session failed to load: %v", err)
	}
}

// TestOpenSweepsTempFiles: a crash mid-publish leaves only temp files;
// Open removes them and leaves published data alone.
func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	in := censusInput(10, 1)
	fp, err := s.PutRelation(in.R1)
	if err != nil {
		t.Fatal(err)
	}
	tornA := filepath.Join(s.snapDir(), ".tmp-123456")
	tornB := filepath.Join(s.sessDir(), ".tmp-999999")
	for _, p := range []string{tornA, tornB} {
		if err := os.WriteFile(p, []byte("torn write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2 := mustOpen(t, dir)
	for _, p := range []string{tornA, tornB} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("temp file %s survived Open", p)
		}
	}
	if got, err := s2.LoadRelation(fp); err != nil || !relationsEqual(got, in.R1) {
		t.Fatalf("published snapshot lost: %v", err)
	}
}

// TestStatsCacheBytesCountResultFilesOnly: only .res files are result-cache
// entries, so a quarantined result file, an older release's cache log and
// a temp file under cache/ add nothing to CacheBytes.
func TestStatsCacheBytesCountResultFilesOnly(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	for _, f := range []struct {
		name string
		size int
	}{
		{strings.Repeat("ab", 32) + ".res", 100},
		{strings.Repeat("cd", 32) + ".res.corrupt", 200},
		{"cache.aol", 400},
		{".tmp-123456", 800},
	} {
		if err := os.WriteFile(filepath.Join(s.CacheDir(), f.name), make([]byte, f.size), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().CacheBytes; got != 100 {
		t.Errorf("CacheBytes = %d, want 100 (the .res file alone)", got)
	}
}

// TestIngest: the handoff receive path verifies the claimed fingerprint
// before publishing, and rejects mismatches and garbage.
func TestIngest(t *testing.T) {
	src := mustOpen(t, t.TempDir())
	dst := mustOpen(t, t.TempDir())
	in := censusInput(15, 4)
	opt := core.Options{Seed: 3}
	rec := makeRecord(t, src, in, opt)
	if err := src.PutSession(rec); err != nil {
		t.Fatal(err)
	}

	for _, fp := range [][32]byte{rec.R1FP, rec.R2FP, rec.BaseFP} {
		data, kind, err := src.ReadFile(fp)
		if err != nil {
			t.Fatal(err)
		}
		gotKind, err := dst.Ingest(fp, data)
		if err != nil {
			t.Fatal(err)
		}
		if gotKind != kind {
			t.Fatalf("ingest kind %v, read kind %v", gotKind, kind)
		}
	}
	if got, err := dst.LoadRelation(rec.R1FP); err != nil || !relationsEqual(got, in.R1) {
		t.Fatalf("ingested snapshot: %v", err)
	}
	if _, err := dst.LoadSession(rec.BaseFP); err != nil {
		t.Fatalf("ingested session: %v", err)
	}

	// Claimed fingerprint must match content.
	data, _, err := src.ReadFile(rec.R1FP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Ingest(rec.R2FP, data); err == nil {
		t.Fatal("snapshot ingested under wrong fingerprint")
	}
	if _, err := dst.Ingest(rec.R1FP, []byte("not a store file")); err == nil {
		t.Fatal("garbage ingested")
	}
	sess, _, err := src.ReadFile(rec.BaseFP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Ingest(rec.R2FP, sess); err == nil {
		t.Fatal("session ingested under wrong fingerprint")
	}

	// Unknown fingerprints are a clean miss.
	if _, _, err := src.ReadFile([32]byte{1, 2, 3}); err == nil {
		t.Fatal("unknown fingerprint served")
	}
}

// plantSnapshot publishes sections of the given kinds and payloads as a
// snapshot file under its content address, as a peer's push would: Ingest
// checks the framing and the address, not the payloads.
func plantSnapshot(t *testing.T, s *Store, payload []byte, kinds ...uint32) [32]byte {
	t.Helper()
	if len(kinds) == 0 {
		kinds = []uint32{secSnapRelation}
	}
	secs := make([]section, len(kinds))
	for i, k := range kinds {
		secs[i] = section{kind: k, payload: payload}
	}
	fp := snapshotFingerprint(secs)
	if _, err := s.Ingest(fp, buildFile(fileKindSnapshot, secs)); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	return fp
}

// TestLoadRelationRejectsDuplicateColumn: a peer can push a snapshot whose
// framing and content hash are sound but whose relation encoding names
// one column twice. Ingest accepts it; loading it fails with an error,
// never a panic, and quarantines the file.
func TestLoadRelationRejectsDuplicateColumn(t *testing.T) {
	r := table.NewRelation("R1", table.NewSchema(table.IntCol("aa"), table.StrCol("bb")))
	r.MustAppend(table.Int(1), table.String("x"))
	enc := table.AppendRelation(nil, r, nil)
	i := bytes.Index(enc, []byte("bb"))
	if i < 0 {
		t.Fatal("second column name not in the encoding")
	}
	copy(enc[i:], "aa")

	s := mustOpen(t, t.TempDir())
	fp := plantSnapshot(t, s, enc)
	before := s.CorruptFiles()
	if _, err := s.LoadRelation(fp); err == nil || !strings.Contains(err.Error(), "duplicate column") {
		t.Fatalf("LoadRelation: got %v, want a duplicate-column error", err)
	}
	if got := s.CorruptFiles(); got != before+1 {
		t.Fatalf("CorruptFiles = %d, want %d", got, before+1)
	}
	if _, err := s.LoadRelation(fp); err == nil {
		t.Fatal("quarantined snapshot loaded again")
	}
}

// TestLoadRelationRefusesOldFormat: a snapshot an older release wrote, a
// name section (kind 1) and a columnar one (kind 2), frames and sits under
// its content address, but is not a relation encoding. LoadRelation
// refuses it, quarantines it and counts it, so its base revives cold.
func TestLoadRelationRefusesOldFormat(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	in := censusInput(10, 2)
	enc := table.AppendRelation(nil, in.R2, nil)
	for _, kinds := range [][]uint32{{1, 2}, {secSnapRelation, secSnapRelation}, {secSnapRelation, 2}} {
		fp := plantSnapshot(t, s, enc, kinds...)
		before := s.CorruptFiles()
		if _, err := s.LoadRelation(fp); err == nil {
			t.Fatalf("sections %v: loaded", kinds)
		}
		if got := s.CorruptFiles(); got != before+1 {
			t.Fatalf("sections %v: CorruptFiles = %d, want %d", kinds, got, before+1)
		}
		if _, err := os.Stat(s.snapPath(fp)); !os.IsNotExist(err) {
			t.Fatalf("sections %v: snapshot not quarantined", kinds)
		}
	}
}

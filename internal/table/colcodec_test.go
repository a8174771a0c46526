package table

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// encodeToBytes is the test-side convenience wrapper.
func encodeToBytes(t *testing.T, c *Columnar) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := EncodeColumnar(c, &buf)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("encode reported %d bytes, wrote %d", n, buf.Len())
	}
	if n%8 != 0 {
		t.Fatalf("encoded length %d not 8-aligned", n)
	}
	return buf.Bytes()
}

// columnarsEquivalent compares two snapshots structurally: schema, rows,
// and per-column payloads including dictionaries, null masks, and posting
// lists.
func columnarsEquivalent(a, b *Columnar) error {
	if !a.schema.Equal(b.schema) {
		return fmt.Errorf("schemas differ")
	}
	if a.nrows != b.nrows {
		return fmt.Errorf("nrows %d vs %d", a.nrows, b.nrows)
	}
	for j := range a.cols {
		ca, cb := a.cols[j], b.cols[j]
		if (ca == nil) != (cb == nil) {
			return fmt.Errorf("col %d: capture mismatch", j)
		}
		if ca == nil {
			continue
		}
		if !reflect.DeepEqual(ca.raw, cb.raw) {
			return fmt.Errorf("col %d: raw mismatch", j)
		}
		if ca.raw != nil {
			continue
		}
		if !reflect.DeepEqual(ca.vals, cb.vals) {
			return fmt.Errorf("col %d: vals mismatch", j)
		}
		if !reflect.DeepEqual(ca.null, cb.null) {
			return fmt.Errorf("col %d: null mismatch", j)
		}
		if (ca.dict == nil) != (cb.dict == nil) {
			return fmt.Errorf("col %d: dict presence mismatch", j)
		}
		if ca.dict != nil && !reflect.DeepEqual(ca.dict.strs, cb.dict.strs) {
			return fmt.Errorf("col %d: dict mismatch", j)
		}
		if len(ca.post) != len(cb.post) {
			return fmt.Errorf("col %d: posting count mismatch", j)
		}
		for v, la := range ca.post {
			if !reflect.DeepEqual(la, cb.post[v]) {
				return fmt.Errorf("col %d: posting list for %d mismatch", j, v)
			}
		}
	}
	return nil
}

func TestColumnarCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		r := randomRelation(rng, iter%3 == 0)
		c := NewColumnar(r)
		enc := encodeToBytes(t, c)
		for _, alias := range []bool{false, true} {
			got, err := DecodeColumnar(enc, alias)
			if err != nil {
				t.Fatalf("iter %d alias=%v: decode: %v", iter, alias, err)
			}
			if err := columnarsEquivalent(c, got); err != nil {
				t.Fatalf("iter %d alias=%v: %v", iter, alias, err)
			}
		}
	}
}

// TestColumnarCodecCanonical: the same snapshot must always encode to the
// same bytes — the durable store names files by content hash.
func TestColumnarCodecCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		r := randomRelation(rng, false)
		a := encodeToBytes(t, NewColumnar(r))
		b := encodeToBytes(t, NewColumnar(r.Clone()))
		if !bytes.Equal(a, b) {
			t.Fatalf("iter %d: encoding not canonical", iter)
		}
	}
}

// TestColumnarCodecPartialCapture covers snapshots that captured only a
// subset of columns: the absent columns must round-trip as absent.
func TestColumnarCodecPartialCapture(t *testing.T) {
	r := NewRelation("p", NewSchema(IntCol("a"), StrCol("b"), IntCol("c")))
	r.MustAppend(Int(1), String("x"), Int(10))
	r.MustAppend(Int(2), String("y"), Int(20))
	c := NewColumnar(r, "a", "c")
	enc := encodeToBytes(t, c)
	got, err := DecodeColumnar(enc, false)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := columnarsEquivalent(c, got); err != nil {
		t.Fatal(err)
	}
	if got.cols[1] != nil {
		t.Fatal("uncaptured column decoded as captured")
	}
	if _, err := got.Relation("p"); err == nil {
		t.Fatal("Relation on partial snapshot should fail")
	}
}

// TestColumnarRelationLossless: a full-column snapshot decoded from bytes
// must materialize back into a cell-for-cell identical relation.
func TestColumnarRelationLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 100; iter++ {
		r := randomRelation(rng, iter%2 == 0)
		enc := encodeToBytes(t, NewColumnar(r))
		got, err := DecodeColumnar(enc, true)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		back, err := got.Relation(r.Name)
		if err != nil {
			t.Fatalf("iter %d: relation: %v", iter, err)
		}
		if back.Name != r.Name || !back.Schema().Equal(r.Schema()) || back.Len() != r.Len() {
			t.Fatalf("iter %d: shape mismatch", iter)
		}
		for i := 0; i < r.Len(); i++ {
			for j := 0; j < r.Schema().Len(); j++ {
				if back.At(i, j) != r.At(i, j) {
					t.Fatalf("iter %d: cell (%d,%d): got %v want %v", iter, i, j, back.At(i, j), r.At(i, j))
				}
			}
		}
	}
}

// TestColumnarDecodeRejectsCorruption: every truncation of a valid blob,
// and a byte flip at every offset, must fail cleanly — never decode into a
// plausible-but-wrong snapshot silently. (Byte flips in payload regions can
// legitimately decode — the store layer's CRC catches those — but flips in
// structural regions must not crash.)
func TestColumnarDecodeRejectsCorruption(t *testing.T) {
	r := NewRelation("g", NewSchema(IntCol("a"), StrCol("b")))
	for i := 0; i < 20; i++ {
		if i%5 == 0 {
			r.MustAppend(Null(), String(string(rune('a'+i%3))))
		} else {
			r.MustAppend(Int(int64(i%4)), String(string(rune('a'+i%3))))
		}
	}
	enc := encodeToBytes(t, NewColumnar(r))
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeColumnar(enc[:cut], false); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	for off := range enc {
		mut := bytes.Clone(enc)
		mut[off] ^= 0xff
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("byte flip at %d panicked: %v", off, p)
				}
			}()
			got, err := DecodeColumnar(mut, false)
			_ = got
			_ = err
		}()
	}
	if _, err := DecodeColumnar(append(bytes.Clone(enc), 0, 0, 0, 0, 0, 0, 0, 0), false); err == nil {
		t.Fatal("trailing bytes decoded without error")
	}
}

func TestColumnarCodecEmpty(t *testing.T) {
	r := NewRelation("e", NewSchema(IntCol("a"), StrCol("b")))
	enc := encodeToBytes(t, NewColumnar(r))
	got, err := DecodeColumnar(enc, true)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	back, err := got.Relation("e")
	if err != nil {
		t.Fatalf("relation: %v", err)
	}
	if back.Len() != 0 {
		t.Fatalf("got %d rows, want 0", back.Len())
	}
}

// dupColumnBlob encodes a two-column relation and rewrites the second
// column's name to the first's.
func dupColumnBlob(t testing.TB) []byte {
	t.Helper()
	r := NewRelation("d", NewSchema(IntCol("aa"), StrCol("bb")))
	r.MustAppend(Int(1), String("x"))
	var buf bytes.Buffer
	if _, err := EncodeColumnar(NewColumnar(r), &buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	i := bytes.Index(enc, []byte("bb"))
	if i < 0 {
		t.Fatal("second column name not in the blob")
	}
	copy(enc[i:], "aa")
	return enc
}

// TestColumnarDecodeDuplicateColumn: a blob that names one column twice
// is rejected with an error, not a panic.
func TestColumnarDecodeDuplicateColumn(t *testing.T) {
	enc := dupColumnBlob(t)
	for _, alias := range []bool{false, true} {
		if _, err := DecodeColumnar(enc, alias); err == nil || !strings.Contains(err.Error(), `duplicate column "aa"`) {
			t.Fatalf("alias=%v: got %v, want a duplicate-column error", alias, err)
		}
	}
}

// TestColumnarDecodeDictCodeOutOfRange: a dictionary-coded cell whose
// code lies past the dictionary is rejected at decode, so Relation never
// indexes past it. A null cell's code is not read.
func TestColumnarDecodeDictCodeOutOfRange(t *testing.T) {
	r := NewRelation("c", NewSchema(StrCol("s")))
	r.MustAppend(String("x"))
	r.MustAppend(Null())
	for _, tc := range []struct {
		row  int
		code int64
		ok   bool
	}{{0, 1, false}, {0, -1, false}, {1, 99, true}} {
		c := NewColumnar(r)
		c.cols[0].vals[tc.row] = tc.code
		_, err := DecodeColumnar(encodeToBytes(t, c), false)
		if (err == nil) != tc.ok {
			t.Fatalf("code %d in row %d: got %v, want ok=%v", tc.code, tc.row, err, tc.ok)
		}
	}
}

// TestColumnarCodecRowsWithoutColumns: a row count no column body bounds
// is neither encoded nor decoded, so a forged count can not make Relation
// allocate without limit.
func TestColumnarCodecRowsWithoutColumns(t *testing.T) {
	r := NewRelation("z", NewSchema())
	r.MustAppend()
	var buf bytes.Buffer
	if _, err := EncodeColumnar(NewColumnar(r), &buf); err == nil {
		t.Fatal("encoded a snapshot of rows without columns")
	}
	enc := encodeToBytes(t, NewColumnar(NewRelation("z", NewSchema())))
	if _, err := DecodeColumnar(enc, false); err != nil {
		t.Fatalf("empty columnless snapshot: %v", err)
	}
	binary.LittleEndian.PutUint64(enc[8:], 1<<35)
	if _, err := DecodeColumnar(enc, false); err == nil {
		t.Fatal("decoded 2^35 rows without columns")
	}
}

// FuzzDecodeColumnar feeds arbitrary bytes to the columnar decoder, with
// and without aliasing. It either decodes or returns an error, never
// panics, and a snapshot it returns materializes through Relation without
// a panic.
func FuzzDecodeColumnar(f *testing.F) {
	r := NewRelation("f", NewSchema(IntCol("i"), StrCol("s"), IntCol("n")))
	r.MustAppend(Int(-3), String("b"), Null())
	r.MustAppend(Null(), String("a"), Int(math.MaxInt64))
	r.MustAppend(Int(math.MinInt64), Null(), Int(0))
	r.MustAppend(Int(7), String("b"), Int(7))
	var seeds []*Columnar
	seeds = append(seeds, NewColumnar(r), NewColumnar(r, "s"), NewColumnar(NewRelation("e", NewSchema(StrCol("s")))))
	mixed := r.Clone()
	mixed.SetAt(0, 0, String("kind-mixed"))
	seeds = append(seeds, NewColumnar(mixed))
	for _, c := range seeds {
		var buf bytes.Buffer
		if _, err := EncodeColumnar(c, &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(dupColumnBlob(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, alias := range []bool{false, true} {
			c, err := DecodeColumnar(data, alias)
			if err != nil {
				continue
			}
			if rel, err := c.Relation("f"); err == nil && rel.Len() != c.Len() {
				t.Fatalf("alias=%v: relation of %d rows from a snapshot of %d", alias, rel.Len(), c.Len())
			}
		}
	})
}

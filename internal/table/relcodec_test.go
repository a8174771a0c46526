package table

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// sameRelation reports the first difference between two relations: name,
// schema, row count or a cell, compared by kind and payload.
func sameRelation(a, b *Relation) error {
	if a.Name != b.Name {
		return fmt.Errorf("name %q vs %q", a.Name, b.Name)
	}
	if !a.Schema().Equal(b.Schema()) {
		return fmt.Errorf("schema %v vs %v", a.Schema().Columns(), b.Schema().Columns())
	}
	if a.Len() != b.Len() {
		return fmt.Errorf("%d rows vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < a.Schema().Len(); j++ {
			if a.At(i, j) != b.At(i, j) {
				return fmt.Errorf("cell (%d,%d): %v vs %v", i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
	return nil
}

// codecCorners is one relation per corner of the encoding: nulls, int64
// extremes, non-ASCII, invalid UTF-8 and empty strings, an empty name,
// cells of the other kind than their column (as SetAt allows), zero rows
// and zero columns.
func codecCorners() []*Relation {
	r := NewRelation("corners ü", NewSchema(IntCol("i"), StrCol("s"), IntCol("n")))
	r.MustAppend(Int(math.MinInt64), String(""), Null())
	r.MustAppend(Int(math.MaxInt64), String("héllo 日本 \U0001F600"), Int(-1))
	r.MustAppend(Null(), String("\xff\xfe\x00"), Int(0))
	r.MustAppend(Int(127), Null(), Int(128))
	mixed := r.Clone()
	mixed.SetAt(0, 0, String("kind-mixed"))
	mixed.SetAt(1, 1, Int(-7))
	empty := NewRelation("", NewSchema(StrCol("s")))
	return []*Relation{r, mixed, empty, NewRelation("none", NewSchema())}
}

// roundTrip decodes r's encoding and reports how it differs from r.
func roundTrip(r *Relation) error {
	got, err := DecodeRelation(AppendRelation(nil, r, nil))
	if err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	return sameRelation(got, r)
}

// TestRelationCodecRoundTrip: random relations decode from their encoding
// to cell-for-cell equal relations.
func TestRelationCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		if err := roundTrip(randomRelation(rng, iter%3 == 0)); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

// TestDecodeRelationLossless: no cell is lost or altered on the way back,
// whatever its payload: nulls, int64 extremes, non-ASCII, invalid UTF-8 and
// empty strings, and cells of the other kind than their column, both at
// the corners and sprinkled through random relations.
func TestDecodeRelationLossless(t *testing.T) {
	for _, r := range codecCorners() {
		if err := roundTrip(r); err != nil {
			t.Fatalf("%q: %v", r.Name, err)
		}
	}
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 100; iter++ {
		if err := roundTrip(randomRelation(rng, iter%2 == 0)); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

// TestRelationCodecEmpty: a relation with no rows, with no columns or with
// an empty name decodes to the same empty relation.
func TestRelationCodecEmpty(t *testing.T) {
	for _, r := range []*Relation{
		NewRelation("e", NewSchema(IntCol("a"), StrCol("b"))),
		NewRelation("", NewSchema(StrCol("s"))),
		NewRelation("none", NewSchema()),
	} {
		got, err := DecodeRelation(AppendRelation(nil, r, nil))
		if err != nil {
			t.Fatalf("%q: decode: %v", r.Name, err)
		}
		if got.Len() != 0 {
			t.Fatalf("%q: got %d rows, want 0", r.Name, got.Len())
		}
		if err := sameRelation(got, r); err != nil {
			t.Fatalf("%q: %v", r.Name, err)
		}
	}
}

// TestRelationCodecCanonical: equal relations encode to equal bytes, since
// the store names snapshots by the hash of their bytes, and the pieces a
// flush drains join up to the whole encoding.
func TestRelationCodecCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		r := randomRelation(rng, iter%2 == 0)
		whole := AppendRelation(nil, r, nil)
		if !bytes.Equal(whole, AppendRelation(nil, r.Clone(), nil)) {
			t.Fatalf("iter %d: encoding not canonical", iter)
		}
		var drained []byte
		rest := AppendRelation(nil, r, func(buf []byte) []byte {
			drained = append(drained, buf...)
			return buf[:0]
		})
		if !bytes.Equal(append(drained, rest...), whole) {
			t.Fatalf("iter %d: the drained pieces differ from the encoding", iter)
		}
	}
}

// TestDecodeRelationRejectsCorruption: every truncation of an encoding and
// trailing bytes after it fail, and no byte flip panics. A flip in a cell
// may decode to another relation; the store's CRCs catch those.
func TestDecodeRelationRejectsCorruption(t *testing.T) {
	for _, r := range codecCorners() {
		enc := AppendRelation(nil, r, nil)
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeRelation(enc[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d of %d decoded", r.Name, cut, len(enc))
			}
		}
		if _, err := DecodeRelation(append(bytes.Clone(enc), 0)); err == nil {
			t.Fatalf("%s: trailing byte decoded", r.Name)
		}
		for off := range enc {
			for _, mask := range []byte{0x01, 0x80, 0xff} {
				mut := bytes.Clone(enc)
				mut[off] ^= mask
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("%s: flip %#x at %d panicked: %v", r.Name, mask, off, p)
						}
					}()
					DecodeRelation(mut)
				}()
			}
		}
	}
}

// TestDecodeRelationDuplicateColumn: an encoding that names one column
// twice is rejected with an error, not a panic.
func TestDecodeRelationDuplicateColumn(t *testing.T) {
	enc := dupColumnEncoding(t)
	if _, err := DecodeRelation(enc); err == nil || !strings.Contains(err.Error(), `duplicate column "aa"`) {
		t.Fatalf("got %v, want a duplicate-column error", err)
	}
}

// dupColumnEncoding encodes a two-column relation and renames its second
// column to the first's.
func dupColumnEncoding(t testing.TB) []byte {
	t.Helper()
	r := NewRelation("d", NewSchema(IntCol("aa"), StrCol("bb")))
	r.MustAppend(Int(1), String("x"))
	enc := AppendRelation(nil, r, nil)
	i := bytes.Index(enc, []byte("bb"))
	if i < 0 {
		t.Fatal("second column name not in the encoding")
	}
	copy(enc[i:], "aa")
	return enc
}

// TestDecodeRelationBoundsCounts: rows without columns, and any count the
// bytes left cannot hold, fail before the decoder allocates for them; so
// do a varint longer than it needs to be, an unknown column type and an
// unknown cell kind.
func TestDecodeRelationBoundsCounts(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		enc  []byte
		want string
	}{
		{"rows without columns", uv(1, 'z', 0, 1<<35), "rows but no columns"},
		{"row count", append(uv(1, 'z', 1, 1, 'a', 0, 1<<35), uv(1, 5)...), "items"},
		{"column count", uv(0, 1<<40), "items"},
		{"name length", uv(1 << 40), "items"},
		{"string cell length", uv(0, 1, 1, 's', 1, 1, 2, 1<<40), "items"},
		{"long varint", []byte{0, 0, 0x81, 0x00}, "bad varint"},
		{"column type", uv(0, 1, 1, 'c', 2, 0), "unknown type"},
		{"cell kind", uv(0, 1, 1, 'c', 0, 1, 3), "unknown kind"},
		{"cell kind past a byte", uv(0, 1, 1, 'c', 0, 1, 256), "unknown kind"},
	} {
		if _, err := DecodeRelation(tc.enc); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if r, err := DecodeRelation(uv(1, 'z', 0, 0)); err != nil || r.Len() != 0 {
		t.Fatalf("no rows and no columns: %v, %v", r, err)
	}
}

// FuzzDecodeRelation feeds arbitrary bytes to the relation decoder, which
// reads the snapshots a peer may push. It decodes or fails without a
// panic, and an accepted relation re-encodes to the bytes it came from,
// which decode to an equal relation: each relation has one encoding.
func FuzzDecodeRelation(f *testing.F) {
	for _, r := range codecCorners() {
		f.Add(AppendRelation(nil, r, nil))
	}
	f.Add(dupColumnEncoding(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRelation(data)
		if err != nil {
			return
		}
		enc := AppendRelation(nil, r, nil)
		if !bytes.Equal(enc, data) {
			t.Fatalf("an accepted relation re-encodes to other bytes:\n got %x\nwant %x", enc, data)
		}
		again, err := DecodeRelation(enc)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if err := sameRelation(again, r); err != nil {
			t.Fatalf("re-encoding decodes to another relation: %v", err)
		}
	})
}

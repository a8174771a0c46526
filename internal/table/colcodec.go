package table

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"unsafe"
)

// This file implements the binary snapshot codec for Columnar: a compact,
// versioned, deterministic encoding of every captured column — dictionaries,
// null masks, typed payloads, posting lists, raw fallbacks — designed so a
// decoder can alias the large arrays straight out of a memory-mapped file
// instead of copying them. All variable-length fields are length-prefixed
// and all aliasable arrays are 8-byte aligned relative to the start of the
// encoding, so a blob placed at an 8-aligned file offset maps zero-copy.
//
// The encoding is canonical: one Columnar always encodes to the same bytes
// (posting lists are written in ascending value order), which lets the
// durable store name snapshot files by the SHA-256 of their contents.

// colMagic versions the Columnar blob encoding. Bump it whenever the layout
// changes shape so a stale snapshot file can never decode into wrong data.
var colMagic = [8]byte{'L', 'S', 'C', 'O', 'L', 'B', '1', '\n'}

// Column body kinds in the encoded stream.
const (
	encAbsent uint8 = iota // column not captured
	encInt                 // typed int64 payload
	encDict                // dictionary-coded string payload
	encRaw                 // kind-mixed raw Value fallback
)

// hostLittleEndian reports whether the running host stores integers
// little-endian — the byte order of the encoding. On big-endian hosts the
// decoder copies instead of aliasing.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

type colEnc struct {
	w   io.Writer
	off int64
	err error
	buf [8]byte
}

func (e *colEnc) bytes(b []byte) {
	if e.err != nil {
		return
	}
	n, err := e.w.Write(b)
	e.off += int64(n)
	e.err = err
}

func (e *colEnc) u8(v uint8) { e.bytes([]byte{v}) }

func (e *colEnc) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	e.bytes(e.buf[:4])
}

func (e *colEnc) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	e.bytes(e.buf[:8])
}

func (e *colEnc) i64(v int64) { e.u64(uint64(v)) }

// str writes a length-prefixed string.
func (e *colEnc) str(s string) {
	e.u32(uint32(len(s)))
	e.bytes([]byte(s))
}

var zeroPad [8]byte

// pad8 advances the stream to the next 8-byte boundary.
func (e *colEnc) pad8() {
	if rem := e.off % 8; rem != 0 {
		e.bytes(zeroPad[:8-rem])
	}
}

// EncodeColumnar writes the canonical binary form of the snapshot to w and
// returns the number of bytes written. The byte stream is self-delimiting:
// DecodeColumnar consumes exactly what EncodeColumnar produced. A snapshot
// with rows but no columns has no encoding, since no column body would
// bound its row count; EncodeColumnar refuses it.
func EncodeColumnar(c *Columnar, w io.Writer) (int64, error) {
	if c.schema.Len() == 0 && c.nrows > 0 {
		return 0, fmt.Errorf("table: columnar snapshot of %d rows has no columns to carry them", c.nrows)
	}
	e := &colEnc{w: w}
	e.bytes(colMagic[:])
	e.u64(uint64(c.nrows))
	e.u32(uint32(c.schema.Len()))
	e.u32(0) // reserved
	for j := 0; j < c.schema.Len(); j++ {
		col := c.schema.Col(j)
		e.str(col.Name)
		e.u8(uint8(col.Type))
		e.u8(encKindOf(c.cols[j]))
	}
	for j := 0; j < c.schema.Len(); j++ {
		d := c.cols[j]
		if d == nil {
			continue
		}
		switch encKindOf(d) {
		case encRaw:
			encodeRawCol(e, d)
		default:
			encodeTypedCol(e, d)
		}
	}
	e.pad8()
	return e.off, e.err
}

func encKindOf(d *colData) uint8 {
	switch {
	case d == nil:
		return encAbsent
	case d.raw != nil:
		return encRaw
	case d.dict != nil:
		return encDict
	default:
		return encInt
	}
}

func encodeTypedCol(e *colEnc, d *colData) {
	if d.dict != nil {
		e.u32(uint32(len(d.dict.strs)))
		for _, s := range d.dict.strs {
			e.str(s)
		}
	}
	hasNull := uint8(0)
	if d.null != nil {
		hasNull = 1
	}
	e.u8(hasNull)
	e.pad8()
	if hostLittleEndian && len(d.vals) > 0 {
		e.bytes(unsafe.Slice((*byte)(unsafe.Pointer(&d.vals[0])), len(d.vals)*8))
	} else {
		for _, v := range d.vals {
			e.i64(v)
		}
	}
	if d.null != nil {
		e.bytes(boolsAsBytes(d.null))
		e.pad8()
	}
	// Posting lists, ascending by value so the encoding is canonical. The
	// per-value table carries (value, count) pairs; the row-id backing
	// array follows, 8-aligned, carved in the same order.
	vals := make([]int64, 0, len(d.post))
	for v := range d.post {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	e.u32(uint32(len(vals)))
	total := 0
	for _, v := range vals {
		e.i64(v)
		e.u32(uint32(len(d.post[v])))
		total += len(d.post[v])
	}
	e.pad8()
	if hostLittleEndian && total > 0 {
		for _, v := range vals {
			sl := d.post[v]
			e.bytes(unsafe.Slice((*byte)(unsafe.Pointer(&sl[0])), len(sl)*4))
		}
	} else {
		for _, v := range vals {
			for _, r := range d.post[v] {
				e.u32(uint32(r))
			}
		}
	}
	e.pad8()
}

func encodeRawCol(e *colEnc, d *colData) {
	for _, v := range d.raw {
		e.u8(uint8(v.Kind()))
		switch v.Kind() {
		case KindInt:
			e.i64(v.Int())
		case KindString:
			e.str(v.Str())
		}
	}
	e.pad8()
}

func boolsAsBytes(b []bool) []byte {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), len(b))
}

// colDec is the decoding cursor over one encoded blob.
type colDec struct {
	data  []byte
	off   int
	alias bool
}

var errShortBlob = fmt.Errorf("table: columnar blob truncated")

// remaining reports how many bytes are left; count-prefixed sections are
// checked against it before allocating, so a corrupted count fails cleanly
// instead of attempting an enormous allocation.
func (d *colDec) remaining() int { return len(d.data) - d.off }

func (d *colDec) take(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.data) {
		return nil, errShortBlob
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *colDec) u8() (uint8, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *colDec) u32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *colDec) u64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *colDec) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	b, err := d.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil // copies: decoded strings never alias the blob
}

func (d *colDec) pad8() error {
	if rem := d.off % 8; rem != 0 {
		_, err := d.take(8 - rem)
		return err
	}
	return nil
}

// int64s returns n decoded int64 values, aliasing the blob when permitted
// and the host byte order matches the encoding.
func (d *colDec) int64s(n int) ([]int64, error) {
	b, err := d.take(n * 8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return []int64{}, nil
	}
	if d.alias && hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

// int32s returns n decoded int32 values (the posting backing array).
func (d *colDec) int32s(n int) ([]int32, error) {
	b, err := d.take(n * 4)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return []int32{}, nil
	}
	if d.alias && hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

// bools returns n decoded bools (a null mask), aliasing when permitted.
func (d *colDec) bools(n int) ([]bool, error) {
	b, err := d.take(n)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return []bool{}, nil
	}
	for _, v := range b {
		if v > 1 {
			return nil, fmt.Errorf("table: columnar blob: null mask byte %d out of range", v)
		}
	}
	if d.alias {
		return unsafe.Slice((*bool)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = b[i] == 1
	}
	return out, nil
}

// DecodeColumnar reconstructs a snapshot from data, which must hold exactly
// one encoded blob (as produced by EncodeColumnar). With alias set, the
// large arrays — typed payloads, null masks, posting row ids — point into
// data instead of being copied; the caller then guarantees data stays valid
// and unmodified (e.g. a memory-mapped, immutable snapshot file) for the
// lifetime of the returned Columnar. Dictionaries and raw values are always
// copied. Any structural inconsistency, a repeated column name or a
// dictionary code past its dictionary among them, fails with an error;
// DecodeColumnar never returns a partially decoded snapshot, and one it
// returns materializes through Relation.
func DecodeColumnar(data []byte, alias bool) (*Columnar, error) {
	d := &colDec{data: data, alias: alias}
	magic, err := d.take(8)
	if err != nil {
		return nil, err
	}
	if string(magic) != string(colMagic[:]) {
		return nil, fmt.Errorf("table: columnar blob: bad magic %q", magic)
	}
	nrows64, err := d.u64()
	if err != nil {
		return nil, err
	}
	if nrows64 > 1<<40 {
		return nil, fmt.Errorf("table: columnar blob: implausible row count %d", nrows64)
	}
	nrows := int(nrows64)
	ncols, err := d.u32()
	if err != nil {
		return nil, err
	}
	if _, err := d.u32(); err != nil { // reserved
		return nil, err
	}
	if int(ncols)*6 > d.remaining() { // name prefix + type + kind each
		return nil, errShortBlob
	}
	cols := make([]Column, ncols)
	kinds := make([]uint8, ncols)
	for j := range cols {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		typ, err := d.u8()
		if err != nil {
			return nil, err
		}
		if Type(typ) != TypeInt && Type(typ) != TypeString {
			return nil, fmt.Errorf("table: columnar blob: column %q: unknown type %d", name, typ)
		}
		k, err := d.u8()
		if err != nil {
			return nil, err
		}
		if k > encRaw {
			return nil, fmt.Errorf("table: columnar blob: column %q: unknown body kind %d", name, k)
		}
		cols[j] = Column{Name: name, Type: Type(typ)}
		kinds[j] = k
	}
	if ncols == 0 && nrows > 0 {
		// No column body carries the row count, so it is unbounded by the
		// blob's size; EncodeColumnar refuses such a snapshot.
		return nil, fmt.Errorf("table: columnar blob: %d rows but no columns", nrows)
	}
	schema, err := MakeSchema(cols...)
	if err != nil {
		return nil, err
	}
	c := &Columnar{schema: schema, nrows: nrows, cols: make([]*colData, ncols)}
	for j := range cols {
		switch kinds[j] {
		case encAbsent:
		case encRaw:
			cd, err := decodeRawCol(d, nrows)
			if err != nil {
				return nil, fmt.Errorf("table: columnar blob: column %q: %w", cols[j].Name, err)
			}
			c.cols[j] = cd
		default:
			cd, err := decodeTypedCol(d, nrows, kinds[j] == encDict)
			if err != nil {
				return nil, fmt.Errorf("table: columnar blob: column %q: %w", cols[j].Name, err)
			}
			c.cols[j] = cd
		}
	}
	if err := d.pad8(); err != nil {
		return nil, err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("table: columnar blob: %d trailing bytes", len(data)-d.off)
	}
	return c, nil
}

func decodeTypedCol(d *colDec, nrows int, hasDict bool) (*colData, error) {
	cd := &colData{}
	if hasDict {
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		if int(n)*4 > d.remaining() { // each entry carries at least a length prefix
			return nil, errShortBlob
		}
		dict := &Dict{strs: make([]string, n), code: make(map[string]int64, n)}
		for i := range dict.strs {
			s, err := d.str()
			if err != nil {
				return nil, err
			}
			dict.strs[i] = s
			dict.code[s] = int64(i)
		}
		if !sort.StringsAreSorted(dict.strs) || len(dict.code) != len(dict.strs) {
			return nil, fmt.Errorf("dictionary not sorted and distinct")
		}
		cd.dict = dict
	}
	hasNull, err := d.u8()
	if err != nil {
		return nil, err
	}
	if err := d.pad8(); err != nil {
		return nil, err
	}
	if cd.vals, err = d.int64s(nrows); err != nil {
		return nil, err
	}
	if hasNull == 1 {
		if cd.null, err = d.bools(nrows); err != nil {
			return nil, err
		}
		if err := d.pad8(); err != nil {
			return nil, err
		}
	}
	if cd.dict != nil {
		// Every non-null cell must name a dictionary entry, or Relation
		// would index past the dictionary.
		for i, v := range cd.vals {
			if (cd.null == nil || !cd.null[i]) && (v < 0 || v >= int64(len(cd.dict.strs))) {
				return nil, fmt.Errorf("row %d: dictionary code %d out of range", i, v)
			}
		}
	}
	ndistinct, err := d.u32()
	if err != nil {
		return nil, err
	}
	if int(ndistinct) > nrows {
		return nil, fmt.Errorf("posting table larger than row count")
	}
	if int(ndistinct)*12 > d.remaining() { // 8-byte value + 4-byte count each
		return nil, errShortBlob
	}
	pvals := make([]int64, ndistinct)
	pcnts := make([]int, ndistinct)
	total := 0
	for i := range pvals {
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		cnt, err := d.u32()
		if err != nil {
			return nil, err
		}
		pvals[i] = int64(v)
		pcnts[i] = int(cnt)
		total += int(cnt)
	}
	if total > nrows {
		return nil, fmt.Errorf("posting lists cover %d rows, snapshot has %d", total, nrows)
	}
	if err := d.pad8(); err != nil {
		return nil, err
	}
	backing, err := d.int32s(total)
	if err != nil {
		return nil, err
	}
	if err := d.pad8(); err != nil {
		return nil, err
	}
	cd.post = make(map[int64][]int32, ndistinct)
	off := 0
	for i, v := range pvals {
		if _, dup := cd.post[v]; dup {
			return nil, fmt.Errorf("duplicate posting value %d", v)
		}
		list := backing[off : off+pcnts[i]]
		for _, r := range list {
			if r < 0 || int(r) >= nrows {
				return nil, fmt.Errorf("posting row id %d out of range", r)
			}
		}
		cd.post[v] = list
		off += pcnts[i]
	}
	return cd, nil
}

func decodeRawCol(d *colDec, nrows int) (*colData, error) {
	if nrows > d.remaining() { // each raw value carries at least a kind byte
		return nil, errShortBlob
	}
	cd := &colData{raw: make([]Value, nrows)}
	for i := range cd.raw {
		k, err := d.u8()
		if err != nil {
			return nil, err
		}
		switch Kind(k) {
		case KindNull:
			cd.raw[i] = Null()
		case KindInt:
			v, err := d.u64()
			if err != nil {
				return nil, err
			}
			cd.raw[i] = Int(int64(v))
		case KindString:
			s, err := d.str()
			if err != nil {
				return nil, err
			}
			cd.raw[i] = String(s)
		default:
			return nil, fmt.Errorf("unknown value kind %d", k)
		}
	}
	return cd, d.pad8()
}

// Relation materializes the snapshot back into a mutable row-store relation
// with the given name. It requires every column captured; the result is
// cell-for-cell identical to the relation the snapshot was built from, so a
// full-column snapshot is a lossless relation encoding. The returned
// relation owns its rows — it never aliases the snapshot (or its backing
// file), so the snapshot may be unmapped once Relation returns.
func (c *Columnar) Relation(name string) (*Relation, error) {
	for j := 0; j < c.schema.Len(); j++ {
		if c.cols[j] == nil {
			return nil, fmt.Errorf("table: snapshot column %q was not captured", c.schema.Col(j).Name)
		}
	}
	r := NewRelation(name, c.schema)
	r.rows = make([][]Value, c.nrows)
	for i := 0; i < c.nrows; i++ {
		// Rows are rebuilt directly rather than via Append: raw columns
		// legitimately hold kind-mixed cells that Append would reject.
		row := make([]Value, c.schema.Len())
		for j := range row {
			d := c.cols[j]
			switch {
			case d.raw != nil:
				row[j] = d.raw[i]
			case d.null != nil && d.null[i]:
				row[j] = Null()
			case d.dict != nil:
				row[j] = String(d.dict.Str(d.vals[i]))
			default:
				row[j] = Int(d.vals[i])
			}
		}
		r.rows[i] = row
	}
	return r, nil
}

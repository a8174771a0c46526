package table

import (
	"encoding/binary"
	"fmt"
)

// This file holds the one binary encoding of a relation: its name, its
// schema, its row count, then every cell in row-major order. The instance
// fingerprint hashes it and the durable store keeps it as a relation
// snapshot. Counts, lengths, column types and cell kinds are unsigned
// varints; a string is its length and bytes; an int cell is its kind and
// the varint of its bits as a uint64, a string cell its kind and string,
// and a null cell its kind alone. Every cell carries its kind, so no two
// distinct relations share an encoding, kind-mixed cells included, and
// with minimal varints each relation has exactly one.

// AppendRelation appends the encoding of r to dst and returns the extended
// buffer. After each row it passes the buffer to flush, when flush is not
// nil, and goes on appending to what flush returns, so a caller that
// hashes the encoding can drain it as it grows instead of holding all of
// it.
func AppendRelation(dst []byte, r *Relation, flush func([]byte) []byte) []byte {
	dst = appendString(dst, r.Name)
	dst = binary.AppendUvarint(dst, uint64(r.schema.Len()))
	for _, c := range r.schema.cols {
		dst = appendString(dst, c.Name)
		dst = binary.AppendUvarint(dst, uint64(c.Type))
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.rows)))
	for _, row := range r.rows {
		for _, v := range row {
			dst = binary.AppendUvarint(dst, uint64(v.kind))
			switch v.kind {
			case KindInt:
				dst = binary.AppendUvarint(dst, uint64(v.i))
			case KindString:
				dst = appendString(dst, v.s)
			}
		}
		if flush != nil {
			dst = flush(dst)
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeRelation decodes the relation that AppendRelation encoded into
// exactly data. It checks every count against the bytes left before it
// allocates, and fails with an error, never a partial relation, on a
// truncation, trailing bytes, a varint longer than it needs to be, an
// unknown column type or cell kind, a repeated column name, or rows
// without columns, whose count no byte bounds. A cell need not match its
// column's type, as Relation.SetAt allows. The decoded strings share one
// copy of data, which the relation keeps alive.
func DecodeRelation(data []byte) (*Relation, error) {
	d := relDecoder{data: data, str: string(data)}
	name := d.string()
	cols := make([]Column, d.count(2)) // a column takes a name length and a type
	for j := range cols {
		cols[j].Name = d.string()
		if t := d.uvarint(); t > uint64(TypeString) {
			d.fail("column %d: unknown type %d", j, t)
		} else {
			cols[j].Type = Type(t)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	schema, err := MakeSchema(cols...)
	if err != nil {
		return nil, err
	}
	var nrows int
	if len(cols) == 0 {
		if n := d.uvarint(); n > 0 {
			d.fail("%d rows but no columns", n)
		}
	} else {
		nrows = d.count(len(cols)) // a cell takes at least its kind
	}
	if d.err != nil {
		return nil, d.err
	}
	ncols := len(cols)
	slab := make([]Value, nrows*ncols)
	rows := make([][]Value, nrows)
	for i := range rows {
		row := slab[i*ncols : (i+1)*ncols : (i+1)*ncols]
		for j := range row {
			switch k := d.uvarint(); k {
			case uint64(KindNull):
			case uint64(KindInt):
				row[j] = Int(int64(d.uvarint()))
			case uint64(KindString):
				row[j] = String(d.string())
			default:
				d.fail("row %d, column %d: unknown kind %d", i, j, k)
			}
		}
		if d.err != nil {
			return nil, d.err
		}
		rows[i] = row
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("table: relation encoding: %d trailing bytes", len(data)-d.off)
	}
	return &Relation{Name: name, schema: schema, rows: rows}, nil
}

// relDecoder reads a relation encoding. The first defect sticks in err,
// and every read after it returns a zero value.
type relDecoder struct {
	data []byte
	str  string // data as one string, which the decoded strings slice
	off  int
	err  error
}

func (d *relDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("table: relation encoding: "+format, args...)
	}
}

func (d *relDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 || (n > 1 && d.data[d.off+n-1] == 0) {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads the count of items that take at least size bytes each, and
// fails unless the bytes left can hold them.
func (d *relDecoder) count(size int) int {
	n := d.uvarint()
	if left := len(d.data) - d.off; n > uint64(left/size) {
		d.fail("%d items of %d or more bytes at offset %d, %d bytes left", n, size, d.off, left)
		return 0
	}
	return int(n)
}

func (d *relDecoder) string() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	s := d.str[d.off : d.off+n]
	d.off += n
	return s
}

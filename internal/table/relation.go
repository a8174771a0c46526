package table

import (
	"fmt"
	"sort"
	"strings"
)

// Relation is an in-memory, row-major relation instance. Rows are indexed
// from 0; cell updates are allowed (the solver fills missing columns in
// place). A Relation is not safe for concurrent mutation.
type Relation struct {
	Name   string
	schema *Schema
	rows   [][]Value
}

// NewRelation creates an empty relation with the given name and schema.
func NewRelation(name string, schema *Schema) *Relation {
	return &Relation{Name: name, schema: schema}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.rows) }

// Append adds a row after validating its arity and column types (null is
// allowed in any column).
func (r *Relation) Append(row ...Value) error {
	if err := r.check(row); err != nil {
		return err
	}
	r.rows = append(r.rows, append([]Value(nil), row...))
	return nil
}

// AppendRows adds rows after checking each as Append does, and adopts
// them: the relation keeps the slices themselves rather than copies, so
// the caller must not modify them afterwards. On a bad row it adds none
// and reports the row's index with Append's error.
func (r *Relation) AppendRows(rows [][]Value) error {
	for i, row := range rows {
		if err := r.check(row); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	if len(r.rows) == 0 {
		r.rows = rows
	} else {
		r.rows = append(r.rows, rows...)
	}
	return nil
}

func (r *Relation) check(row []Value) error {
	if len(row) != r.schema.Len() {
		return fmt.Errorf("table: %s: append: got %d values, schema has %d columns", r.Name, len(row), r.schema.Len())
	}
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		want := r.schema.Col(i).Type
		if (want == TypeInt && v.Kind() != KindInt) || (want == TypeString && v.Kind() != KindString) {
			return fmt.Errorf("table: %s: append: column %q wants %v, got %v", r.Name, r.schema.Col(i).Name, want, v.Kind())
		}
	}
	return nil
}

// MustAppend is Append that panics on error; for tests and generators where
// a schema mismatch is a bug.
func (r *Relation) MustAppend(row ...Value) {
	if err := r.Append(row...); err != nil {
		panic(err)
	}
}

// Row returns the i-th row. The returned slice is the backing storage; do
// not mutate it except through Set.
func (r *Relation) Row(i int) []Value { return r.rows[i] }

// Value returns the cell at row i, named column.
func (r *Relation) Value(i int, col string) Value {
	return r.rows[i][r.schema.MustIndex(col)]
}

// Set updates the cell at row i, named column.
func (r *Relation) Set(i int, col string, v Value) {
	r.rows[i][r.schema.MustIndex(col)] = v
}

// SetAt updates the cell at row i, column index j.
func (r *Relation) SetAt(i, j int, v Value) { r.rows[i][j] = v }

// At returns the cell at row i, column index j.
func (r *Relation) At(i, j int) Value { return r.rows[i][j] }

// Truncate drops every row past the first n. It panics if n is negative or
// exceeds the current length. Used by the incremental engine to rebase a
// working relation after appended rows are withdrawn.
func (r *Relation) Truncate(n int) {
	if n < 0 || n > len(r.rows) {
		panic(fmt.Sprintf("table: %s: truncate to %d of %d rows", r.Name, n, len(r.rows)))
	}
	tail := r.rows[n:]
	r.rows = r.rows[:n]
	for i := range tail {
		tail[i] = nil // release the dropped rows' storage
	}
}

// Clone returns a deep copy of the relation (rows and schema shared
// structurally; row storage is copied).
func (r *Relation) Clone() *Relation {
	out := &Relation{Name: r.Name, schema: r.schema, rows: make([][]Value, len(r.rows))}
	for i, row := range r.rows {
		out.rows[i] = append([]Value(nil), row...)
	}
	return out
}

// Select returns the indices of rows satisfying p.
func (r *Relation) Select(p Predicate) []int {
	var out []int
	for i, row := range r.rows {
		if p.Eval(r.schema, row) {
			out = append(out, i)
		}
	}
	return out
}

// Count returns the number of rows satisfying p.
func (r *Relation) Count(p Predicate) int {
	n := 0
	for _, row := range r.rows {
		if p.Eval(r.schema, row) {
			n++
		}
	}
	return n
}

// Project returns a new relation with only the named columns.
func (r *Relation) Project(names ...string) (*Relation, error) {
	sch, err := r.schema.Project(names...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = r.schema.MustIndex(n)
	}
	out := NewRelation(r.Name, sch)
	for _, row := range r.rows {
		nr := make([]Value, len(idx))
		for i, j := range idx {
			nr[i] = row[j]
		}
		out.rows = append(out.rows, nr)
	}
	return out, nil
}

// DistinctValues returns the sorted distinct non-null values of a column.
func (r *Relation) DistinctValues(col string) []Value {
	j := r.schema.MustIndex(col)
	seen := make(map[Value]bool)
	var out []Value
	for _, row := range r.rows {
		v := row[j]
		if v.IsNull() || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return Less(out[a], out[b]) })
	return out
}

// DistinctRows returns the distinct value combinations over the named
// columns (nulls included), in first-appearance order, along with the count
// of rows per combination.
func (r *Relation) DistinctRows(cols ...string) ([][]Value, []int) {
	idx := make([]int, len(cols))
	for i, n := range cols {
		idx[i] = r.schema.MustIndex(n)
	}
	type slot struct{ pos int }
	seen := make(map[string]slot)
	var combos [][]Value
	var counts []int
	var b strings.Builder
	for _, row := range r.rows {
		b.Reset()
		for _, j := range idx {
			writeKeyPart(&b, row[j])
		}
		k := b.String()
		if s, ok := seen[k]; ok {
			counts[s.pos]++
			continue
		}
		combo := make([]Value, len(idx))
		for i, j := range idx {
			combo[i] = row[j]
		}
		seen[k] = slot{pos: len(combos)}
		combos = append(combos, combo)
		counts = append(counts, 1)
	}
	return combos, counts
}

// GroupBy returns, for each distinct combination over cols, the row indices
// in that group. Groups are keyed by an opaque string encoding.
func (r *Relation) GroupBy(cols ...string) map[string][]int {
	idx := make([]int, len(cols))
	for i, n := range cols {
		idx[i] = r.schema.MustIndex(n)
	}
	out := make(map[string][]int)
	var b strings.Builder
	for i, row := range r.rows {
		b.Reset()
		for _, j := range idx {
			writeKeyPart(&b, row[j])
		}
		k := b.String()
		out[k] = append(out[k], i)
	}
	return out
}

// GroupByValue returns, for each distinct value of one column (nulls
// included), the row indices carrying it. Unlike GroupBy it keys groups by
// the Value itself, avoiding the string encoding of the key.
func (r *Relation) GroupByValue(col string) map[Value][]int {
	j := r.schema.MustIndex(col)
	out := make(map[Value][]int)
	for i, row := range r.rows {
		out[row[j]] = append(out[row[j]], i)
	}
	return out
}

// KeyOf encodes the values of the named columns in row i as an opaque
// grouping key compatible with GroupBy.
func (r *Relation) KeyOf(i int, cols ...string) string {
	var b strings.Builder
	for _, n := range cols {
		writeKeyPart(&b, r.Value(i, n))
	}
	return b.String()
}

// EncodeKey encodes a value tuple as an opaque grouping key compatible with
// GroupBy and KeyOf.
func EncodeKey(vals ...Value) string {
	var b strings.Builder
	for _, v := range vals {
		writeKeyPart(&b, v)
	}
	return b.String()
}

func writeKeyPart(b *strings.Builder, v Value) {
	switch v.Kind() {
	case KindNull:
		b.WriteByte(0)
	case KindInt:
		b.WriteByte(1)
		b.WriteString(v.String())
	case KindString:
		b.WriteByte(2)
		b.WriteString(v.Str())
	}
	b.WriteByte(0x1f)
}

// HasNullIn reports whether row i has a null cell in any of the named
// columns.
func (r *Relation) HasNullIn(i int, cols ...string) bool {
	for _, n := range cols {
		if r.Value(i, n).IsNull() {
			return true
		}
	}
	return false
}

// String renders a small relation as an aligned text table; used by the
// examples and for debugging. Large relations render a summary header only.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d rows)\n", r.Name, len(r.rows))
	if len(r.rows) > 50 {
		return b.String()
	}
	names := r.schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(r.rows))
	for i, row := range r.rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			s := v.String()
			if v.IsNull() {
				s = "?"
			}
			cells[i][j] = s
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	for j, n := range names {
		fmt.Fprintf(&b, "%-*s ", widths[j], n)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for j, s := range row {
			fmt.Fprintf(&b, "%-*s ", widths[j], s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

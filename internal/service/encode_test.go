package service

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/table"
)

// fuzzRelation builds a relation from fuzz input. cols lists the column
// names separated by NUL bytes (none when empty); bit j of types makes
// column j an int column, and every other column is a string column.
// cells starts with the row count (mod 16); each cell then reads a tag
// byte, odd for a value and even for null, and a value reads 8 big-endian
// bytes for an int or a length byte (mod 64) and that many bytes for a
// string. Input that runs out reads as zero bytes. ok is false when the
// names repeat a column.
func fuzzRelation(name, cols string, types uint8, cells []byte) (r *table.Relation, ok bool) {
	var schema []table.Column
	if cols != "" {
		for j, c := range strings.Split(cols, "\x00") {
			if j < 8 && types>>j&1 == 1 {
				schema = append(schema, table.IntCol(c))
			} else {
				schema = append(schema, table.StrCol(c))
			}
		}
	}
	s, err := table.MakeSchema(schema...)
	if err != nil {
		return nil, false
	}
	next := func(n int) []byte {
		b := make([]byte, n)
		cells = cells[copy(b, cells):]
		return b
	}
	r = table.NewRelation(name, s)
	nrows := int(next(1)[0] % 16)
	for i := 0; i < nrows; i++ {
		row := make([]table.Value, s.Len())
		for j := range row {
			switch {
			case next(1)[0]&1 == 0:
			case s.Col(j).Type == table.TypeInt:
				row[j] = table.Int(int64(binary.BigEndian.Uint64(next(8))))
			default:
				row[j] = table.String(string(next(int(next(1)[0] % 64))))
			}
		}
		if err := r.Append(row...); err != nil {
			panic(err) // every cell matches its column's type
		}
	}
	return r, true
}

// fuzzCells is the cells argument of fuzzRelation for rows whose cells
// match their columns' types.
func fuzzCells(rows ...[]table.Value) []byte {
	b := []byte{byte(len(rows))}
	for _, row := range rows {
		for _, v := range row {
			switch v.Kind() {
			case table.KindInt:
				b = binary.BigEndian.AppendUint64(append(b, 1), uint64(v.Int()))
			case table.KindString:
				b = append(append(b, 1, byte(len(v.Str()))), v.Str()...)
			default:
				b = append(b, 0)
			}
		}
	}
	return b
}

// FuzzSolveBodyEncode checks the typed relation writer against the
// encoding it replaced: for any relation, appendRelation writes exactly
// json.Marshal(encodeRelation(r)).
func FuzzSolveBodyEncode(f *testing.F) {
	i, s := table.Int, table.String
	f.Add("Persons", "pid\x00Rel\x00hid", uint8(0b101), fuzzCells(
		[]table.Value{i(1), s("Owner"), table.Null()},
		[]table.Value{i(2), s("Spouse"), i(7)},
		[]table.Value{table.Null(), table.Null(), i(-7)},
	))
	f.Add("empty", "a\x00b", uint8(0b01), fuzzCells())
	f.Add("", "", uint8(0), fuzzCells(nil, nil, nil))
	f.Add("n", "n\x00m", uint8(0b11), fuzzCells(
		[]table.Value{i(math.MinInt64), i(math.MaxInt64)},
		[]table.Value{i(math.MinInt64 + 1), i(0)},
		[]table.Value{i(-1), i(math.MaxInt64 - 1)},
	))
	var rows [][]table.Value
	for _, str := range []string{"a<b", "a>b", "a&b", `q"uote`, `back\slash`, "\x00\x01\t\n\x1f\x7f",
		"\u2028\u2029", "\xff\xfe", "a\xc3", "héllo 日本 😀", "", " plain ASCII ~!"} {
		rows = append(rows, []table.Value{s(str)})
	}
	f.Add("strings", "s", uint8(0), fuzzCells(rows...))
	f.Add("<R&\"1\u2028>\xff", "\xffé\x00<&>\x00", uint8(0b10), fuzzCells(
		[]table.Value{s("x"), i(3), table.Null()},
	))

	f.Fuzz(func(t *testing.T, name, cols string, types uint8, cells []byte) {
		r, ok := fuzzRelation(name, cols, types, cells)
		if !ok {
			return
		}
		want, err := json.Marshal(encodeRelation(r))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendRelation(nil, r); !bytes.Equal(got, want) {
			t.Fatalf("appendRelation wrote\n%s\njson.Marshal writes\n%s", got, want)
		}
	})
}

// paperInstance is the paper's running example (Figures 1 and 2).
func paperInstance(t *testing.T) core.Input {
	t.Helper()
	r1 := table.NewRelation("Persons", table.NewSchema(
		table.IntCol("pid"), table.IntCol("Age"), table.StrCol("Rel"), table.IntCol("Multi"), table.IntCol("hid")))
	for _, x := range []struct {
		pid, age int64
		rel      string
		multi    int64
	}{
		{1, 75, "Owner", 0}, {2, 75, "Owner", 1}, {3, 25, "Owner", 0},
		{4, 25, "Owner", 1}, {5, 24, "Spouse", 0}, {6, 10, "Child", 1},
		{7, 10, "Child", 1}, {8, 30, "Owner", 0}, {9, 30, "Owner", 1},
	} {
		r1.MustAppend(table.Int(x.pid), table.Int(x.age), table.String(x.rel), table.Int(x.multi), table.Null())
	}
	r2 := table.NewRelation("Housing", table.NewSchema(table.IntCol("hid"), table.StrCol("Area")))
	for i, a := range []string{"Chicago", "Chicago", "Chicago", "Chicago", "NYC", "NYC"} {
		r2.MustAppend(table.Int(int64(i+1)), table.String(a))
	}
	ccs, dcs, err := constraint.ParseConstraints(strings.NewReader(`
cc cc1: count(Rel = 'Owner', Area = 'Chicago') = 4
cc cc2: count(Rel = 'Owner', Area = 'NYC') = 2
cc cc3: count(Age <= 24, Area = 'Chicago') = 3
cc cc4: count(Multi = 1, Area = 'Chicago') = 4
dc oo: deny t1.Rel = 'Owner' & t2.Rel = 'Owner'
dc osl: deny t1.Rel = 'Owner' & t2.Rel = 'Spouse' & t2.Age < t1.Age - 50
dc osu: deny t1.Rel = 'Owner' & t2.Rel = 'Spouse' & t2.Age > t1.Age + 50
dc ocl: deny t1.Rel = 'Owner' & t1.Multi = 1 & t2.Rel = 'Child' & t2.Age < t1.Age - 50
dc ocu: deny t1.Rel = 'Owner' & t1.Multi = 1 & t2.Rel = 'Child' & t2.Age > t1.Age - 12
`))
	if err != nil {
		t.Fatal(err)
	}
	return core.Input{R1: r1, R2: r2, K1: "pid", K2: "hid", FK: "hid", CCs: ccs, DCs: dcs}
}

// TestSolveBodyMatchesReference pins whole response bodies, stats and
// quality measures included, against the encoder the typed one replaced:
// the paper's running example and a 1,000-household census result.
func TestSolveBodyMatchesReference(t *testing.T) {
	census, err := parseSolveRequest(jsonRequest(censusSolveBody(t, 1000, 901)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		in   core.Input
		opt  core.Options
	}{
		{"paper", paperInstance(t), core.Options{Seed: 1}},
		{"census", census.in, census.opt},
	} {
		res, err := core.Solve(tc.in, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		key := mustKey(t, tc.in, tc.opt)
		keyHex := hex.EncodeToString(key[:])
		got, err := encodeSolveBody(keyHex, tc.in, res)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := refEncodeSolveBody(keyHex, tc.in, res)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			n := 0
			for n < len(got) && n < len(want) && got[n] == want[n] {
				n++
			}
			t.Fatalf("%s: body of %d bytes differs from the reference's %d bytes at byte %d:\ngot  …%s\nwant …%s",
				tc.name, len(got), len(want), n, got[max(0, n-40):min(len(got), n+40)], want[max(0, n-40):min(len(want), n+40)])
		}
	}
}

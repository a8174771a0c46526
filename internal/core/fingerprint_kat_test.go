package core

import (
	"encoding/hex"
	"math"
	"testing"
	"time"

	"repro/internal/census"
	"repro/internal/constraint"
	"repro/internal/ilp"
	"repro/internal/table"
)

// Known answers for the content keys. Every persisted result file and
// session record is addressed by these keys, so a change to the canonical
// encoding — or to the code that writes it — must show up here as a failed
// test rather than as a cache that silently stops hitting. A deliberate
// encoding change bumps fingerprintVersion and regenerates these values.

// katEscapes is an instance whose cells exercise the string and integer
// corners of the encoding: JSON escapes, non-ASCII and invalid UTF-8,
// empty strings, nulls, and negative and extreme int64 values.
func katEscapes() Input {
	r1 := table.NewRelation("R\"1", table.NewSchema(
		table.IntCol("pid"), table.StrCol("Rel"), table.IntCol("n"), table.IntCol("hid")))
	r1.MustAppend(table.Int(math.MinInt64), table.String("a\"b\\c\n\t/"), table.Int(-1), table.Null())
	r1.MustAppend(table.Int(math.MaxInt64), table.String("<>&\u2028\u2029"), table.Int(0), table.Null())
	r1.MustAppend(table.Int(-42), table.String("héllo 日本 \U0001F600"), table.Null(), table.Int(7))
	r1.MustAppend(table.Int(0), table.String(""), table.Int(math.MinInt64+1), table.Null())
	r1.MustAppend(table.Int(1), table.String("\xff\xfe\x00"), table.Int(math.MaxInt64-1), table.Null())
	r1.MustAppend(table.Int(2), table.Null(), table.Null(), table.Null())
	r2 := table.NewRelation("", table.NewSchema(table.IntCol("hid"), table.StrCol("Area")))
	r2.MustAppend(table.Int(7), table.String("Nörth"))
	r2.MustAppend(table.Int(-7), table.String(""))
	r2.MustAppend(table.Int(8), table.Null())
	cc, err := constraint.ParseCC("cc: count(Rel = 'Owner', Area = 'Nörth') = 1")
	if err != nil {
		panic(err)
	}
	dc, err := constraint.ParseDC("dc: deny t1.Rel = 'Owner' & t2.Rel = 'Owner'")
	if err != nil {
		panic(err)
	}
	return Input{R1: r1, R2: r2, K1: "pid", K2: "hid", FK: "hid",
		CCs: []constraint.CC{cc}, DCs: []constraint.DC{dc}}
}

func katCensus() Input {
	d := census.Generate(census.Config{Households: 30, Areas: 4, Seed: 17})
	return Input{R1: d.Persons, R2: d.Housing, K1: "pid", K2: "hid", FK: "hid",
		CCs: d.BadCCs(12), DCs: census.AllDCs()}
}

// katAllOptions sets every output-relevant option to a non-default value.
var katAllOptions = Options{
	Mode: ModeHasseOnly, NoMarginals: true, RandomFK: true, NoPartition: true,
	Order: OrderInput, Seed: -3,
	ILP: ilp.Options{MaxNodes: 77, MaxIters: 1234, TimeLimit: 1500 * time.Millisecond},
}

func TestFingerprintKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   Input
		opt  Options
		want string
	}{
		{"paper/hybrid", paperInput(t), Options{Seed: 1},
			"b2cb3ad5169d6fae45f6059c761ddfb5745f3abecdbf1387607604c95c183e16"},
		{"paper/ilp-only", paperInput(t), Options{Mode: ModeILPOnly, Seed: 1},
			"2c83f88a8cc49b4766db2ecd389ed497ccc305ea635186f1abad2e5a356d2c30"},
		{"paper/hasse-only", paperInput(t), Options{Mode: ModeHasseOnly, Seed: 1},
			"2ee67c79ffeb91c434044bf08478bf4239a4dff037abb5e5889ccdf6e8b411b0"},
		{"paper/baseline", paperInput(t), BaselineOptions(5),
			"25cb2abdfd5e5c086ca65e2a8fcdcd575996b518da691fa6ae1e0b0093a99d7f"},
		{"paper/all-options", paperInput(t), katAllOptions,
			"bd9a9e1dae384ac43a85238b1ac1e28fe9e180871fab90ed718703176e7d7f9f"},
		{"census/hybrid", katCensus(), Options{Seed: 1},
			"670f58156a0fe1cc77e64c1f73bac882efc2a4d54a5b430867594dfe71714747"},
		{"census/all-options", katCensus(), katAllOptions,
			"f2bf573e1f82c62af3f9c1bc59aed87bba8aeedec1fe680902cfedbd21d98b13"},
		{"escapes/hybrid", katEscapes(), Options{Seed: 2},
			"ce9502fafaaf94cd39f9cd2b164f2e3daf5340e2e978cdc8d11072cde5c5c5df"},
		{"escapes/ilp-only", katEscapes(), Options{Mode: ModeILPOnly, Seed: 2},
			"24995e1a90f1f3e022617c95ae795de7366d0586ba42d41472ac49fe7d79f178"},
	} {
		k, err := Fingerprint(tc.in, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(k[:]); got != tc.want {
			t.Errorf("%s: Fingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestStructuralFingerprintKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   Input
		opt  Options
		want string
	}{
		{"paper/hybrid", paperInput(t), Options{Seed: 1},
			"810e80a5051a2b78003c007f82b18ab761309cbb473609dbf053217dc525c9dd"},
		{"census/all-options", katCensus(), katAllOptions,
			"892cc7f1a6db18af931365a9f7908d6f115ceffae16f98d15dcb82111a1a52bc"},
	} {
		k, err := StructuralFingerprint(tc.in, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(k[:]); got != tc.want {
			t.Errorf("%s: StructuralFingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}

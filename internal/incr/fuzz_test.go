package incr

import (
	"testing"

	"repro/internal/core"
	"repro/internal/table"
)

// FuzzSessionDelta chases a warm session over a small base with
// intersecting CCs through fuzzed deltas. The first byte picks the hybrid
// or ILP-only mode; then each delta takes a header byte whose low two bits
// count its CC nudges and whose third bit adds an Age edit, two bytes per
// nudge (CC index, signed target offset) and two for the edit (row, age).
// Every warm re-solve must equal a cold core.Solve of the patched input,
// in its relations and its canonical Stats.
func FuzzSessionDelta(f *testing.F) {
	base := censusBadInstance(60, 40, 7)
	f.Add([]byte{0, 1, 3, 1})           // nudge an ILP CC
	f.Add([]byte{0, 1, 2, 1})           // nudge a Hasse CC
	f.Add([]byte{0, 2, 4, 10, 9, 0xf6}) // two ILP nudges
	f.Add([]byte{0, 4, 7, 64, 1, 6, 2}) // an edit, then a nudge
	f.Add([]byte{1, 2, 3, 5, 12, 0x80}) // ILP-only: two nudges
	f.Add([]byte("1700000000"))         // ILP-only: nudges and an edit
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		opt := core.Options{Seed: 1}
		if data[0]%2 == 1 {
			opt.Mode = core.ModeILPOnly
		}
		data = data[1:]
		sess, err := NewEngine(1).Open(base, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Solve(); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4 && len(data) > 0; round++ {
			h := data[0]
			data = data[1:]
			var d Delta
			for k := 0; k < int(h%4) && len(data) >= 2; k++ {
				if d.CCTargets == nil {
					d.CCTargets = map[int]int64{}
				}
				i := int(data[0]) % len(base.CCs)
				d.CCTargets[i] = max(0, base.CCs[i].Target+int64(int8(data[1])))
				data = data[2:]
			}
			if h&4 != 0 && len(data) >= 2 {
				d.R1Edits = []CellEdit{{Row: int(data[0]) % base.R1.Len(), Col: "Age", Val: table.Int(int64(data[1] % 90))}}
				data = data[2:]
			}
			warm, _, err := sess.Resolve(d)
			if err != nil {
				t.Fatalf("round %d: resolve %+v: %v", round, d, err)
			}
			cold, err := core.Solve(applyDeltaCold(t, base, d), opt)
			if err != nil {
				t.Fatalf("round %d: cold solve: %v", round, err)
			}
			if resultFingerprint(warm) != resultFingerprint(cold) {
				t.Fatalf("round %d: warm result differs from cold (delta %+v)", round, d)
			}
			if canonicalStats(warm.Stats) != canonicalStats(cold.Stats) {
				t.Fatalf("round %d: warm stats %+v, cold %+v (delta %+v)", round, warm.Stats, cold.Stats, d)
			}
		}
	})
}

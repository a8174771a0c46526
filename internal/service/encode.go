package service

import (
	"encoding/json"
	"strconv"
	"strings"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/table"
)

// EncodeInstance renders a solver input in the HTTP wire form — the same
// shape POST /v1/solve decodes. It is the inverse of the request decoder
// up to relation-name defaulting: both relations inline, the key columns,
// and the constraint sets re-serialized into the text DSL. Clients that
// build instances programmatically (cmd/loadgen, tests) use it to speak
// the API without hand-writing JSON.
func EncodeInstance(in core.Input) (InstanceJSON, error) {
	var cons strings.Builder
	if err := constraint.WriteConstraints(&cons, in.CCs, in.DCs); err != nil {
		return InstanceJSON{}, err
	}
	r1 := encodeRelation(in.R1)
	r2 := encodeRelation(in.R2)
	return InstanceJSON{
		R1: &r1, R2: &r2,
		K1: in.K1, K2: in.K2, FK: in.FK,
		Constraints: cons.String(),
	}, nil
}

// encodeSolveBody renders the canonical response body for a solved
// instance. The same instance always produces the same bytes, which is what
// the cache stores and what makes hits byte-identical to cold solves.
//
// The bytes are exactly json.Marshal of the SolveResponse holding the
// result, written without building one: the three result relations go
// cell by cell into one buffer sized for them (appendRelation), and only
// the small stats and quality-measure tail passes through encoding/json.
func encodeSolveBody(keyHex string, in core.Input, res *core.Result) ([]byte, error) {
	// The body is stored in the content-addressed cache under a key that
	// promises byte-identical responses — a cluster gather fallback
	// re-solves a lost peer's group expecting to reproduce its bytes
	// exactly, and warm and cold solves of one key must agree. Wall-clock
	// timings and warm-state reuse flags vary run to run and node to node,
	// so they are canonicalized to zero before encoding; the deterministic
	// counters (partitions, ILP nodes, added tuples, ...) stay.
	st := res.Stats
	st.Pairwise, st.Recursion, st.ILPTime, st.Coloring = 0, 0, 0, 0
	st.Phase1, st.Phase2, st.Total = 0, 0, 0
	st.PlanReused, st.ProbReused, st.SplicedPartitions = false, false, 0
	// The members after vjoin, in ResultJSON's order; their object's
	// opening brace is dropped below so they continue the result object.
	tail, err := json.Marshal(struct {
		Stats    core.Stats `json:"stats"`
		CCErrors []float64  `json:"cc_errors"`
		DCError  float64    `json:"dc_error"`
	}{
		Stats:    st,
		CCErrors: metrics.CCErrors(res.VJoin, in.CCs),
		DCError:  metrics.DCErrorFraction(res.R1Hat, in.FK, in.DCs),
	})
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, 64+len(keyHex)+len(tail)+
		relationSize(res.R1Hat)+relationSize(res.R2Hat)+relationSize(res.VJoin))
	b = append(b, `{"key":`...)
	b = appendString(b, keyHex)
	b = append(b, `,"result":{"r1_hat":`...)
	b = appendRelation(b, res.R1Hat)
	b = append(b, `,"r2_hat":`...)
	b = appendRelation(b, res.R2Hat)
	b = append(b, `,"vjoin":`...)
	b = appendRelation(b, res.VJoin)
	b = append(b, ',')
	b = append(b, tail[1:]...)
	return append(b, '}'), nil
}

// relationSize estimates the bytes appendRelation writes for r: a
// schema's worth of framing plus eight bytes a cell, which covers the
// short codes and small integers of the census results; a larger relation
// only makes the buffer grow once.
func relationSize(r *table.Relation) int {
	cols := r.Schema().Len()
	return 64 + 48*cols + r.Len()*(2+8*cols)
}

// appendRelation appends r exactly as json.Marshal(encodeRelation(r))
// renders it: int cells as decimal numbers, string cells as JSON strings
// and null cells as null.
func appendRelation(b []byte, r *table.Relation) []byte {
	b = append(b, `{"name":`...)
	b = appendString(b, r.Name)
	b = append(b, `,"columns":[`...)
	s := r.Schema()
	for j := 0; j < s.Len(); j++ {
		if j > 0 {
			b = append(b, ',')
		}
		c := s.Col(j)
		b = append(b, `{"name":`...)
		b = appendString(b, c.Name)
		b = append(b, `,"type":"`...)
		b = append(b, colTypeString(c.Type)...)
		b = append(b, `"}`...)
	}
	b = append(b, `],"rows":[`...)
	for i := 0; i < r.Len(); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range r.Row(i) {
			if j > 0 {
				b = append(b, ',')
			}
			switch v.Kind() {
			case table.KindInt:
				b = strconv.AppendInt(b, v.Int(), 10)
			case table.KindString:
				b = appendString(b, v.Str())
			default:
				b = append(b, "null"...)
			}
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// appendString appends s as json.Marshal renders a string. A string of
// printable ASCII with none of the characters json.Marshal escapes (the
// quote, the backslash, and <, > and & for HTML safety) is its own
// rendering between quotes; any other string is rendered by json.Marshal
// itself, so control bytes, U+2028, U+2029 and invalid UTF-8 come out as
// encoding/json writes them.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // marshaling a string cannot fail
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

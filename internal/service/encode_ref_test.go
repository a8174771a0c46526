package service

// The response encoder as it was before the typed one: the result boxed
// into the exported wire types, every cell an any, and the whole body
// rendered by encoding/json. It is kept, unchanged, as the reference the
// typed encoder is tested against (FuzzSolveBodyEncode,
// TestSolveBodyMatchesReference).

import (
	"encoding/json"

	"repro/internal/core"
	"repro/internal/metrics"
)

// refEncodeSolveBody is encodeSolveBody as it was before the typed
// encoder.
func refEncodeSolveBody(keyHex string, in core.Input, res *core.Result) ([]byte, error) {
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
	body := SolveResponse{
		Key: keyHex,
		Result: ResultJSON{
			R1Hat:    encodeRelation(res.R1Hat),
			R2Hat:    encodeRelation(res.R2Hat),
			VJoin:    encodeRelation(res.VJoin),
			Stats:    st,
			CCErrors: metrics.CCErrors(res.VJoin, in.CCs),
			DCError:  metrics.DCErrorFraction(res.R1Hat, in.FK, in.DCs),
		},
	}
	return json.Marshal(body)
}

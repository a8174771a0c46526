package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/table"
)

// solveBody is the part of a solve response the checks read; the rest of
// the wire format may change without touching the benchmark.
type solveBody struct {
	Key    string `json:"key"`
	Result struct {
		R1Hat    json.RawMessage `json:"r1_hat"`
		R2Hat    json.RawMessage `json:"r2_hat"`
		CCErrors []float64       `json:"cc_errors"`
		DCError  *float64        `json:"dc_error"`
	} `json:"result"`
}

// checkBody verifies what every response must satisfy: its key is the
// client-side fingerprint of the submitted (or client-patched) instance,
// its DC error is exactly 0, and it reports one CC error per CC. It
// returns the mean CC error.
func checkBody(r *request, body []byte) (float64, *solveBody, error) {
	var sb solveBody
	if err := json.Unmarshal(body, &sb); err != nil {
		return 0, nil, fmt.Errorf("decode response: %w", err)
	}
	if want := hex.EncodeToString(r.key[:]); sb.Key != want {
		return 0, nil, fmt.Errorf("key %.16s…, client fingerprint is %.16s…", sb.Key, want)
	}
	if sb.Result.DCError == nil || *sb.Result.DCError != 0 {
		return 0, nil, fmt.Errorf("dc_error is %v, want exactly 0", sb.Result.DCError)
	}
	if n := len(r.inst.in.CCs); len(sb.Result.CCErrors) != n {
		return 0, nil, fmt.Errorf("%d cc_errors for %d CCs", len(sb.Result.CCErrors), n)
	}
	return metrics.Mean(sb.Result.CCErrors), &sb, nil
}

// checkDeep recounts every CC error from r1_hat ⋈ r2_hat, independently of
// the server's join view, and checks that r1_hat and r2_hat equal an
// in-process core.Solve of the same instance.
func checkDeep(r *request, sb *solveBody) error {
	in := r.input()
	r1, err := relationOf(sb.Result.R1Hat)
	if err != nil {
		return fmt.Errorf("r1_hat: %w", err)
	}
	r2, err := relationOf(sb.Result.R2Hat)
	if err != nil {
		return fmt.Errorf("r2_hat: %w", err)
	}
	vj, err := table.Join(r1, in.FK, r2, in.K2)
	if err != nil {
		return fmt.Errorf("join r1_hat with r2_hat: %w", err)
	}
	if vj.Len() != r1.Len() {
		return fmt.Errorf("r1_hat has %d rows but only %d join r2_hat", r1.Len(), vj.Len())
	}
	for i, cc := range in.CCs {
		count := int64(0)
		for row := 0; row < vj.Len(); row++ {
			for _, d := range cc.Disjuncts() {
				if d.Eval(vj.Schema(), vj.Row(row)) {
					count++
					break
				}
			}
		}
		if got := metrics.RelativeError(count, cc.Target); got != sb.Result.CCErrors[i] {
			return fmt.Errorf("cc_errors[%d] is %v, recount from r1_hat ⋈ r2_hat gives %v", i, sb.Result.CCErrors[i], got)
		}
	}
	res, err := core.Solve(in, solveOpt)
	if err != nil {
		return fmt.Errorf("in-process solve: %w", err)
	}
	ij, err := service.EncodeInstance(core.Input{R1: res.R1Hat, R2: res.R2Hat})
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		got  []byte
		want any
	}{{"r1_hat", sb.Result.R1Hat, ij.R1}, {"r2_hat", sb.Result.R2Hat, ij.R2}} {
		want, err := json.Marshal(c.want)
		if err != nil {
			return err
		}
		if !bytes.Equal(c.got, want) {
			return fmt.Errorf("%s differs from an in-process core.Solve", c.name)
		}
	}
	return nil
}

// relationOf decodes a wire relation.
func relationOf(raw json.RawMessage) (*table.Relation, error) {
	var rj service.RelationJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&rj); err != nil {
		return nil, err
	}
	cols := make([]table.Column, len(rj.Columns))
	for j, c := range rj.Columns {
		switch c.Type {
		case "int":
			cols[j] = table.IntCol(c.Name)
		case "string":
			cols[j] = table.StrCol(c.Name)
		default:
			return nil, fmt.Errorf("column %q has type %q", c.Name, c.Type)
		}
	}
	rel := table.NewRelation(rj.Name, table.NewSchema(cols...))
	for i, row := range rj.Rows {
		vals := make([]table.Value, len(row))
		for j, cell := range row {
			switch v := cell.(type) {
			case nil:
				vals[j] = table.Null()
			case string:
				vals[j] = table.String(v)
			case json.Number:
				n, err := v.Int64()
				if err != nil {
					return nil, fmt.Errorf("row %d: %w", i, err)
				}
				vals[j] = table.Int(n)
			default:
				return nil, fmt.Errorf("row %d: cell of type %T", i, cell)
			}
		}
		if err := rel.Append(vals...); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return rel, nil
}

// expect is a disposition plan: how far linksynthd counters must move over
// a phase. A key naming several counters joined by "+" plans their sum.
type expect map[string]float64

// alwaysZero are the counters no workload may ever move.
var alwaysZero = []string{"store_persist_errors_total", "rejected_total"}

// checkDispositions compares counter movements over a phase with the plan.
// A run whose dispositions differ is invalid, not a sample.
func checkDispositions(workload, phase string, want expect, before, after counters) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		moved := 0.0
		var names []string
		for _, n := range strings.Split(k, "+") {
			m := "linksynthd_" + n
			a, ok1 := after[m]
			b, ok2 := before[m]
			if !ok1 || !ok2 {
				return fmt.Errorf("%s %s: /metrics has no %s", workload, phase, m)
			}
			moved += a - b
			names = append(names, m)
		}
		if moved != want[k] {
			return fmt.Errorf("%s %s: %s moved by %v, the plan says %v", workload, phase, strings.Join(names, " + "), moved, want[k])
		}
	}
	for _, n := range alwaysZero {
		if v, ok := after["linksynthd_"+n]; !ok || v != 0 {
			return fmt.Errorf("%s %s: linksynthd_%s is %v, must stay 0", workload, phase, n, v)
		}
	}
	return nil
}

// solvePlan is the disposition plan of a phase with solves solver runs,
// hits cache hits and restored sessions revived from the store, none of
// them splicing partitions from a warm session.
func solvePlan(solves, hits, restored int) expect {
	return expect{
		"solver_runs_total":             float64(solves),
		"cache_hits_total":              float64(hits),
		"store_sessions_restored_total": float64(restored),
		"incr_partial_solves_total":     0,
	}
}

// deltaPlan is the plan of n warm deltas: each re-solves from its base's
// session, splicing partitions (partial) or at least reusing the compiled
// problem (warm), never cold and never from the cache.
func deltaPlan(n int) expect {
	return expect{
		"solver_runs_total":                                float64(n),
		"cache_hits_total":                                 0,
		"store_sessions_restored_total":                    0,
		"incr_partial_solves_total+incr_warm_solves_total": float64(n),
	}
}

// digestStore remembers each key's body digest per workload and seed. A
// key must get byte-identical bodies on every path (cold, hit, delta,
// restart) and in every run of the seed.
type digestStore struct {
	path string
	old  map[string]string // digests recorded by earlier runs of the seed
	cur  map[string]string // digests seen in this run
}

func openDigests(dir, workload string, seed int64) (*digestStore, error) {
	ds := &digestStore{
		path: filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)),
		old:  map[string]string{},
		cur:  map[string]string{},
	}
	b, err := os.ReadFile(ds.path)
	if errors.Is(err, os.ErrNotExist) {
		return ds, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &ds.old); err != nil {
		return nil, fmt.Errorf("digest file %s: %w", ds.path, err)
	}
	return ds, nil
}

// note records one body digest for key and reports a mismatch with any
// earlier body of the key.
func (ds *digestStore) note(key, digest [32]byte) error {
	k, h := hex.EncodeToString(key[:]), hex.EncodeToString(digest[:])
	for _, seen := range []map[string]string{ds.cur, ds.old} {
		if d, ok := seen[k]; ok && d != h {
			return fmt.Errorf("body digest %.16s… differs from an earlier body of the same key (%.16s…)", h, d)
		}
	}
	ds.cur[k] = h
	return nil
}

func (ds *digestStore) save() error {
	for k, h := range ds.old {
		ds.cur[k] = h
	}
	b, err := json.Marshal(ds.cur)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(ds.path), 0o755); err != nil {
		return err
	}
	tmp := ds.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, ds.path)
}

package service

// The request decoder as it was before the typed wire decoder: every cell
// decoded by encoding/json into [][]any with UseNumber, then converted by
// decodeValue. It is kept, unchanged, as the reference the typed decoder is
// tested against (FuzzSolveRequestDecode), and for tests that build keys
// and deltas from the exported types.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/table"
)

// refParseSolveRequest is parseSolveRequest for a JSON body as it was
// before the typed decoder.
func refParseSolveRequest(body []byte) (*solveParsed, error) {
	var req SolveRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		return nil, decodeErr(err)
	}
	if req.Base != "" || req.Delta != nil {
		return parseDeltaRequest(&req)
	}
	in, err := req.InstanceJSON.toInput()
	if err != nil {
		return nil, err
	}
	opt, err := req.Options.toOptions()
	if err != nil {
		return nil, err
	}
	return &solveParsed{in: in, opt: opt}, nil
}

// refParseBatchRequest is the validation handleBatch made before the typed
// decoder, with its error responses as errors.
func refParseBatchRequest(body []byte) ([]jobInstance, core.Options, error) {
	var req BatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		return nil, core.Options{}, decodeErr(err)
	}
	if len(req.Instances) == 0 {
		return nil, core.Options{}, badRequest("batch request has no instances")
	}
	opt, err := req.Options.toOptions()
	if err != nil {
		return nil, core.Options{}, err
	}
	instances := make([]jobInstance, len(req.Instances))
	for i := range req.Instances {
		in, err := req.Instances[i].toInput()
		if err != nil {
			return nil, core.Options{}, badRequest("instance %d: %v", i, err)
		}
		key, err := core.Fingerprint(in, opt)
		if err != nil {
			return nil, core.Options{}, badRequest("instance %d: fingerprint: %v", i, err)
		}
		instances[i] = jobInstance{in: in, key: key}
	}
	return instances, opt, nil
}

// toDelta converts the wire delta into the engine's form.
func (dj *DeltaJSON) toDelta() (incr.Delta, error) {
	var d incr.Delta
	if len(dj.CCTargets) > 0 {
		// Decode in sorted key order so a request with several malformed
		// keys always gets the same 400 body — ranging the map made the
		// reported key vary run to run.
		keys := make([]string, 0, len(dj.CCTargets))
		for k := range dj.CCTargets {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		d.CCTargets = make(map[int]int64, len(dj.CCTargets))
		for _, k := range keys {
			i, err := strconv.Atoi(k)
			if err != nil {
				return d, badRequest("delta: cc_targets key %q is not a CC index", k)
			}
			d.CCTargets[i] = dj.CCTargets[k]
		}
	}
	for n, ed := range dj.R1Edits {
		v, err := decodeValue(ed.Val)
		if err != nil {
			return d, badRequest("delta: r1_edits[%d]: %v", n, err)
		}
		d.R1Edits = append(d.R1Edits, incr.CellEdit{Row: ed.Row, Col: ed.Col, Val: v})
	}
	for n, row := range dj.R1Appends {
		vals := make([]table.Value, len(row))
		for j, cell := range row {
			v, err := decodeValue(cell)
			if err != nil {
				return d, badRequest("delta: r1_appends[%d][%d]: %v", n, j, err)
			}
			vals[j] = v
		}
		d.R1Appends = append(d.R1Appends, vals)
	}
	return d, nil
}

// decodeRelation converts the wire form back into a relation. Number cells
// must be integral (the request decoder runs with UseNumber, so no float
// precision is lost on the way in).
func decodeRelation(rj *RelationJSON, fallbackName string) (*table.Relation, error) {
	if rj == nil {
		return nil, badRequest("missing relation %q", strings.ToLower(fallbackName))
	}
	name := rj.Name
	if name == "" {
		name = fallbackName
	}
	if len(rj.Columns) == 0 {
		return nil, badRequest("relation %s: no columns", name)
	}
	cols := make([]table.Column, len(rj.Columns))
	for j, c := range rj.Columns {
		if c.Name == "" {
			return nil, badRequest("relation %s: column %d has no name", name, j)
		}
		switch c.Type {
		case "int":
			cols[j] = table.IntCol(c.Name)
		case "string":
			cols[j] = table.StrCol(c.Name)
		default:
			return nil, badRequest("relation %s: column %q: unknown type %q (want \"int\" or \"string\")", name, c.Name, c.Type)
		}
	}
	rel := table.NewRelation(name, table.NewSchema(cols...))
	for i, row := range rj.Rows {
		if len(row) != len(cols) {
			return nil, badRequest("relation %s: row %d has %d cells, schema has %d columns", name, i, len(row), len(cols))
		}
		vals := make([]table.Value, len(row))
		for j, cell := range row {
			v, err := decodeValue(cell)
			if err != nil {
				return nil, badRequest("relation %s: row %d, column %q: %v", name, i, cols[j].Name, err)
			}
			vals[j] = v
		}
		if err := rel.Append(vals...); err != nil {
			return nil, badRequest("relation %s: row %d: %v", name, i, err)
		}
	}
	return rel, nil
}

func decodeValue(cell any) (table.Value, error) {
	switch c := cell.(type) {
	case nil:
		return table.Null(), nil
	case string:
		return table.String(c), nil
	case json.Number:
		n, err := c.Int64()
		if err != nil {
			return table.Null(), fmt.Errorf("non-integer number %v", c)
		}
		return table.Int(n), nil
	case float64:
		// Reached only when the payload bypassed UseNumber (programmatic use).
		n := int64(c)
		if float64(n) != c {
			return table.Null(), fmt.Errorf("non-integer number %v", c)
		}
		return table.Int(n), nil
	default:
		return table.Null(), fmt.Errorf("unsupported cell type %T", cell)
	}
}

// toInput validates the instance and assembles the solver input: both
// relations present, key/FK columns named and existing in their schemas,
// and the constraint DSL parsed.
func (ij *InstanceJSON) toInput() (core.Input, error) {
	r1, err := decodeRelation(ij.R1, "R1")
	if err != nil {
		return core.Input{}, err
	}
	r2, err := decodeRelation(ij.R2, "R2")
	if err != nil {
		return core.Input{}, err
	}
	return assembleInput(r1, r2, ij.K1, ij.K2, ij.FK, ij.Constraints)
}

// parseDeltaRequest validates the warm-start shape: base and delta both
// present, no instance fields (the base names the instance), no options
// (the base solve's options are inherited — a delta cannot change them).
func parseDeltaRequest(req *SolveRequest) (*solveParsed, error) {
	if req.Base == "" {
		return nil, badRequest("delta request needs a base fingerprint")
	}
	if req.Delta == nil {
		return nil, badRequest("base without delta: submit a delta, or the full instance without base")
	}
	if req.R1 != nil || req.R2 != nil || req.K1 != "" || req.K2 != "" || req.FK != "" || req.Constraints != "" {
		return nil, badRequest("delta request must not carry instance fields (the base fingerprint names the instance)")
	}
	if req.Options != nil {
		return nil, badRequest("delta request must not carry options (the base solve's options are inherited)")
	}
	raw, err := hex.DecodeString(req.Base)
	if err != nil || len(raw) != 32 {
		return nil, badRequest("base %q is not a 64-hex-digit fingerprint", req.Base)
	}
	d, err := req.Delta.toDelta()
	if err != nil {
		return nil, err
	}
	if d.IsZero() {
		return nil, badRequest("delta is empty")
	}
	p := &solveParsed{isDelta: true, delta: d}
	copy(p.base[:], raw)
	return p, nil
}

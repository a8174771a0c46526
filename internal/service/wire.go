package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/table"
)

// The typed request decoder. encoding/json decodes the envelope of a
// /v1/solve or /v1/batch body, so key matching, unknown and duplicate keys,
// syntax errors, trailing bytes and the body limit are its rules. It
// decodes into the unexported types below, which mirror the exported
// request types field for field except where cells live: a relation's rows
// and a delta's appended rows parse straight into table.Value slabs
// (wireRows), and an edited cell into one table.Value (wireCell). The
// exported types stay the client-side encoding.

type wireSolveRequest struct {
	wireInstance
	Options *OptionsJSON `json:"options,omitempty"`
	Base    string       `json:"base,omitempty"`
	Delta   *wireDelta   `json:"delta,omitempty"`
}

type wireInstance struct {
	R1          *wireRelation `json:"r1"`
	R2          *wireRelation `json:"r2"`
	K1          string        `json:"k1"`
	K2          string        `json:"k2"`
	FK          string        `json:"fk"`
	Constraints string        `json:"constraints,omitempty"`
}

type wireRelation struct {
	Name    string       `json:"name"`
	Columns []ColumnJSON `json:"columns"`
	Rows    wireRows     `json:"rows"`
}

type wireDelta struct {
	CCTargets map[string]int64 `json:"cc_targets,omitempty"`
	R1Edits   []wireCellEdit   `json:"r1_edits,omitempty"`
	R1Appends wireRows         `json:"r1_appends,omitempty"`
}

type wireCellEdit struct {
	Row int      `json:"row"`
	Col string   `json:"col"`
	Val wireCell `json:"val"`
}

type wireBatchRequest struct {
	Instances []wireInstance `json:"instances"`
	Options   *OptionsJSON   `json:"options,omitempty"`
}

// decodeJSON decodes one JSON value from the request body into the wire
// value v. A type error names the Go types it ran into, and those must be
// the documented request types, so on a type error the bytes read so far
// are decoded once more, with UseNumber, into exported, and that decode's
// error is reported.
func decodeJSON(r *http.Request, v, exported any) error {
	var read readLog
	err := json.NewDecoder(io.TeeReader(r.Body, &read)).Decode(v)
	var te *json.UnmarshalTypeError
	if errors.As(err, &te) {
		dec := json.NewDecoder(bytes.NewReader(bytes.Join(read, nil)))
		dec.UseNumber()
		if xerr := dec.Decode(exported); xerr != nil {
			err = xerr
		}
	}
	if err != nil {
		return decodeErr(err)
	}
	return nil
}

// readLog keeps a copy of each chunk written to it. Unlike a growing
// buffer, it never copies what it already holds.
type readLog [][]byte

func (l *readLog) Write(p []byte) (int, error) {
	*l = append(*l, bytes.Clone(p))
	return len(p), nil
}

// cellError is an undecodable cell: where it is, and why.
type cellError struct {
	row, col int
	err      error
}

// wireRows is the wire form of a list of rows. It accepts what
// encoding/json accepted into [][]any: rows is an array or null, and each
// row is an array or null (a row with no cells). Anything else is a type
// error. The cells go into slabs, each row a capacity-capped slice of one.
// A cell that is not an integer, a string or null does not fail the
// decode: the first one, in row-major order, is kept in bad, and the
// relation or delta reports it where its validation reaches that row.
type wireRows struct {
	rows [][]table.Value
	bad  *cellError
}

// wireCell is the wire form of one cell.
type wireCell struct {
	v   table.Value
	err error // why the cell is not an integer, a string or null
}

// maxSlab caps the cells of one slab. Slabs grow by doubling up to it
// (further only for a row longer than that), and a full slab is never
// copied: the next one takes only the cells of the row being read.
const maxSlab = 1 << 13

func (w *wireRows) UnmarshalJSON(data []byte) error {
	*w = wireRows{}
	p := cellParser{data: data}
	p.space()
	if p.literal("null") {
		return p.end()
	}
	if !p.consume('[') {
		return p.typeError([][]any(nil))
	}
	var slab []table.Value // the slab the current row goes into
	for p.space(); !p.consume(']'); p.space() {
		if len(w.rows) > 0 && !p.consume(',') {
			return p.syntaxError()
		}
		p.space()
		start := len(slab)
		switch {
		case p.literal("null"):
		case p.consume('['):
			for col := 0; ; col++ {
				p.space()
				if p.consume(']') {
					break
				}
				if col > 0 {
					if !p.consume(',') {
						return p.syntaxError()
					}
					p.space()
				}
				v, err := p.cell()
				if p.err != nil {
					return p.err
				}
				if err != nil && w.bad == nil {
					w.bad = &cellError{row: len(w.rows), col: col, err: err}
				}
				if len(slab) == cap(slab) {
					next := make([]table.Value, 0, max(min(2*cap(slab), maxSlab), 2*col, 16))
					slab, start = append(next, slab[start:]...), 0
				}
				slab = append(slab, v)
			}
		default:
			return p.typeError([]any(nil))
		}
		w.rows = append(w.rows, slab[start:len(slab):len(slab)])
	}
	return p.end()
}

func (c *wireCell) UnmarshalJSON(data []byte) error {
	p := cellParser{data: data}
	p.space()
	v, err := p.cell()
	if p.err != nil {
		return p.err
	}
	*c = wireCell{v: v, err: err}
	return p.end()
}

// cellParser reads cells from JSON text that encoding/json has already
// validated. It still checks what it reads, so a malformed input is an
// error and never a panic or a wrong value.
type cellParser struct {
	data []byte
	i    int
	err  error // sticky syntax error
}

func (p *cellParser) space() {
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *cellParser) consume(c byte) bool {
	if p.i < len(p.data) && p.data[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *cellParser) literal(lit string) bool {
	if len(p.data)-p.i >= len(lit) && string(p.data[p.i:p.i+len(lit)]) == lit {
		p.i += len(lit)
		return true
	}
	return false
}

// end checks that nothing but space follows the value.
func (p *cellParser) end() error {
	p.space()
	if p.i != len(p.data) {
		return p.syntaxError()
	}
	return nil
}

func (p *cellParser) syntaxError() error {
	if p.err == nil {
		p.err = fmt.Errorf("malformed JSON at offset %d", p.i)
	}
	return p.err
}

// typeError reports the JSON value at p.i as one encoding/json does not
// decode into t. decodeJSON replaces it with the exported type's error.
func (p *cellParser) typeError(t any) error {
	return &json.UnmarshalTypeError{Value: "value", Type: reflect.TypeOf(t), Offset: int64(p.i)}
}

// cell reads one JSON value as a cell. It returns the cell's error when
// the value is well-formed but not an integer, a string or null; the
// cell's value is then Null. An integer is what json.Number.Int64 accepts,
// a string is unquoted as encoding/json unquotes it, and an unsupported
// cell is named by the Go type encoding/json decodes it into as an any.
func (p *cellParser) cell() (table.Value, error) {
	if p.i >= len(p.data) {
		p.syntaxError()
		return table.Null(), nil
	}
	switch c := p.data[p.i]; {
	case p.literal("null"):
		return table.Null(), nil
	case c == '"':
		return p.string(), nil
	case c == '-' || (c >= '0' && c <= '9'):
		start := p.i
		for p.i < len(p.data) && strings.IndexByte("+-.0123456789Ee", p.data[p.i]) >= 0 {
			p.i++
		}
		num := p.data[start:p.i]
		n, err := strconv.ParseInt(string(num), 10, 64)
		if err != nil {
			return table.Null(), fmt.Errorf("non-integer number %s", num)
		}
		return table.Int(n), nil
	case p.literal("true") || p.literal("false"):
		return table.Null(), fmt.Errorf("unsupported cell type %T", false)
	case c == '{':
		p.skipComposite()
		return table.Null(), fmt.Errorf("unsupported cell type %T", map[string]any(nil))
	case c == '[':
		p.skipComposite()
		return table.Null(), fmt.Errorf("unsupported cell type %T", []any(nil))
	default:
		p.syntaxError()
		return table.Null(), nil
	}
}

// string reads a JSON string at p.i. A string with no escapes that is
// valid UTF-8 is its own bytes; any other goes through encoding/json's
// unquoting, which resolves escapes and surrogate pairs and replaces
// invalid UTF-8.
func (p *cellParser) string() table.Value {
	start := p.i
	escaped := false
	for p.i++; p.i < len(p.data); p.i++ {
		switch p.data[p.i] {
		case '\\':
			escaped = true
			p.i++
		case '"':
			p.i++
			raw := p.data[start+1 : p.i-1]
			if !escaped && utf8.Valid(raw) {
				return table.String(string(raw))
			}
			var s string
			if err := json.Unmarshal(p.data[start:p.i], &s); err != nil {
				p.syntaxError()
			}
			return table.String(s)
		}
	}
	p.syntaxError()
	return table.Null()
}

// skipComposite moves past the object or array at p.i.
func (p *cellParser) skipComposite() {
	depth := 0
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case '"':
			p.string()
			continue
		case '[', '{':
			depth++
		case ']', '}':
			depth--
			if depth == 0 {
				p.i++
				return
			}
		}
		p.i++
	}
	p.syntaxError()
}

// toInput validates the instance and assembles the solver input: both
// relations present, key/FK columns named and existing in their schemas,
// and the constraint DSL parsed.
func (wi *wireInstance) toInput() (core.Input, error) {
	r1, err := wi.R1.relation("R1")
	if err != nil {
		return core.Input{}, err
	}
	r2, err := wi.R2.relation("R2")
	if err != nil {
		return core.Input{}, err
	}
	return assembleInput(r1, r2, wi.K1, wi.K2, wi.FK, wi.Constraints)
}

// relation validates the wire relation and builds it around the decoded
// rows. Within a row, a wrong cell count is reported first, then an
// undecodable cell, then a cell of the wrong type; the first row with any
// of these is reported.
func (rj *wireRelation) relation(fallbackName string) (*table.Relation, error) {
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
	schema, err := table.MakeSchema(cols...)
	if err != nil {
		return nil, badRequest("relation %s: %v", name, err)
	}
	rows, bad := rj.Rows.rows, rj.Rows.bad
	// Rows before b have the right shape and decoded; only their types
	// are left to check.
	b := len(rows)
	for i, row := range rows {
		if len(row) != len(cols) || (bad != nil && bad.row == i) {
			b = i
			break
		}
	}
	rel := table.NewRelation(name, schema)
	if err := rel.AppendRows(rows[:b]); err != nil {
		return nil, badRequest("relation %s: %v", name, err)
	}
	switch {
	case b == len(rows):
		return rel, nil
	case len(rows[b]) != len(cols):
		return nil, badRequest("relation %s: row %d has %d cells, schema has %d columns", name, b, len(rows[b]), len(cols))
	default:
		return nil, badRequest("relation %s: row %d, column %q: %v", name, b, cols[bad.col].Name, bad.err)
	}
}

// toDelta converts the wire delta into the engine's form.
func (wd *wireDelta) toDelta() (incr.Delta, error) {
	var d incr.Delta
	if len(wd.CCTargets) > 0 {
		// Decode in sorted key order so a request with several malformed
		// keys always gets the same 400 body — ranging the map made the
		// reported key vary run to run.
		keys := make([]string, 0, len(wd.CCTargets))
		for k := range wd.CCTargets {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		d.CCTargets = make(map[int]int64, len(wd.CCTargets))
		for _, k := range keys {
			i, err := strconv.Atoi(k)
			if err != nil {
				return d, badRequest("delta: cc_targets key %q is not a CC index", k)
			}
			d.CCTargets[i] = wd.CCTargets[k]
		}
	}
	for n, ed := range wd.R1Edits {
		if ed.Val.err != nil {
			return d, badRequest("delta: r1_edits[%d]: %v", n, ed.Val.err)
		}
		d.R1Edits = append(d.R1Edits, incr.CellEdit{Row: ed.Row, Col: ed.Col, Val: ed.Val.v})
	}
	if bad := wd.R1Appends.bad; bad != nil {
		return d, badRequest("delta: r1_appends[%d][%d]: %v", bad.row, bad.col, bad.err)
	}
	if len(wd.R1Appends.rows) > 0 {
		d.R1Appends = wd.R1Appends.rows
	}
	return d, nil
}

// parseDelta validates the warm-start shape: base and delta both present,
// no instance fields (the base names the instance), no options (the base
// solve's options are inherited — a delta cannot change them).
func (req *wireSolveRequest) parseDelta() (*solveParsed, error) {
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

// parseBatchRequest decodes and validates POST /v1/batch: every instance
// is assembled and fingerprinted under the batch's one Options.
func parseBatchRequest(r *http.Request) (*wireBatchRequest, []jobInstance, core.Options, error) {
	var req wireBatchRequest
	if err := decodeJSON(r, &req, &BatchRequest{}); err != nil {
		return nil, nil, core.Options{}, err
	}
	if len(req.Instances) == 0 {
		return nil, nil, core.Options{}, badRequest("batch request has no instances")
	}
	opt, err := req.Options.toOptions()
	if err != nil {
		return nil, nil, core.Options{}, err
	}
	instances := make([]jobInstance, len(req.Instances))
	for i := range req.Instances {
		in, err := req.Instances[i].toInput()
		if err != nil {
			return nil, nil, core.Options{}, badRequest("instance %d: %v", i, err)
		}
		key, err := core.Fingerprint(in, opt)
		if err != nil {
			return nil, nil, core.Options{}, badRequest("instance %d: fingerprint: %v", i, err)
		}
		instances[i] = jobInstance{in: in, key: key}
	}
	return &req, instances, opt, nil
}

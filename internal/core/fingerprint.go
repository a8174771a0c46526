package core

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"sort"

	"repro/internal/constraint"
	"repro/internal/table"
)

// fingerprintVersion tags the canonical encoding; bump it whenever the
// encoding (or anything the solver's output depends on) changes shape, so
// stale persisted cache entries can never be served for a new format.
const fingerprintVersion = "linksynth-fp-v1"

// Fingerprint returns the SHA-256 content address of a solver instance:
// two (Input, Options) pairs share a key iff the canonical encodings of
// their relations, constraints and output-relevant options agree, and every
// such pair is guaranteed the byte-identical *Result. The encoding covers
// relation names, schemas and rows, K1/K2/FK, the constraint sets rendered
// through the DSL with names elided (constraint.CanonicalConstraints), and
// all Options fields except Workers — the pool size never changes the
// output (see Options.Workers), so a sequential and a parallel solve of the
// same instance share one cache entry. A nonzero ILP.TimeLimit voids the
// solver's determinism promise; it is part of the key, but callers that
// need strict reproducibility should not cache under it.
func Fingerprint(in Input, opt Options) ([32]byte, error) {
	w := newFPWriter()
	if err := w.data(in); err != nil {
		return [32]byte{}, err
	}
	w.tail(in.CCs, in.DCs, opt)
	return w.sum(), nil
}

// FingerprintCheckpoint is Fingerprint's hash state after an instance's
// data part: the encoding version, K1, K2, FK, R1 and R2. Resume hashes
// only the rest, the constraints and options, so a caller holding the
// checkpoint of an instance keys any re-targeting of its constraints
// without rehashing the relations. The zero value is not a checkpoint.
type FingerprintCheckpoint struct {
	state []byte // the SHA-256 digest's marshaled state
}

// NewFingerprintCheckpoint hashes the data part of in and saves the state.
// in.CCs and in.DCs are not read.
func NewFingerprintCheckpoint(in Input) (FingerprintCheckpoint, error) {
	w := newFPWriter()
	if err := w.data(in); err != nil {
		return FingerprintCheckpoint{}, err
	}
	w.h.Write(w.buf) // the saved state must hold the bytes still buffered
	state, err := w.h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return FingerprintCheckpoint{}, fmt.Errorf("core: fingerprint checkpoint: %w", err)
	}
	return FingerprintCheckpoint{state: state}, nil
}

// Resume returns Fingerprint of the checkpointed instance with its
// constraint sets replaced by ccs and dcs, under opt: the same key as
// Fingerprint of that instance, computed from the checkpoint.
func (c FingerprintCheckpoint) Resume(ccs []constraint.CC, dcs []constraint.DC, opt Options) ([32]byte, error) {
	w := newFPWriter()
	if err := w.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(c.state); err != nil {
		return [32]byte{}, fmt.Errorf("core: resume fingerprint: %w", err)
	}
	w.tail(ccs, dcs, opt)
	return w.sum(), nil
}

// data writes Fingerprint's data part: the version, the key columns and
// both relations.
func (w *fpWriter) data(in Input) error {
	w.string(fingerprintVersion)
	w.string(in.K1)
	w.string(in.K2)
	w.string(in.FK)
	if err := w.relation(in.R1); err != nil {
		return fmt.Errorf("core: fingerprint R1: %w", err)
	}
	if err := w.relation(in.R2); err != nil {
		return fmt.Errorf("core: fingerprint R2: %w", err)
	}
	return nil
}

// tail writes Fingerprint's tail: the canonical constraint sets and the
// options.
func (w *fpWriter) tail(ccs []constraint.CC, dcs []constraint.DC, opt Options) {
	w.string(constraint.CanonicalConstraints(ccs, dcs))
	w.options(opt)
}

// fpBlock is how many encoded bytes fpWriter gathers before hashing them.
const fpBlock = 1 << 12

// fpWriter builds a canonical encoding in an append buffer and hashes it a
// block at a time. The encoding is thousands of tiny fields (a varint per
// cell), and an append per field, with no interface call, keeps a large
// instance's fingerprint free of per-cell allocations.
type fpWriter struct {
	h   hash.Hash
	buf []byte
}

// newFPWriter sizes the buffer for a block plus the field or row that
// crosses into the next one; a longer one grows it.
func newFPWriter() *fpWriter {
	return &fpWriter{h: sha256.New(), buf: make([]byte, 0, 2*fpBlock)}
}

// flushFull hashes the buffer once it holds a full block.
func (w *fpWriter) flushFull() {
	if len(w.buf) >= fpBlock {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *fpWriter) uint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
	w.flushFull()
}

func (w *fpWriter) bool(b bool) {
	if b {
		w.uint(1)
	} else {
		w.uint(0)
	}
}

// string writes s length-prefixed.
func (w *fpWriter) string(s string) {
	w.uint(uint64(len(s)))
	w.buf = append(w.buf, s...)
	w.flushFull()
}

func (w *fpWriter) sum() [32]byte {
	var key [32]byte
	w.h.Write(w.buf)
	w.buf = w.buf[:0]
	w.h.Sum(key[:0])
	return key
}

// relation encodes name, schema and rows. Strings are length-prefixed and
// values carry a kind tag, so no two distinct relations share an encoding.
func (w *fpWriter) relation(r *table.Relation) error {
	if r == nil {
		return fmt.Errorf("nil relation")
	}
	w.string(r.Name)
	s := r.Schema()
	w.uint(uint64(s.Len()))
	for j := 0; j < s.Len(); j++ {
		c := s.Col(j)
		w.string(c.Name)
		w.uint(uint64(c.Type))
	}
	w.uint(uint64(r.Len()))
	// The rows are most of the encoding: append them through a local
	// buffer, checking for a full block once per row.
	buf := w.buf
	for i := 0; i < r.Len(); i++ {
		for _, v := range r.Row(i) {
			buf = binary.AppendUvarint(buf, uint64(v.Kind()))
			switch v.Kind() {
			case table.KindInt:
				buf = binary.AppendUvarint(buf, uint64(v.Int()))
			case table.KindString:
				buf = binary.AppendUvarint(buf, uint64(len(v.Str())))
				buf = append(buf, v.Str()...)
			}
		}
		if len(buf) >= fpBlock {
			w.h.Write(buf)
			buf = buf[:0]
		}
	}
	w.buf = buf
	return nil
}

// structuralVersion tags the canonical structural encoding; bump it whenever
// the encoding (or anything the compiled plan depends on) changes shape.
const structuralVersion = "linksynth-sfp-v1"

// StructuralFingerprint returns the SHA-256 address of an instance's
// *structure*: the schemas, key/FK wiring, canonical constraint sets, and
// all output-relevant Options — with the row data excluded. It is the key
// of the compiled-plan cache: two instances share a structural fingerprint
// iff the expensive data-independent compilation artifacts (CC pairwise
// classification, hybrid split, Hasse forest shape) are interchangeable
// between them.
//
// Unlike Fingerprint, the encoding is canonicalized for order: schema
// columns are hashed as a sorted (name, type) set and constraints are
// hashed as sorted canonical renders, so declaring columns or constraints
// in a different order yields the same key. It stays sensitive to anything
// that changes the compiled structure or the solve semantics: constraint
// predicates and bounds (targets), the key/FK column names, and every
// output-relevant Option (mode, order, seed, ILP budgets). Relation names
// and rows are excluded.
func StructuralFingerprint(in Input, opt Options) ([32]byte, error) {
	var key [32]byte
	if in.R1 == nil || in.R2 == nil {
		return key, fmt.Errorf("core: structural fingerprint: nil relation")
	}
	w := newFPWriter()
	w.string(structuralVersion)
	w.string(in.K1)
	w.string(in.K2)
	w.string(in.FK)
	w.schemaSet(in.R1.Schema())
	w.schemaSet(in.R2.Schema())

	ccs := canonicalCCRenders(in.CCs)
	w.uint(uint64(len(ccs)))
	for _, s := range ccs {
		w.string(s)
	}
	dcs := make([]string, len(in.DCs))
	for i, dc := range in.DCs {
		dc.Name = ""
		dcs[i] = constraint.RenderDC(dc)
	}
	sort.Strings(dcs)
	w.uint(uint64(len(dcs)))
	for _, s := range dcs {
		w.string(s)
	}

	w.options(opt)
	return w.sum(), nil
}

// options hashes every output-relevant Options field — shared by
// Fingerprint and StructuralFingerprint so the two keys can never drift in
// option sensitivity. Workers is deliberately absent (the pool size never
// changes the output).
func (w *fpWriter) options(opt Options) {
	w.uint(uint64(opt.Mode))
	w.bool(opt.NoMarginals)
	w.bool(opt.RandomFK)
	w.bool(opt.NoPartition)
	w.uint(uint64(opt.Order))
	w.uint(uint64(opt.Seed))
	w.uint(uint64(opt.ILP.MaxNodes))
	w.uint(uint64(opt.ILP.MaxIters))
	w.uint(uint64(opt.ILP.TimeLimit))
}

// schemaSet hashes a schema as an order-independent set of (name, type)
// pairs.
func (w *fpWriter) schemaSet(s *table.Schema) {
	cols := make([]string, s.Len())
	for j := 0; j < s.Len(); j++ {
		c := s.Col(j)
		cols[j] = fmt.Sprintf("%s\x00%d", c.Name, c.Type)
	}
	sort.Strings(cols)
	w.uint(uint64(len(cols)))
	for _, c := range cols {
		w.string(c)
	}
}

// canonicalCCRenders returns the name-elided DSL render of every CC, sorted.
func canonicalCCRenders(ccs []constraint.CC) []string {
	out := make([]string, len(ccs))
	for i, cc := range ccs {
		cc.Name = ""
		out[i] = constraint.RenderCC(cc)
	}
	sort.Strings(out)
	return out
}

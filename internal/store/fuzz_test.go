package store

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"repro/internal/constraint"
	"repro/internal/core"
)

// FuzzFileFraming feeds arbitrary bytes to the framing parser shared by
// every store file and to the result-file reader. Neither may panic. An
// image parseFile accepts re-encodes through buildFile to the same bytes,
// so each file has exactly one encoding. A result file the reader accepts
// is exactly the encoding of the key and body it yields, so no file yields
// a body under any key but the one in its key section.
func FuzzFileFraming(f *testing.F) {
	in := censusInput(8, 1)
	snap, _, err := encodeSnapshot(in.R2)
	if err != nil {
		f.Fatal(err)
	}
	opt := core.Options{Seed: 1}
	pl, err := core.CompilePlan(in, opt)
	if err != nil {
		f.Fatal(err)
	}
	sess, err := encodeSessionRecord(&SessionRecord{
		K1: in.K1, K2: in.K2, FK: in.FK, Opt: opt, CCs: in.CCs, DCs: in.DCs, Plan: pl,
	})
	if err != nil {
		f.Fatal(err)
	}
	res := EncodeResult(sha256.Sum256([]byte("key")), []byte(`{"key":"k","dc_error":0}`))
	f.Add(snap)
	f.Add(sess)
	f.Add(res)
	// A result file with an empty third section appended: correctly
	// framed, but not a result file.
	f.Add(append(res[:len(res):len(res)], buildFile(fileKindResult, []section{{kind: secResBody}})[16:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []uint32{fileKindSnapshot, fileKindSession, fileKindResult} {
			secs, err := parseFile(data, kind)
			if err != nil {
				continue
			}
			if !bytes.Equal(buildFile(kind, secs), data) {
				t.Fatalf("file kind %d: parsed image re-encodes to different bytes", kind)
			}
		}
		key, body, err := ParseResult(data)
		if err != nil {
			return
		}
		secs, err := parseFile(data, fileKindResult)
		if err != nil {
			t.Fatalf("result reader accepted an image the framing rejects: %v", err)
		}
		if keySec, _ := findSection(secs, secResKey); !bytes.Equal(key[:], keySec) {
			t.Fatalf("result reader yielded key %x, key section holds %x", key, keySec)
		}
		if !bytes.Equal(EncodeResult(key, body), data) {
			t.Fatal("result file is not the encoding of the key and body it yields")
		}
	})
}

// FuzzSessionRecord feeds the session-record decoder — the meta section,
// the constraint DSL and the plan blob a peer's /v1/store/ push can carry
// — three arbitrary section payloads, framed into a valid session file so
// that every input gets past the CRCs. The decoder may not panic. A record
// it accepts re-encodes; that image decodes, and encoding it again yields
// the same bytes, so a restored record persists back unchanged.
func FuzzSessionRecord(f *testing.F) {
	in := censusInput(8, 1)
	opt := core.Options{Seed: 1}
	pl, err := core.CompilePlan(in, opt)
	if err != nil {
		f.Fatal(err)
	}
	meta := encodeSessionMeta(&SessionRecord{K1: in.K1, K2: in.K2, FK: in.FK, Opt: opt})
	var cons bytes.Buffer
	if err := constraint.WriteConstraints(&cons, in.CCs, in.DCs); err != nil {
		f.Fatal(err)
	}
	plan := core.EncodePlan(pl)
	f.Add(meta, cons.Bytes(), plan)
	f.Add(meta, cons.Bytes(), []byte{})
	f.Add(meta[:len(meta)-1], cons.Bytes(), plan)
	f.Add(append(meta[:len(meta):len(meta)], 0), cons.Bytes(), plan)

	f.Fuzz(func(t *testing.T, meta, cons, plan []byte) {
		secs, err := parseFile(buildFile(fileKindSession, []section{
			{kind: secSessMeta, payload: meta},
			{kind: secSessCons, payload: cons},
			{kind: secSessPlan, payload: plan},
		}), fileKindSession)
		if err != nil {
			t.Fatalf("framing rejects its own image: %v", err)
		}
		rec, err := decodeSessionRecord(secs)
		if err != nil {
			return
		}
		img, err := encodeSessionRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		secs, err = parseFile(img, fileKindSession)
		if err != nil {
			t.Fatalf("re-encoded image fails its framing: %v", err)
		}
		again, err := decodeSessionRecord(secs)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		img2, err := encodeSessionRecord(again)
		if err != nil {
			t.Fatalf("decoded re-encoding does not encode: %v", err)
		}
		if !bytes.Equal(img2, img) {
			t.Fatal("a decoded re-encoding encodes to different bytes")
		}
	})
}

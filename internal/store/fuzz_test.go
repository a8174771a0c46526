package store

import (
	"bytes"
	"crypto/sha256"
	"testing"

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
	res := encodeResult(sha256.Sum256([]byte("key")), []byte(`{"key":"k","dc_error":0}`))
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
		key, body, err := parseResult(data)
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
		if !bytes.Equal(encodeResult(key, body), data) {
			t.Fatal("result file is not the encoding of the key and body it yields")
		}
	})
}

// Package store is the disk-resident tier under the serving layer's warm
// path: content-addressed relation snapshots, persisted session records
// (base instance references, constraints, compiled plan), and the result
// cache's files, all under one data directory and in one file format. A
// snapshot holds the relation encoding the instance fingerprint hashes
// (table.AppendRelation), and loading one decodes it straight into rows.
//
// Durability follows the MOD recipe: all data files are immutable and
// published with a single atomic flip — write to a temp file in the target
// directory, fsync, rename into place, fsync the directory. A reader
// therefore only ever observes a file that is absent or complete; torn
// tails from a crash mid-write are confined to temp files, which Open
// sweeps away. Every section of every file is CRC-framed, so corruption
// that defeats the rename discipline (bit rot, truncation by an external
// actor) is detected on read and the file is quarantined, never served.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// File framing: a 16-byte header (magic, file kind, version) followed by
// sections. Each section starts at an 8-byte-aligned offset with a 16-byte
// header — kind, CRC-32 (IEEE) of the payload, payload length — then the
// payload, zero-padded to the next 8-byte boundary. No reader needs the
// alignment any more; it stays so that the result files and session
// records already on disk keep their bytes.

var fileMagic = [8]byte{'L', 'S', 'S', 'T', 'O', 'R', '1', '\n'}

const fileVersion = 1

// File kinds.
const (
	fileKindSnapshot uint32 = 1
	fileKindSession  uint32 = 2
	fileKindResult   uint32 = 3
)

// Section kinds. Kinds 1 and 2 held a snapshot's name and columnar blob
// in an older format; they are never reused.
const (
	secSessMeta     uint32 = 3 // session record metadata
	secSessCons     uint32 = 4 // constraint text (constraint.WriteConstraints)
	secSessPlan     uint32 = 5 // core.Plan blob (empty when no plan)
	secResKey       uint32 = 6 // result cache key (the file's name)
	secResBody      uint32 = 7 // cached response body
	secSnapRelation uint32 = 8 // relation encoding (table.AppendRelation)
)

type section struct {
	kind    uint32
	payload []byte
}

func pad8len(n int) int { return (n + 7) &^ 7 }

// buildFile assembles the complete byte image of a store file.
func buildFile(fileKind uint32, secs []section) []byte {
	size := 16
	for _, s := range secs {
		size += 16 + pad8len(len(s.payload))
	}
	out := make([]byte, 0, size)
	out = append(out, fileMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, fileKind)
	out = binary.LittleEndian.AppendUint32(out, fileVersion)
	for _, s := range secs {
		out = binary.LittleEndian.AppendUint32(out, s.kind)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(s.payload))
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
		out = append(out, s.payload...)
		for len(out)%8 != 0 {
			out = append(out, 0)
		}
	}
	return out
}

// parseFile validates the framing of a complete file image and returns its
// sections (payloads aliasing data). Any truncation — a partial header, a
// payload running past the end, padding cut short — or a CRC mismatch
// fails with an error describing the first defect; a parsed file is fully
// intact.
func parseFile(data []byte, wantKind uint32) ([]section, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("store: file truncated: %d header bytes", len(data))
	}
	if string(data[:8]) != string(fileMagic[:]) {
		return nil, fmt.Errorf("store: bad magic %q", data[:8])
	}
	if k := binary.LittleEndian.Uint32(data[8:12]); k != wantKind {
		return nil, fmt.Errorf("store: file kind %d, want %d", k, wantKind)
	}
	if v := binary.LittleEndian.Uint32(data[12:16]); v != fileVersion {
		return nil, fmt.Errorf("store: unsupported file version %d", v)
	}
	var secs []section
	off := 16
	for off < len(data) {
		if off+16 > len(data) {
			return nil, fmt.Errorf("store: torn section header at offset %d", off)
		}
		kind := binary.LittleEndian.Uint32(data[off : off+4])
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		plen64 := binary.LittleEndian.Uint64(data[off+8 : off+16])
		off += 16
		if plen64 > uint64(len(data)-off) {
			return nil, fmt.Errorf("store: torn section payload at offset %d: %d bytes declared, %d remain", off, plen64, len(data)-off)
		}
		plen := int(plen64)
		payload := data[off : off+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, fmt.Errorf("store: section kind %d at offset %d: CRC mismatch", kind, off)
		}
		off += plen
		for pad := pad8len(plen) - plen; pad > 0; pad-- {
			if off >= len(data) {
				return nil, fmt.Errorf("store: torn section padding at offset %d", off)
			}
			if data[off] != 0 {
				return nil, fmt.Errorf("store: nonzero padding at offset %d", off)
			}
			off++
		}
		secs = append(secs, section{kind: kind, payload: payload})
	}
	return secs, nil
}

// findSection returns the first section of the given kind.
func findSection(secs []section, kind uint32) ([]byte, error) {
	for _, s := range secs {
		if s.kind == kind {
			return s.payload, nil
		}
	}
	return nil, fmt.Errorf("store: missing section kind %d", kind)
}

// atomicWriteFile publishes data at path with the write-temp → fsync →
// rename → fsync-dir discipline; after it returns, the file is durable and
// readers see either the complete content or nothing.
func atomicWriteFile(path string, data []byte) error {
	return atomicWriteFileAt(path, data, time.Time{})
}

// atomicWriteFileAt also stamps the file with modification time mod,
// unless zero, before the fsync that makes it as durable as the content.
func atomicWriteFileAt(path string, data []byte, mod time.Time) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if !mod.IsZero() {
		if err := os.Chtimes(tmpName, mod, mod); err != nil {
			return cleanup(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

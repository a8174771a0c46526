package store

import (
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Result files hold the result cache's bodies, one file per key:
// <dir>/<key>.res with a key section and a body section, framed and
// published like snapshots and session records.

const resExt = ".res"

func resultPath(dir string, key [32]byte) string {
	return filepath.Join(dir, hex.EncodeToString(key[:])+resExt)
}

func encodeResult(key [32]byte, body []byte) []byte {
	return buildFile(fileKindResult, []section{
		{kind: secResKey, payload: key[:]},
		{kind: secResBody, payload: body},
	})
}

// parseResult decodes a complete result file image. A file parses only if
// it holds exactly one 32-byte key section followed by one body section,
// so the body it yields belongs to the key its own bytes name.
func parseResult(data []byte) (key [32]byte, body []byte, err error) {
	secs, err := parseFile(data, fileKindResult)
	if err != nil {
		return key, nil, err
	}
	if len(secs) != 2 || secs[0].kind != secResKey || len(secs[0].payload) != 32 || secs[1].kind != secResBody {
		return key, nil, fmt.Errorf("store: result file does not hold exactly a key and a body section")
	}
	copy(key[:], secs[0].payload)
	return key, secs[1].payload, nil
}

// ResultDir is a directory of result files that loads them in the order
// they were written. Each write stamps its file's modification time past
// the newest file's: the kernel's own file times tick more coarsely than
// writes arrive, and the clock can step back. The stamps need a
// filesystem that keeps them (ext4, xfs, btrfs and tmpfs keep
// nanoseconds); with coarser ones, files stamped within one unit load in
// name order. Callers serialize the methods.
type ResultDir struct {
	dir         string
	lastMod     time.Time // modification time of the newest file
	quarantined int       // files Open renamed aside
}

// OpenResultDir creates dir if needed and calls fn for every intact result
// file in it, in the order they were written (oldest modification time
// first, ties by name). A file that fails its framing, or whose key
// section differs from its name, is renamed aside with a .corrupt suffix
// and skipped; a file that cannot be read is skipped in place; temp files
// are ignored. Only a directory that cannot be created or listed is an
// error. fn owns body.
func OpenResultDir(dir string, fn func(key [32]byte, body []byte)) (*ResultDir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []fs.FileInfo
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), resExt) || !e.Type().IsRegular() {
			continue
		}
		if info, err := e.Info(); err == nil {
			files = append(files, info)
		}
	}
	// ReadDir lists by name, so the stable sort breaks mtime ties by name.
	sort.SliceStable(files, func(i, j int) bool { return files[i].ModTime().Before(files[j].ModTime()) })
	r := &ResultDir{dir: dir}
	for _, info := range files {
		r.lastMod = info.ModTime()
		path := filepath.Join(dir, info.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		key, body, err := parseResult(data)
		if err != nil || resultPath(dir, key) != path {
			quarantineFile(path)
			r.quarantined++
			continue
		}
		fn(key, body)
	}
	return r, nil
}

// Quarantined returns the number of result files OpenResultDir renamed
// aside.
func (r *ResultDir) Quarantined() int { return r.quarantined }

// Write publishes body as the result file for key, atomically replacing
// any earlier file for the key, and makes it the newest file. now is the
// caller's wall-clock reading; the file is stamped with it, or one
// nanosecond past the newest file when now is not beyond that.
func (r *ResultDir) Write(key [32]byte, body []byte, now time.Time) error {
	mod := now.Round(0) // wall reading only: file times are wall times
	if !mod.After(r.lastMod) {
		mod = r.lastMod.Add(time.Nanosecond)
	}
	r.lastMod = mod
	return atomicWriteFileAt(resultPath(r.dir, key), encodeResult(key, body), mod)
}

// Remove deletes the result files of keys; a missing file is not an error.
func (r *ResultDir) Remove(keys [][32]byte) error {
	for _, key := range keys {
		if err := os.Remove(resultPath(r.dir, key)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

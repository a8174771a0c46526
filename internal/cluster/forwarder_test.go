package cluster

import (
	"errors"
	"strings"
	"testing"
)

// endless is a reader that never ends, counting the bytes handed out.
type endless struct{ n int64 }

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	e.n += int64(len(p))
	return len(p), nil
}

func TestReadBodyRefusesPastLimit(t *testing.T) {
	for _, n := range []int{0, 7, 8} {
		b, err := readBody(strings.NewReader(strings.Repeat("x", n)), 8)
		if err != nil || len(b) != n {
			t.Errorf("%d-byte reply at limit 8: %d bytes, err %v", n, len(b), err)
		}
	}
	var r endless
	b, err := readBody(&r, 8)
	if !errors.Is(err, errTooLarge) || b != nil {
		t.Fatalf("endless reply at limit 8: %d bytes, err %v; want none and errTooLarge", len(b), err)
	}
	if r.n != 9 {
		t.Errorf("read %d bytes of an endless reply, want limit+1 = 9", r.n)
	}
}

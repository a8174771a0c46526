package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// The store exchange retries only transport errors, and only they mark
// the peer down. A status is the peer's answer and an oversize reply is
// not the link's fault: neither is retried or held against the peer.
func TestStoreExchangeRetryRules(t *testing.T) {
	for _, tc := range []struct {
		what   string
		fetch  bool
		reply  func(w http.ResponseWriter)
		ok     bool
		calls  int32
		downed bool
	}{
		{what: "accepted push", reply: func(w http.ResponseWriter) { w.WriteHeader(http.StatusNoContent) }, ok: true, calls: 1},
		{what: "served fetch", fetch: true, reply: func(w http.ResponseWriter) { w.Write([]byte("file")) }, ok: true, calls: 1},
		{what: "rejected push", reply: func(w http.ResponseWriter) { http.Error(w, "bad payload", http.StatusBadRequest) }, calls: 1},
		{what: "fetch of a file not held", fetch: true, reply: func(w http.ResponseWriter) { http.NotFound(w, nil) }, calls: 1},
		{what: "oversize push reply", reply: func(w http.ResponseWriter) { w.Write(bytes.Repeat([]byte("x"), maxPushReply+1)) }, calls: 1},
		{what: "dropped connection", reply: func(w http.ResponseWriter) {
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close()
		}, calls: storeAttempts, downed: true},
	} {
		var calls atomic.Int32
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			tc.reply(w)
		}))
		c, err := New(Config{Self: "http://self:1", Peers: []string{ts.URL}})
		if err != nil {
			t.Fatal(err)
		}
		if tc.fetch {
			_, err = c.FetchStore(context.Background(), ts.URL, "ab")
		} else {
			err = c.PushStore(context.Background(), ts.URL, "ab", []byte("file"))
		}
		ts.Close()
		if (err == nil) != tc.ok {
			t.Errorf("%s: err %v, want ok %v", tc.what, err, tc.ok)
		}
		if n := calls.Load(); n != tc.calls {
			t.Errorf("%s: %d attempts, want %d", tc.what, n, tc.calls)
		}
		if downed := len(c.UpNodes()) == 1; downed != tc.downed {
			t.Errorf("%s: peer marked down %v, want %v", tc.what, downed, tc.downed)
		}
	}
}

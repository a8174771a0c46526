// The durability example walks through linksynthd's durable store: a node
// with a data directory solves a base instance and a warm-start delta, gets
// kill -9'd (no graceful shutdown), and a fresh process over the same
// directory answers the replayed delta byte-identically — zero solver runs,
// zero cold solves — because the result cache files, the relation
// snapshots, and the session record (constraints, options, compiled plan)
// all survived: each is published by an atomic rename, so a crash leaves
// it whole or absent. A delta never seen before the crash also solves
// warm: the restored session carries the persisted plan.
//
// A real deployment is just `linksynthd -data-dir /var/lib/linksynth`; see
// the README's "Durability & restarts" section.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/service"
	"repro/internal/store"
)

const constraints = `cc owners_chi: count(Rel = 'Owner', Area = 'Chicago') = 2
cc owners_nyc: count(Rel = 'Owner', Area = 'NYC') = 1
dc one_owner: deny t1.Rel = 'Owner' & t2.Rel = 'Owner'`

func instance() service.InstanceJSON {
	return service.InstanceJSON{
		R1: &service.RelationJSON{
			Name: "Persons",
			Columns: []service.ColumnJSON{
				{Name: "pid", Type: "int"}, {Name: "Age", Type: "int"},
				{Name: "Rel", Type: "string"}, {Name: "hid", Type: "int"},
			},
			Rows: [][]any{
				{1, 70, "Owner", nil}, {2, 25, "Owner", nil},
				{3, 24, "Spouse", nil}, {4, 30, "Owner", nil},
			},
		},
		R2: &service.RelationJSON{
			Name: "Housing",
			Columns: []service.ColumnJSON{
				{Name: "hid", Type: "int"}, {Name: "Area", Type: "string"},
			},
			Rows: [][]any{{1, "Chicago"}, {2, "Chicago"}, {3, "NYC"}, {4, "NYC"}},
		},
		K1: "pid", K2: "hid", FK: "hid",
		Constraints: constraints,
	}
}

// node is one linksynthd "process": a Server wired to a store and a cache
// rooted in the shared data directory, exactly as -data-dir does.
type node struct {
	url string
	srv *service.Server
	hs  *http.Server
}

func startNode(dataDir string) *node {
	st, err := store.Open(dataDir)
	if err != nil {
		log.Fatal(err)
	}
	c, err := cache.Open(st.CacheDir(), 256)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	nd := &node{url: "http://" + ln.Addr().String()}
	nd.srv = service.New(service.Config{Cache: c, Workers: -1, Store: st})
	nd.hs = &http.Server{Handler: nd.srv}
	go nd.hs.Serve(ln)
	return nd
}

func main() {
	dataDir, err := os.MkdirTemp("", "linksynth-durability-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)

	// Process 1: solve a base and a what-if delta against it.
	nd := startNode(dataDir)
	fmt.Printf("process 1 on %s, data dir %s\n\n", nd.url, dataDir)

	baseBody, hdr := post(nd.url+"/v1/solve", service.SolveRequest{
		InstanceJSON: instance(), Options: &service.OptionsJSON{Seed: 1}})
	var base service.SolveResponse
	if err := json.Unmarshal(baseBody, &base); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("POST /v1/solve (base)   -> cache %-5s key %s…\n", hdr.Get("X-Linksynth-Cache"), base.Key[:12])

	delta := service.SolveRequest{Base: base.Key, Delta: &service.DeltaJSON{
		CCTargets: map[string]int64{"0": 3},
		R1Edits:   []service.CellEditJSON{{Row: 3, Col: "Rel", Val: "Spouse"}},
	}}
	deltaBody, hdr := post(nd.url+"/v1/solve", delta)
	fmt.Printf("POST /v1/solve (delta)  -> incr %-8s %d bytes\n", hdr.Get("X-Linksynth-Incr"), len(deltaBody))

	// The persister writes session state off the request path; wait for it
	// to land before crashing (an orderly Close would flush it instead).
	for !strings.Contains(metricLine(nd.url, "linksynthd_store_sessions_persisted_total"), " 1") {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("durable: %s / %s / %s\n\n",
		metricLine(nd.url, "linksynthd_store_snapshots"),
		metricLine(nd.url, "linksynthd_store_sessions"),
		metricLine(nd.url, "linksynthd_cache_entries"))

	// kill -9: drop the listener and abandon the process state. No flush,
	// no session drain — only what was already durable survives.
	nd.hs.Close()
	fmt.Println("process 1 killed (no graceful shutdown)")

	// Process 2: same data directory, empty memory.
	nd2 := startNode(dataDir)
	fmt.Printf("process 2 on %s\n\n", nd2.url)

	replay, hdr := post(nd2.url+"/v1/solve", delta)
	fmt.Printf("POST /v1/solve (same delta) -> cache %-5s byte-identical: %v\n",
		hdr.Get("X-Linksynth-Cache"), bytes.Equal(replay, deltaBody))
	fmt.Printf("  %s\n", metricLine(nd2.url, "linksynthd_solver_runs_total"))
	fmt.Printf("  %s\n", metricLine(nd2.url, "linksynthd_incr_cold_solves_total"))
	fmt.Printf("  %s\n\n", metricLine(nd2.url, "linksynthd_store_sessions_restored_total"))

	// A delta the first process never saw: solved, but warm — the restored
	// session adopted the persisted plan.
	fresh := service.SolveRequest{Base: base.Key, Delta: &service.DeltaJSON{
		R1Edits: []service.CellEditJSON{{Row: 1, Col: "Age", Val: 33}},
	}}
	_, hdr = post(nd2.url+"/v1/solve", fresh)
	fmt.Printf("POST /v1/solve (new delta)  -> incr %-8s\n", hdr.Get("X-Linksynth-Incr"))
	fmt.Printf("  %s (still zero)\n", metricLine(nd2.url, "linksynthd_incr_cold_solves_total"))

	nd2.srv.Close()
}

func metricLine(url, name string) string {
	body, _ := get(url + "/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	return name + " ?"
}

func post(url string, v any) ([]byte, http.Header) {
	b, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		log.Fatalf("%s: %d: %s", url, resp.StatusCode, body)
	}
	return body, resp.Header
}

func get(url string) ([]byte, http.Header) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return body, resp.Header
}

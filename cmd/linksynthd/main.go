// Command linksynthd serves the C-Extension solver over HTTP with a
// content-addressed result cache and a durable store: identical instances
// are solved once and served byte-identically from the cache thereafter —
// including across restarts when -data-dir is set, in which case warm
// solver sessions are also persisted and revived, so previously seen
// {base, delta} traffic restarts with zero cold solves.
//
// Usage:
//
//	linksynthd -addr :8080 -workers -1 -data-dir /var/lib/linksynth \
//	    -cache-entries 4096 -max-body 64000000
//
// The data directory holds three kinds of state, all in the store's
// CRC-framed file format and published by atomic rename:
//
//	data/cache      result-cache bodies, one file per entry (*.res)
//	data/snapshots  content-addressed relation snapshots (*.snap)
//	data/sessions   session records: constraints, options, plan (*.sess)
//
// Scaling out: seed every node with -peers (or point a new node at any
// existing member with -join) plus its own -advertise URL and the nodes
// form a shared-nothing sharded cluster — each instance's fingerprint
// hashes to one owning node, non-owners forward to it, batch jobs scatter
// across the owners, and the member set is gossiped on the health-probe
// cycle so joins and leaves need no fleet restart. With -replicas K, each
// solved key's cache entry and durable session artifacts are pushed to
// its K ring-successors, so killing the owner leaves the first successor
// answering warm (byte-identical, zero re-solves for replicated keys).
// On SIGTERM a node leaves gracefully: it tombstones itself cluster-wide
// and streams parked sessions to their new owners before exiting.
//
//	linksynthd -addr :8081 -advertise http://10.0.0.1:8081 -replicas 2 \
//	    -peers http://10.0.0.1:8081,http://10.0.0.2:8081,http://10.0.0.3:8081
//	linksynthd -addr :8084 -advertise http://10.0.0.4:8084 -replicas 2 \
//	    -join http://10.0.0.1:8081
//
// Endpoints: POST /v1/solve (JSON or multipart CSV; a JSON body may also
// carry a "base" fingerprint plus "delta" for an incremental warm-start
// re-solve against a retained session — see -sessions), POST /v1/batch
// (async, returns a job id), GET /v1/jobs (list), GET /v1/jobs/{id},
// DELETE /v1/jobs/{id} (cancel), GET /healthz, GET /metrics (?format=json
// for JSON), GET /debug/flight (recent traces — see -flight-entries).
// Between nodes: GET and POST /v1/store/{fingerprint} (warm state pulled,
// or pushed through one verify gate), POST /v1/cluster/join and
// /v1/cluster/leave, GET /debug/cluster (every member's metric families,
// fetched as JSON and merged) and GET /debug/trace/{id} (one trace across
// members). See the repository README for request shapes and curl examples.
//
// Observability: every API request runs under a trace (X-Linksynth-Trace,
// echoed on the response and propagated across cluster hops), /metrics
// serves deterministic Prometheus exposition with latency histograms, and
// -debug-addr starts a separate listener serving net/http/pprof — kept off
// the API port so profiling is never exposed where the API is.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -debug-addr mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/obsv"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", -1, "solver pool size shared by all requests (-1 = GOMAXPROCS)")
	dataDir := flag.String("data-dir", "", "root directory for all durable state: result cache, relation snapshots, session records (empty = memory only)")
	cacheEntries := flag.Int("cache-entries", 1024, "maximum cached results (LRU beyond that)")
	maxBody := flag.Int64("max-body", 32<<20, "maximum request body bytes (413 beyond that)")
	queue := flag.Int("queue", 64, "bound on queued solves and pending async jobs (503 beyond that)")
	sessions := flag.Int("sessions", 64, "warm solver sessions retained for incremental delta re-solves (LRU beyond that)")
	plans := flag.Int("plans", 128, "compiled structural plans retained (LRU beyond that)")
	peers := flag.String("peers", "", "comma-separated seed list of cluster node URLs (empty = single-node)")
	join := flag.String("join", "", "URL of an existing cluster member to announce this node to (requires -advertise; combinable with -peers)")
	replicas := flag.Int("replicas", 0, "ring-successors each solved key is asynchronously replicated to for warm failover (0 = no replication)")
	advertise := flag.String("advertise", "", "this node's URL as peers reach it (required with -peers or -join)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "peer /healthz probing period")
	flightEntries := flag.Int("flight-entries", 256, "recent traces retained in the flight recorder (GET /debug/flight)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty = profiling disabled)")
	version := flag.Bool("version", false, "print build metadata and exit")
	flag.Parse()

	if *version {
		bi := obsv.BuildInfo()
		fmt.Printf("linksynthd %s (%s, revision %s, modified %s)\n", bi.Version, bi.GoVersion, bi.Revision, bi.Modified)
		return
	}

	var st *store.Store
	cacheRoot := ""
	if *dataDir != "" {
		var err error
		if st, err = store.Open(*dataDir); err != nil {
			fatalf("open store at -data-dir %q: %v", *dataDir, err)
		}
		cacheRoot = st.CacheDir()
	}

	c, err := cache.Open(cacheRoot, *cacheEntries)
	if err != nil {
		fatalf("open cache under -data-dir %q: %v", *dataDir, err)
	}
	defer c.Close()
	if cs := c.Stats(); cs.Replayed > 0 {
		log.Printf("cache: loaded %d entries from %s", cs.Replayed, cacheRoot)
	}
	if st != nil {
		ds := st.Stats()
		log.Printf("store: %d snapshots (%d bytes), %d sessions (%d bytes) at %s",
			ds.Snapshots, ds.SnapshotBytes, ds.Sessions, ds.SessionBytes, *dataDir)
	}

	var clu *cluster.Cluster
	if *peers != "" || *join != "" {
		if *advertise == "" {
			fatalf("-peers and -join require -advertise (this node's URL as peers reach it)")
		}
		var list []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				list = append(list, p)
			}
		}
		clu, err = cluster.New(cluster.Config{
			Self:          *advertise,
			Peers:         list,
			ProbeInterval: *probeInterval,
		})
		if err != nil {
			fatalf("%v", err)
		}
		if *join != "" {
			// Announce to the seed before serving: once JoinVia returns, the
			// seed owes the rest of the cluster our membership via gossip and
			// we hold the full member view — no fleet restart, no -peers edit.
			jctx, jcancel := context.WithTimeout(context.Background(), 30*time.Second)
			err := clu.JoinVia(jctx, *join)
			jcancel()
			if err != nil {
				fatalf("%v", err)
			}
			log.Printf("cluster: joined via %s", *join)
		}
		clu.Start()
		defer clu.Close()
		log.Printf("cluster: node %s with %d peers (probe every %s, replicas=%d)",
			clu.Self(), len(clu.Nodes())-1, *probeInterval, *replicas)
	}

	srv := service.New(service.Config{
		Cache:          c,
		Workers:        *workers,
		MaxBody:        *maxBody,
		QueueDepth:     *queue,
		Cluster:        clu,
		Replicas:       *replicas,
		SessionEntries: *sessions,
		PlanEntries:    *plans,
		Store:          st,
		FlightEntries:  *flightEntries,
	})
	defer srv.Close()

	if *debugAddr != "" {
		// pprof rides its own listener (and the default mux, where the
		// blank import registered it), so profiling exposure is an explicit
		// operator decision separate from the API address.
		go func() {
			dbg := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
			log.Printf("pprof listening on %s (/debug/pprof/)", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("linksynthd listening on %s (workers=%d, cache-entries=%d, data-dir=%q)",
		*addr, *workers, *cacheEntries, *dataDir)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatalf("listen on -addr %q: %v", *addr, err)
		}
	case <-ctx.Done():
		log.Printf("shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if clu != nil {
			// Graceful leave: tombstone this node on its peers and stream
			// parked sessions to their new owners while the listener still
			// answers pull-side handoff fetches, then stop accepting.
			srv.Leave(shCtx)
			log.Printf("cluster: left the member set; sessions migrated")
		}
		if err := httpSrv.Shutdown(shCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "linksynthd: "+format+"\n", args...)
	os.Exit(1)
}

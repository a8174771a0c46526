package service

import (
	"net/http"
	"strings"
	"testing"
)

// TestMetricsGoldenScrape pins the name, help text and type of every family
// a fully configured node serves (clustered, replicating, with a durable
// store and a solver pool), so that a change in how the families are
// registered or rendered cannot rename, retype or reword one unnoticed.
func TestMetricsGoldenScrape(t *testing.T) {
	nd := newElasticShell(t)
	startElastic(t, nd, []string{nd.url}, 1, true)
	resp, err := http.Get(nd.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(string(readBody(t, resp)), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			got = append(got, line)
		}
	}
	want := strings.Split(strings.TrimSpace(goldenScrape), "\n")
	if len(got) != len(want) {
		t.Errorf("scrape has %d HELP/TYPE lines, want %d", len(got), len(want))
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

// goldenScrape lists the HELP and TYPE lines of the 74 families, in the
// order the scrape renders them.
const goldenScrape = `
# HELP linksynthd_build_info build metadata of the running binary; value is constant 1
# TYPE linksynthd_build_info gauge
# HELP linksynthd_cache_entries live cache entries
# TYPE linksynthd_cache_entries gauge
# HELP linksynthd_cache_evictions_total LRU evictions
# TYPE linksynthd_cache_evictions_total counter
# HELP linksynthd_cache_hit_duration_seconds latency of requests answered from the byte cache
# TYPE linksynthd_cache_hit_duration_seconds histogram
# HELP linksynthd_cache_hits_total result cache hits
# TYPE linksynthd_cache_hits_total counter
# HELP linksynthd_cache_misses_total result cache misses
# TYPE linksynthd_cache_misses_total counter
# HELP linksynthd_cache_put_errors_total results that could not be published as durable result files
# TYPE linksynthd_cache_put_errors_total counter
# HELP linksynthd_cache_replayed_entries entries loaded from result files at startup
# TYPE linksynthd_cache_replayed_entries gauge
# HELP linksynthd_cluster_failovers_total replica answers served while the key's owner was down
# TYPE linksynthd_cluster_failovers_total counter
# HELP linksynthd_cluster_forward_exhausted_total solves rejected 503 after the whole successor chain failed
# TYPE linksynthd_cluster_forward_exhausted_total counter
# HELP linksynthd_cluster_forward_fallbacks_total forward attempts that failed (peer down or 5xx)
# TYPE linksynthd_cluster_forward_fallbacks_total counter
# HELP linksynthd_cluster_forwarded_total solves relayed to their owning node
# TYPE linksynthd_cluster_forwarded_total counter
# HELP linksynthd_cluster_gather_fallbacks_total scattered groups re-solved locally after a peer failure
# TYPE linksynthd_cluster_gather_fallbacks_total counter
# HELP linksynthd_cluster_hop_served_total hop-guarded requests answered locally
# TYPE linksynthd_cluster_hop_served_total counter
# HELP linksynthd_cluster_members live members in the gossiped view (self included)
# TYPE linksynthd_cluster_members gauge
# HELP linksynthd_cluster_membership_epoch highest membership epoch observed (logical clock over joins and leaves)
# TYPE linksynthd_cluster_membership_epoch gauge
# HELP linksynthd_cluster_peers_known remote members known to this node
# TYPE linksynthd_cluster_peers_known gauge
# HELP linksynthd_cluster_peers_up peers currently believed up
# TYPE linksynthd_cluster_peers_up gauge
# HELP linksynthd_cluster_probes_stale_total probe results discarded by the liveness generation guard
# TYPE linksynthd_cluster_probes_stale_total counter
# HELP linksynthd_cluster_probes_total individual peer health probes run
# TYPE linksynthd_cluster_probes_total counter
# HELP linksynthd_cluster_replica_failed_total replica pushes or ingests that failed or were rejected
# TYPE linksynthd_cluster_replica_failed_total counter
# HELP linksynthd_cluster_replica_ingested_total pushed cache entries and store files accepted from peers
# TYPE linksynthd_cluster_replica_ingested_total counter
# HELP linksynthd_cluster_replica_pushed_total cache entries and store files pushed to ring-successors
# TYPE linksynthd_cluster_replica_pushed_total counter
# HELP linksynthd_cluster_replica_served_total cache hits satisfied by a replicated entry
# TYPE linksynthd_cluster_replica_served_total counter
# HELP linksynthd_cluster_scatter_jobs_total batch jobs scattered across the cluster
# TYPE linksynthd_cluster_scatter_jobs_total counter
# HELP linksynthd_cluster_sessions_migrated_total parked sessions streamed to their new owner on membership change
# TYPE linksynthd_cluster_sessions_migrated_total counter
# HELP linksynthd_cluster_transitions_total peer up/down state changes observed
# TYPE linksynthd_cluster_transitions_total counter
# HELP linksynthd_coalesced_requests_total requests served by another request's in-flight solve
# TYPE linksynthd_coalesced_requests_total counter
# HELP linksynthd_delta_duration_seconds warm-start (base+delta) request latency
# TYPE linksynthd_delta_duration_seconds histogram
# HELP linksynthd_flight_recorded_total completed traces recorded
# TYPE linksynthd_flight_recorded_total counter
# HELP linksynthd_flight_snapshot_errors_total trace snapshots that could not be written
# TYPE linksynthd_flight_snapshot_errors_total counter
# HELP linksynthd_flight_snapshots_pruned_total trace snapshot files deleted by the retention cap
# TYPE linksynthd_flight_snapshots_pruned_total counter
# HELP linksynthd_flight_snapshots_total failed traces snapshotted to disk
# TYPE linksynthd_flight_snapshots_total counter
# HELP linksynthd_flight_traces traces resident in the flight-recorder ring
# TYPE linksynthd_flight_traces gauge
# HELP linksynthd_forward_duration_seconds latency of solves relayed to their owning node
# TYPE linksynthd_forward_duration_seconds histogram
# HELP linksynthd_incr_cold_solves_total local solves with no warm-state reuse
# TYPE linksynthd_incr_cold_solves_total counter
# HELP linksynthd_incr_delta_requests_total warm-start (base+delta) requests received
# TYPE linksynthd_incr_delta_requests_total counter
# HELP linksynthd_incr_partial_solves_total local solves splicing partitions from a warm session
# TYPE linksynthd_incr_partial_solves_total counter
# HELP linksynthd_incr_plan_hits_total compiled-plan cache hits
# TYPE linksynthd_incr_plan_hits_total counter
# HELP linksynthd_incr_plan_misses_total compiled-plan cache misses (plans compiled)
# TYPE linksynthd_incr_plan_misses_total counter
# HELP linksynthd_incr_plans compiled plans retained
# TYPE linksynthd_incr_plans gauge
# HELP linksynthd_incr_session_misses_total delta requests whose base had no warm session here
# TYPE linksynthd_incr_session_misses_total counter
# HELP linksynthd_incr_sessions warm solver sessions retained
# TYPE linksynthd_incr_sessions gauge
# HELP linksynthd_incr_warm_solves_total local solves reusing a compiled plan or problem without splicing
# TYPE linksynthd_incr_warm_solves_total counter
# HELP linksynthd_job_queue_depth jobs waiting to run
# TYPE linksynthd_job_queue_depth gauge
# HELP linksynthd_jobs_accepted_total async jobs accepted
# TYPE linksynthd_jobs_accepted_total counter
# HELP linksynthd_jobs_canceled_total async jobs canceled
# TYPE linksynthd_jobs_canceled_total counter
# HELP linksynthd_jobs_done_total async jobs finished
# TYPE linksynthd_jobs_done_total counter
# HELP linksynthd_jobs_known jobs retained in the registry
# TYPE linksynthd_jobs_known gauge
# HELP linksynthd_pool_busy solver pool slots held right now
# TYPE linksynthd_pool_busy gauge
# HELP linksynthd_pool_claims_total pool slots claimed for parallel dispatch
# TYPE linksynthd_pool_claims_total counter
# HELP linksynthd_pool_inline_total dispatches run inline because the pool was saturated
# TYPE linksynthd_pool_inline_total counter
# HELP linksynthd_rejected_total requests shed because the solve queue was full
# TYPE linksynthd_rejected_total counter
# HELP linksynthd_replicate_duration_seconds latency of one asynchronous replication round (cache entry + store artifacts to the ring-successors)
# TYPE linksynthd_replicate_duration_seconds histogram
# HELP linksynthd_requests_total HTTP requests received
# TYPE linksynthd_requests_total counter
# HELP linksynthd_restore_duration_seconds durable-store warm session restore latency
# TYPE linksynthd_restore_duration_seconds histogram
# HELP linksynthd_solve_duration_seconds local solver run latency (cache-miss path)
# TYPE linksynthd_solve_duration_seconds histogram
# HELP linksynthd_solver_errors_total solver runs that failed
# TYPE linksynthd_solver_errors_total counter
# HELP linksynthd_solver_runs_total instances actually solved (cache misses)
# TYPE linksynthd_solver_runs_total counter
# HELP linksynthd_store_cache_bytes bytes of result-cache files on disk
# TYPE linksynthd_store_cache_bytes gauge
# HELP linksynthd_store_corrupt_files_total store files quarantined after failing validation
# TYPE linksynthd_store_corrupt_files_total counter
# HELP linksynthd_store_handoff_fetches_total warm sessions pulled from a peer
# TYPE linksynthd_store_handoff_fetches_total counter
# HELP linksynthd_store_handoff_served_total store files served to peers
# TYPE linksynthd_store_handoff_served_total counter
# HELP linksynthd_store_ingested_files_total store files accepted from peers
# TYPE linksynthd_store_ingested_files_total counter
# HELP linksynthd_store_persist_errors_total session persists dropped or failed
# TYPE linksynthd_store_persist_errors_total counter
# HELP linksynthd_store_restore_errors_total session restores refused (verification or rebuild failure)
# TYPE linksynthd_store_restore_errors_total counter
# HELP linksynthd_store_session_bytes bytes of session records on disk
# TYPE linksynthd_store_session_bytes gauge
# HELP linksynthd_store_sessions session records resident on disk
# TYPE linksynthd_store_sessions gauge
# HELP linksynthd_store_sessions_persisted_total parked sessions written to the durable store
# TYPE linksynthd_store_sessions_persisted_total counter
# HELP linksynthd_store_sessions_restored_total sessions revived from the durable store
# TYPE linksynthd_store_sessions_restored_total counter
# HELP linksynthd_store_snapshot_bytes bytes of relation snapshots on disk
# TYPE linksynthd_store_snapshot_bytes gauge
# HELP linksynthd_store_snapshots relation snapshots resident on disk
# TYPE linksynthd_store_snapshots gauge
# HELP linksynthd_uptime_seconds seconds since start
# TYPE linksynthd_uptime_seconds gauge
# HELP linksynthd_workers solver pool size
# TYPE linksynthd_workers gauge
`

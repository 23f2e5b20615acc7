// Mixed query/update benchmark harness over RoutingService.
//
// Reproduces the paper's serving scenario (§6.4): a batch of KSP queries is
// answered by concurrent reader threads while a traffic generator applies
// weight batches through the service's writer path. Results are grouped per
// backend so the DTLP-backed solver can be compared against the baselines
// under identical load, and serialised to JSON for the BENCH_* artefacts.
#ifndef KSPDG_WORKLOAD_BENCH_RUNNER_H_
#define KSPDG_WORKLOAD_BENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/routing_options.h"
#include "core/status.h"

namespace kspdg {

/// Knobs of RunMixedBench, one per kspdg_bench flag. docs/BENCHMARKING.md
/// maps each field to its flag and describes every phase the fields below
/// switch on; the mixed phase always runs.
struct BenchOptions {
  /// Dataset registry name ("NY-S", "COL-S", "FLA-S", "CUSA-S").
  std::string dataset = "NY-S";
  /// Scale the dataset down to ~this many vertices (0 = full size).
  size_t target_vertices = 4096;
  /// Paths per query.
  uint32_t k = 4;
  /// Queries issued per backend.
  size_t queries_per_backend = 48;
  /// Traffic batches applied while queries are in flight.
  size_t num_batches = 6;
  /// Concurrent reader threads.
  size_t query_threads = 4;
  /// Traffic model: fraction of edges per batch and variation range.
  double alpha = 0.35;
  double tau = 0.30;
  /// Subgraph size cap z (0 = dataset default).
  uint32_t z = 0;
  uint64_t seed = 42;
  /// Backends exercised; must all be registered.
  std::vector<std::string> backends = {kBackendKspDg, kBackendYen,
                                       kBackendFindKsp};
  /// > 0 runs the batch phase with this many requests per QueryBatch call
  /// (and, with `shards`, the shard-batch phase).
  size_t batch_size = 0;
  /// Worker threads for the services' QueryBatch pools (0 = auto).
  unsigned batch_threads = 0;
  /// > 0 runs the shard phase with this many in-process shards.
  size_t shards = 0;
  /// > 0 runs the remote-shard phase with this many shard_worker processes.
  size_t remote_shards = 0;
  /// Replica workers per remote shard; > 1 adds the R=1 baseline and the
  /// failover drill to the remote-shard phase.
  size_t replicas = 1;
  /// shard_worker binary for the remote phase (empty = auto-locate next to
  /// the current executable, or $KSPDG_WORKER_BIN).
  std::string worker_binary;
  /// > 0 runs the overload phase at this multiple of measured capacity.
  double overload_factor = 0;
  /// Runs the diverse phase, and adds a kDiverseKsp copy of the request
  /// list to the shard and remote parity workloads.
  bool diverse = false;
  /// θ and over-fetch factor of the diversity phase (service defaults).
  double diverse_theta = 0.5;
  uint32_t diverse_overfetch = 4;
};

struct BackendBenchStats {
  std::string backend;
  size_t queries = 0;
  size_t errors = 0;
  size_t paths_returned = 0;
  double total_micros = 0;
  double mean_micros = 0;
  double max_micros = 0;
  /// Solve-latency percentiles over this backend's successful queries.
  double p50_micros = 0;
  double p95_micros = 0;
  double p99_micros = 0;
  /// Epoch range observed in responses (shows the query/update interleave).
  uint64_t min_epoch = 0;
  uint64_t max_epoch = 0;
  /// Summed KSP-DG iteration counts (0 for baselines).
  uint64_t engine_iterations = 0;
};

/// Batch-vs-sequential comparison over one request list (batch phase).
struct BatchPhaseStats {
  /// Requests per QueryBatch call; 0 means the phase did not run.
  size_t batch_size = 0;
  size_t requests = 0;
  /// Item-level failures across both passes (should be 0).
  size_t errors = 0;
  /// Batches whose items disagreed on the epoch (must be 0: QueryBatch
  /// guarantees snapshot uniformity).
  size_t non_uniform_batches = 0;
  double sequential_micros = 0;
  double batch_micros = 0;
  double sequential_qps = 0;
  double batch_qps = 0;
  /// sequential_micros / batch_micros (> 1 means batching wins).
  double speedup = 0;
};

/// Sharded-vs-unsharded comparison over one request list (shard phase).
/// Parity fields must come out zero: sharding may change *where* work runs,
/// never *what* is answered.
struct ShardPhaseStats {
  /// Shards of the ShardedRoutingService; 0 means the phase did not run.
  size_t num_shards = 0;
  size_t requests = 0;
  /// kDiverseKsp requests inside `requests` (0 unless --diverse): diverse
  /// answers are parity-checked like every other kind.
  size_t diverse_requests = 0;
  /// Query failures across both services (should be 0).
  size_t errors = 0;
  /// Requests whose sharded path set differed from the unsharded one in
  /// route or distance (must be 0).
  size_t mismatches = 0;
  /// Traffic batches applied identically to both services.
  size_t batches_applied = 0;
  /// Global epoch both services ended at (they must agree).
  uint64_t final_epoch = 0;
  /// Boundary-pair partial requests served by exactly one shard vs
  /// gathered across shards (KSP-DG refine traffic).
  uint64_t direct_partials = 0;
  uint64_t scattered_partials = 0;
  /// KSP-DG queries whose partials stayed on one shard vs spanned shards.
  uint64_t single_shard_queries = 0;
  uint64_t cross_shard_queries = 0;
  /// Subgraph-ownership spread across shards (balance indicator).
  size_t min_subgraphs_per_shard = 0;
  size_t max_subgraphs_per_shard = 0;
  double sharded_micros = 0;
  double unsharded_micros = 0;
  double sharded_qps = 0;
  double unsharded_qps = 0;
};

/// Sharded async QueryBatch vs unsharded sequential comparison (combined
/// phase; runs when both --shards and --batch-size are given). The parity
/// counters must come out zero: batching and sharding may change *where*
/// and *when* work runs, never *what* is answered.
struct ShardBatchPhaseStats {
  /// Shards / batch size of the phase; 0 means the phase did not run.
  size_t num_shards = 0;
  size_t batch_size = 0;
  size_t requests = 0;
  /// Async SubmitBatch tickets issued (ceil(requests / batch_size)).
  size_t batches_submitted = 0;
  /// Item-level failures on either side (must be 0).
  size_t errors = 0;
  /// Requests whose sharded-batch path set differed from the unsharded
  /// sequential one in route or distance (must be 0).
  size_t mismatches = 0;
  /// Batches whose items disagreed on the epoch (must be 0: one read pin
  /// covers the whole batch).
  size_t non_uniform_batches = 0;
  /// Per-(shard, worker) partial-cache hits during this phase (scratch
  /// reuse evidence).
  uint64_t partial_cache_hits = 0;
  /// Boundary-pair routing split during this phase.
  uint64_t direct_partials = 0;
  uint64_t scattered_partials = 0;
  /// Solve-latency percentiles over the successful async-batch items, so
  /// latency trajectories are comparable with the batch phase's.
  double p50_micros = 0;
  double p95_micros = 0;
  double p99_micros = 0;
  double sharded_batch_micros = 0;
  double unsharded_sequential_micros = 0;
  double sharded_batch_qps = 0;
  double unsharded_sequential_qps = 0;
  /// unsharded_sequential_micros / sharded_batch_micros (> 1 means the
  /// sharded async batch path wins).
  double speedup = 0;
};

/// Remote-vs-in-process sharded comparison over one request list (remote
/// phase). The parity counters must come out zero: moving the shards out of
/// process may add RPC hops, never change answers — remote responses are
/// byte-identical (exact routes, bit-exact distances) to the in-process
/// sharded service fed the same traffic history.
struct RemoteShardPhaseStats {
  /// Worker processes of the remote service; 0 means the phase did not run.
  size_t num_shards = 0;
  /// Replica workers per shard (1 = unreplicated fleet).
  size_t num_replicas = 0;
  size_t requests = 0;
  /// kDiverseKsp requests inside `requests` (0 unless --diverse).
  size_t diverse_requests = 0;
  /// Requests per QueryBatch call on the batched leg.
  size_t batch_size = 0;
  size_t batches_submitted = 0;
  /// Query failures across all legs (must be 0 with healthy workers).
  size_t errors = 0;
  /// Remote answers that differed from the in-process ones in route or
  /// distance, across both legs (must be 0).
  size_t mismatches = 0;
  /// Traffic batches applied identically to both services (epoch prepares
  /// across the worker fleet on the remote side).
  size_t batches_applied = 0;
  /// Global epoch both services ended at (they must agree).
  uint64_t final_epoch = 0;
  /// Transport totals across the worker fleet.
  uint64_t rpc_calls = 0;
  uint64_t rpc_retries = 0;
  uint64_t rpc_deadline_expired = 0;
  /// Workers respawned during the phase (0 unless the failover drill ran,
  /// which respawns its one victim).
  uint64_t worker_restarts = 0;
  /// Replicas reloaded at the committed epoch (respawn or in-place;
  /// >= 1 after the failover drill).
  uint64_t replica_catchups = 0;
  /// Partial fetches served per replica, fleet order (shard-major:
  /// shard * num_replicas + replica) — the read-rotation share.
  std::vector<uint64_t> reads_by_replica;
  /// Sequential-leg throughput of an identical R=1 fleet over the same
  /// traffic + request list (read-scaling baseline; 0 unless replicas > 1).
  double baseline_r1_qps = 0;
  /// Failover drill totals (0 unless replicas > 1): requests across the
  /// kill pass and the post-catch-up pass; errors and mismatches must be 0
  /// — a kill behind a live sibling is answer-invisible.
  size_t failover_requests = 0;
  size_t failover_errors = 0;
  size_t failover_mismatches = 0;
  /// Per-(shard, worker) partial-cache traffic on the coordinator.
  uint64_t partial_cache_hits = 0;
  uint64_t partial_cache_skips = 0;
  /// Boundary-pair partials routed to exactly one worker vs gathered.
  uint64_t direct_partials = 0;
  uint64_t scattered_partials = 0;
  double remote_micros = 0;
  double remote_batch_micros = 0;
  double inprocess_micros = 0;
  double remote_qps = 0;
  double remote_batch_qps = 0;
  double inprocess_qps = 0;
};

/// Diverse-vs-plain KSP comparison over one request list (diverse phase).
/// The same endpoints and backends are answered once as kKsp (k paths) and
/// once as kDiverseKsp (k' = k * overfetch candidates filtered to <= k
/// pairwise-dissimilar routes), so `overhead` isolates what the §4 pipeline
/// costs on the query path.
struct DiversePhaseStats {
  /// Requests per pass; 0 means the phase did not run.
  size_t requests = 0;
  /// Query failures across both passes (should be 0).
  size_t errors = 0;
  uint32_t k = 0;
  uint32_t overfetch = 0;
  double theta = 0;
  /// Summed over the diverse responses.
  size_t candidates_total = 0;
  size_t kept_total = 0;
  size_t filtered_total = 0;
  /// Per-query kept-count range (kept == k everywhere when the graph offers
  /// enough dissimilar routes).
  size_t kept_min = 0;
  size_t kept_max = 0;
  /// Mean over queries of the per-query mean pairwise similarity, and the
  /// maximum pairwise similarity any query reported (<= θ by construction).
  double mean_pairwise_similarity = 0;
  double max_pairwise_similarity = 0;
  /// Per-query EP-Index totals: raw (edge, path) incidences vs MFP path
  /// nodes, and their ratio (< 1 means the trees compressed).
  size_t ep_raw_entries = 0;
  size_t ep_path_nodes = 0;
  double mfp_compression_ratio = 0;
  /// Solve-latency percentiles over the successful diverse queries.
  double p50_micros = 0;
  double p95_micros = 0;
  double p99_micros = 0;
  double plain_micros = 0;
  double diverse_micros = 0;
  double plain_qps = 0;
  double diverse_qps = 0;
  /// diverse_micros / plain_micros (> 1 means diversity costs throughput).
  double overhead = 0;
};

/// One priority class's slice of the overload phase.
struct OverloadPriorityStats {
  /// Requests offered with this priority.
  size_t issued = 0;
  /// Requests admitted, solved, and answered OK.
  size_t served = 0;
  /// Requests shed because their deadline expired before solving.
  size_t shed_deadline = 0;
  /// Requests shed by quota/queue pressure (kResourceExhausted).
  size_t shed_quota = 0;
  /// Any other failure (must be 0).
  size_t errors = 0;
  /// served / elapsed seconds of the overload window.
  double goodput_qps = 0;
  /// Submit-to-completion latency percentiles over served requests.
  double p50_micros = 0;
  double p99_micros = 0;
};

/// Open-loop overload phase ("overload" JSON object): load is offered at
/// `factor` x the service's measured sequential capacity, with mixed
/// priorities, per-tenant quotas, and per-priority deadlines, so admission
/// control has to choose. The accounting is exact: every offered request is
/// served, shed-on-deadline, or shed-on-quota — never silently dropped and
/// never blocked — and every served answer must match the no-pressure
/// reference path-for-path.
struct OverloadPhaseStats {
  /// Offered-load multiplier; 0 means the phase did not run.
  double factor = 0;
  /// Requests offered during the overload window.
  size_t requests = 0;
  /// Queue capacity / per-tenant quota / tenant count the phase ran with.
  size_t queue_capacity = 0;
  size_t per_tenant_quota = 0;
  size_t num_tenants = 0;
  /// Sequential no-pressure throughput measured before the overload window
  /// (the capacity the offered load is a multiple of).
  double capacity_qps = 0;
  /// requests / elapsed seconds actually achieved by the open-loop pacer.
  double offered_qps = 0;
  /// Admission outcomes; admitted + shed_deadline + shed_quota == requests.
  size_t admitted = 0;
  size_t shed_deadline = 0;
  size_t shed_quota = 0;
  /// admitted + shed_deadline + shed_quota, so the identity above is
  /// checkable with one `--check overload.accounted == overload.requests`.
  size_t accounted = 0;
  /// Non-admission failures (must be 0).
  size_t errors = 0;
  /// Served answers that differed from the no-pressure reference (must be
  /// 0: pressure may shed work, never corrupt it).
  size_t mismatches = 0;
  /// The service registry's own admission counters over the phase
  /// (AdmissionCountersFrom); must agree with the harness tallies above.
  uint64_t registry_admitted = 0;
  uint64_t registry_shed_deadline = 0;
  uint64_t registry_shed_quota = 0;
  double elapsed_micros = 0;
  /// admitted / elapsed seconds across all priorities.
  double goodput_qps = 0;
  /// Per-priority slices, indexed by RequestPriority (interactive, normal,
  /// batch).
  OverloadPriorityStats per_priority[3];
};

/// Registry-derived counter deltas for one bench phase, paired with the
/// number of requests the harness actually handed to that service, so the
/// invariant "every issued request is accounted exactly once as ok or
/// rejected" is checkable from the JSON alone.
struct PhaseMetricsSummary {
  /// Requests the harness issued: every Query call, plus every item of a
  /// batch call that returned a response.
  size_t issued_requests = 0;
  /// queries_ok_total + queries_rejected_total over the phase (must equal
  /// issued_requests).
  uint64_t queries_total = 0;
  uint64_t queries_rejected_total = 0;
  /// partial_cache_hits_total over the phase (sharded services only).
  uint64_t partial_cache_hits = 0;
};

/// Metrics-registry cross-check of the bench ("metrics" JSON object): the
/// services' own registries must agree with what the harness issued.
struct BenchMetricsSummary {
  /// Mixed-workload service, cumulative over the mixed, batch and diverse
  /// phases.
  PhaseMetricsSummary mixed;
  /// Sharded service, delta over the async shard-batch phase only.
  PhaseMetricsSummary shard_batch;
  /// Remote service, delta over both remote legs.
  PhaseMetricsSummary remote_shard;
  /// Worker registries present in the remote fleet snapshot (one per
  /// reporting worker; 0 when the remote phase did not run).
  size_t worker_snapshots = 0;
};

struct BenchReport {
  std::string dataset;
  size_t num_vertices = 0;
  size_t num_edges = 0;
  size_t num_subgraphs = 0;
  uint32_t k = 0;
  double index_build_micros = 0;
  size_t batches_applied = 0;
  /// Batches the service rejected (should be 0; nonzero means the traffic
  /// model and the service disagree about the graph).
  size_t batch_errors = 0;
  size_t updates_applied = 0;
  /// Wall time of *successful* batch applications only.
  double update_total_micros = 0;
  /// Apply-latency percentiles over successful traffic batches.
  double update_p50_micros = 0;
  double update_p95_micros = 0;
  double update_p99_micros = 0;
  /// CANDS rebuild-on-update maintenance across the mixed phase's traffic
  /// batches (inside update_total_micros): the expensive half of the
  /// paper's Figures 40-41 contrast with the DTLP's incremental Algorithm 2.
  size_t cands_subgraphs_rebuilt = 0;
  size_t cands_pair_paths_recomputed = 0;
  double cands_rebuild_micros = 0;
  uint64_t final_epoch = 0;
  std::vector<BackendBenchStats> backends;
  /// Batch-vs-sequential phase (batch_size 0 when not requested).
  BatchPhaseStats batch;
  /// Diverse-vs-plain phase (requests 0 when not requested).
  DiversePhaseStats diverse;
  /// Sharded-vs-unsharded phase (num_shards 0 when not requested).
  ShardPhaseStats shard;
  /// Combined sharded-batch phase (num_shards 0 when not requested).
  ShardBatchPhaseStats shard_batch;
  /// Remote-vs-in-process sharded phase (num_shards 0 when not requested).
  RemoteShardPhaseStats remote_shard;
  /// Open-loop admission-control phase (factor 0 when not requested).
  OverloadPhaseStats overload;
  /// Registry cross-check over the phases above ("metrics" JSON object).
  BenchMetricsSummary metrics;
  /// Full merged metrics snapshot of every service the bench built, each
  /// sample tagged {service="mixed"|"sharded"|"remote"} (the remote fleet's
  /// worker registries ride along with their shard labels). Strict JSON;
  /// written to a separate file via kspdg_bench --metrics-out, not embedded
  /// in ToJson().
  std::string metrics_export;

  /// Pretty-printed JSON object (stable key order).
  std::string ToJson() const;
};

/// Builds the service for `options.dataset` and drives the mixed workload.
Result<BenchReport> RunMixedBench(const BenchOptions& options);

}  // namespace kspdg

#endif  // KSPDG_WORKLOAD_BENCH_RUNNER_H_

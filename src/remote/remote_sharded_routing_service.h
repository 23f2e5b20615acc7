// RemoteShardedRoutingService: the serving core (api/serving_core.h) with
// its partials computed by N out-of-process shard workers — the
// process-boundary deployment of the paper's distributed Storm topology
// (§4).
//
// Topology: one coordinator (this class) plus num_shards `shard_worker`
// processes, each owning one shard of the DTLP partition (the same
// deterministic AssignShards split the in-process service uses). The
// coordinator spawns the workers, ships each the graph + DTLP knobs over a
// unix-socket RPC (src/rpc), and keeps a master copy of the whole state —
// flat weights, every level-1 index, the skeleton, CANDS — exactly like
// RoutingService, because the KSP-DG filter step reads per-subgraph lower
// bounds on every query. What moves across the process boundary is the
// refine step: boundary-pair partial KSP requests are routed to the worker
// owning each subgraph through the same PartialProvider seam the sharded
// service uses, and merged through the same MergeSubgraphPartials, so
// remote answers are byte-identical to the in-process services by
// construction. (Keeping the level-1 indexes on the coordinator as well is
// a deliberate deviation from the paper's pure deployment; it is what lets
// one node answer the filter step without a network hop per bound lookup.)
// The deployment supplies the core's two seams:
//
//   partials        a ShardRoutedProvider (shard/shard_routed_provider.h)
//                   whose fetch is a PartialsRequest RPC to a replica of
//                   the owning shard — the same routing, per-(shard,
//                   worker) caches and cap/flush telemetry as the
//                   in-process shards.
//   ApplyBatch      two-phase cross-process epoch commit under the core's
//                   exclusive snapshot lock: EpochPrepare RPCs fan the full
//                   batch out (each worker filters to its owned subgraphs
//                   and applies its slice of Algorithm 2), the coordinator
//                   applies its master copy and appends the batch to the
//                   replay history, then sends best-effort EpochCommit
//                   acknowledgements; the core publishes the epoch.
//
// Replication: each shard slice runs num_replicas workers (the YTsaurus
// changelog/snapshot shape and the YugabyteDB tablet model — single writer
// = this coordinator, so no consensus round is needed; the epoch sequence
// IS the replication log). Every committed traffic batch is shipped to all
// replicas of a shard in epoch order through the same prepare/commit RPCs;
// queries load-balance partial fetches round-robin across the replicas
// that have committed the pinned epoch, failing over to siblings when a
// replica is dead or lagging. Only an all-replicas-dead shard degrades to
// per-query kUnavailable. Because every replica re-derives its state from
// the same deterministic replay, answers are byte-identical no matter
// which replica serves the fetch.
//
// Fault model: every RPC has a per-attempt deadline and a bounded retry
// budget (all protocol requests are idempotent — prepares replay their
// stored reply, partials are reads), so a slow or dead worker degrades to a
// clean kUnavailable/kDeadlineExceeded per-query status, never a hang and
// never a wrong answer (a failed partial fetch poisons the query, and its
// result is discarded). The coordinator retains the committed batch history
// back to its latest checkpoint (a full weight snapshot taken every
// max_history_batches commits, bounding replay cost and memory);
// RestartDeadWorkers() (also run by ApplyTrafficBatch when auto_restart is
// set) respawns a dead replica with the checkpoint graph, replays the
// retained history, and catches up an alive-but-lagging replica in place,
// so every revived replica re-derives the exact incremental state its
// siblings have before rejoining the read rotation.
#ifndef KSPDG_REMOTE_REMOTE_SHARDED_ROUTING_SERVICE_H_
#define KSPDG_REMOTE_REMOTE_SHARDED_ROUTING_SERVICE_H_

#include <sys/types.h>

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/serving_core.h"
#include "core/mutex.h"
#include "core/status.h"
#include "core/thread_annotations.h"
#include "core/thread_pool.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "partition/shard_assignment.h"
#include "rpc/client.h"
#include "shard/shard_routed_provider.h"

namespace kspdg {

/// Identity of one replica at a two-phase-commit fault point, handed to the
/// fault-injection hooks below so a test harness can target a named replica
/// deterministically (kill its pid, stop it, or drop the RPC).
struct ReplicaFaultPoint {
  ShardId shard = kInvalidShard;
  uint32_t replica = 0;
  pid_t pid = -1;
  uint64_t epoch = 0;
};

/// Knobs for the worker fleet and its RPC transport.
struct RemoteWorkerOptions {
  /// Path of the shard_worker binary. Empty = $KSPDG_WORKER_BIN if set,
  /// else "shard_worker" next to the current executable (all build targets
  /// land in the build root).
  std::string worker_binary;
  /// Directory for the per-worker unix sockets. Empty = $TMPDIR or /tmp.
  std::string socket_dir;
  /// Per-attempt deadline for query-path RPCs (partials, pings).
  int64_t rpc_deadline_ms = 5000;
  /// Retries after the first attempt (transport failures only; a worker
  /// that answers with an error is not retried).
  uint32_t rpc_max_retries = 2;
  /// Backoff before retry r is rpc_backoff_ms << (r - 1).
  int64_t rpc_backoff_ms = 20;
  /// Per-attempt deadline for load-graph and epoch-prepare RPCs (index
  /// build / Algorithm 2 can legitimately outlast the query deadline).
  int64_t apply_deadline_ms = 120'000;
  /// Idle-accept timeout handed to each worker: a worker whose coordinator
  /// died exits on its own after this long without a connection.
  int64_t worker_idle_timeout_ms = 120'000;
  /// Respawn + replay dead workers at the start of every ApplyTrafficBatch
  /// (RestartDeadWorkers can always be called explicitly).
  bool auto_restart = true;
  /// Test-only fault injection: called immediately before the prepare RPC
  /// (resp. the commit RPC) of each replica participating in an epoch
  /// advance. Returning false drops the RPC — the replica silently misses
  /// the epoch, exactly as a lost message would — and the hook may also
  /// kill or stop the named pid to script a mid-two-phase-commit crash.
  /// Never set in production.
  std::function<bool(const ReplicaFaultPoint&)> before_prepare_hook;
  std::function<bool(const ReplicaFaultPoint&)> before_commit_hook;
};

/// The DTLP knobs (`dtlp`) are shipped to every worker verbatim, so both
/// sides build the identical index.
struct RemoteShardedRoutingServiceOptions : ServingOptions {
  /// Shards of the subgraph partition (>= 1).
  uint32_t num_shards = 2;
  /// Replica workers per shard (>= 1). The fleet runs
  /// num_shards * num_replicas worker processes; reads load-balance across
  /// a shard's replicas, writes go to all of them in epoch order.
  uint32_t num_replicas = 1;
  /// Commits retained in the replay history before the coordinator takes a
  /// checkpoint (full weight snapshot) and truncates the log. Bounds the
  /// catch-up cost of a replica restart; 0 is treated as 1.
  size_t max_history_batches = 32;
  /// Threads fanning one ApplyTrafficBatch's prepare RPCs across workers
  /// (0 = one per worker, capped at the hardware thread count).
  unsigned apply_threads = 0;
  RemoteWorkerOptions remote;
};

/// Point-in-time view of one worker process (monitoring + tests).
struct RemoteWorkerInfo {
  ShardId shard = kInvalidShard;
  /// Which replica of `shard` this worker is (0..num_replicas-1).
  uint32_t replica = 0;
  pid_t pid = -1;
  std::string socket_path;
  /// False once an RPC to this worker failed terminally (or a health check
  /// did); a dead worker fails queries fast until restarted.
  bool alive = false;
  /// Last epoch this worker acknowledged applying.
  uint64_t epoch = 0;
  /// Times this worker was respawned (0 for the original process).
  uint64_t restarts = 0;
  /// Times this worker was caught back up to the committed epoch (respawn
  /// replay or in-place replay) after missing one or more batches.
  uint64_t catchups = 0;
  /// Partial fetches this replica served (the read-rotation share).
  uint64_t reads = 0;
  /// Static ownership and per-shard traffic, as in ShardInfo.
  size_t subgraphs = 0;
  size_t vertices = 0;
  uint64_t partial_requests = 0;
  uint64_t yen_runs = 0;
  uint64_t partial_cache_hits = 0;
  /// Transport counters for this worker's connection.
  uint64_t rpc_calls = 0;
  uint64_t rpc_retries = 0;
  uint64_t rpc_deadline_expired = 0;
};

/// Counters of the remote service: the sharded-service telemetry (the
/// remote layer reuses it wholesale) plus the transport/fleet counters.
struct RemoteServiceCounters {
  ShardedServiceCounters sharded;
  uint64_t rpc_calls = 0;
  uint64_t rpc_retries = 0;
  uint64_t rpc_deadline_expired = 0;
  uint64_t worker_restarts = 0;
  /// Replicas brought back to the committed epoch by a history replay
  /// (respawn or in-place catch-up).
  uint64_t replica_catchups = 0;
  /// Queries that failed because a partial RPC failed (each also counts as
  /// a rejected query in `sharded.base`).
  uint64_t partial_rpc_errors = 0;
};

class RemoteShardedRoutingService : public ServingCore {
 public:
  /// Takes ownership of `graph`, builds the coordinator's master state
  /// (DTLP, CANDS, shard assignment — exactly as the in-process services
  /// do), then spawns num_shards * num_replicas shard_workers and ships
  /// each the graph. Answers are byte-identical to ShardedRoutingService
  /// over the same graph and traffic history, whichever replica serves each
  /// partial fetch; a query whose shard has no replica at the pinned epoch
  /// returns kUnavailable/kDeadlineExceeded instead of hanging. Fails if
  /// the worker binary cannot be found/spawned or a worker fails to load
  /// the graph; already-spawned workers are torn down on failure.
  static Result<std::unique_ptr<RemoteShardedRoutingService>> Create(
      Graph graph, RemoteShardedRoutingServiceOptions options = {});

  /// Drains the async submission queue, then shuts the workers down
  /// (graceful Shutdown RPC first, SIGKILL after a grace period) and reaps
  /// every child process.
  ~RemoteShardedRoutingService() override;

  /// Health-checks every replica, respawns + replays the dead ones (from
  /// the latest checkpoint), and replays an alive-but-lagging replica back
  /// to the committed epoch in place. Returns OK when every replica is
  /// alive at the committed epoch afterwards; kUnavailable when any could
  /// not be revived (the others still serve).
  Status RestartDeadWorkers();

  /// Fleet-wide scrape: the coordinator's own registry merged with every
  /// worker's latest snapshot. Live workers are pinged (each ping carries
  /// the worker's registry back in the reply); a worker that cannot be
  /// reached contributes its last successfully fetched snapshot instead,
  /// so the export degrades to slightly stale worker data rather than
  /// dropping a shard. Worker samples are tagged {shard="<id>"}.
  MetricsSnapshot Metrics() const override;

  RemoteServiceCounters counters() const;

  /// Per-worker fleet snapshot, shard-major: index = shard * num_replicas
  /// + replica (at num_replicas == 1 this is indexed by ShardId, as
  /// before).
  std::vector<RemoteWorkerInfo> WorkerInfos() const;

  uint32_t num_shards() const { return assignment_.num_shards; }
  uint32_t num_replicas() const { return num_replicas_; }
  const ShardAssignment& assignment() const { return assignment_; }

  /// Checkpoint bookkeeping (monitoring + tests): the epoch of the latest
  /// full weight snapshot and the commits retained after it. The replay
  /// cost of a replica restart is bounded by history_size().
  uint64_t checkpoint_epoch() const;
  size_t history_size() const;

 private:
  /// One replica worker process: transport handle, liveness, and its share
  /// of the per-replica serving counters. `mu` serialises calls on the
  /// single connection; `pid` is written only under the exclusive snapshot
  /// lock; `epoch` is additionally
  /// refreshed from ping replies, and both are read through atomics for
  /// monitoring and read routing.
  struct Worker {
    ShardId shard = kInvalidShard;
    uint32_t replica = 0;
    std::string socket_path;
    std::atomic<pid_t> pid{-1};
    std::unique_ptr<RpcClient> client;
    /// Serialises RPCs on this worker's connection (several batch-pool
    /// threads may need the same worker).
    mutable Mutex mu{"RemoteShardedRoutingService::Worker::mu"};
    /// Mutable: the const query path marks a worker dead on RPC failure.
    mutable std::atomic<bool> alive{false};
    /// Mutable: health checks on the const query/scrape paths refresh it
    /// from the worker's own ping report.
    mutable std::atomic<uint64_t> epoch{0};
    std::atomic<uint64_t> restarts{0};
    std::atomic<uint64_t> catchups{0};
    /// Registry handles labelled {shard="<s>", replica="<r>"}.
    Counter partial_requests;
    Counter yen_runs;
    Counter reads;
    /// Last snapshot this worker shipped back in a ping reply (the
    /// fallback when the worker is unreachable at scrape time). Guarded by
    /// metrics_mu, never by `mu` — caching must not serialise with RPCs.
    mutable Mutex metrics_mu{"RemoteShardedRoutingService::Worker::metrics_mu"};
    mutable MetricsSnapshot last_metrics GUARDED_BY(metrics_mu);
    mutable bool has_metrics GUARDED_BY(metrics_mu) = false;
  };

  class RemotePartialProvider;

  RemoteShardedRoutingService(Graph graph,
                              RemoteShardedRoutingServiceOptions options)
      : ServingCore(std::move(graph), options),
        num_replicas_(options.num_replicas),
        max_history_batches_(options.max_history_batches),
        remote_(std::move(options.remote)) {}

  std::unique_ptr<ShardRoutedProvider> NewPartialProvider() const override;

  /// The two-phase epoch commit (see file comment).
  TrafficBatchResult ApplyBatch(std::span<const WeightUpdate> updates,
                                uint64_t epoch) override
      REQUIRES(snapshot_lock_);

  /// Ships the latest checkpoint graph to `worker` and cross-checks the
  /// deterministic rebuild.
  Status LoadCheckpoint(Worker& worker) const REQUIRES(snapshot_lock_);

  /// Replays every retained batch with epoch > `from_epoch` onto `worker`.
  Status ReplayRetainedHistory(Worker& worker, uint64_t from_epoch) const
      REQUIRES(snapshot_lock_);

  /// Spawns the process for `worker` (which must not have a live child) and
  /// ships it the checkpoint graph + the retained history replay. On
  /// success the worker is alive at the current epoch.
  Status SpawnAndLoadWorker(Worker& worker) const REQUIRES(snapshot_lock_);

  /// Replays the retained history onto an alive-but-lagging worker (or
  /// reloads it from the checkpoint when it fell behind the checkpoint
  /// epoch) so it rejoins the read rotation at the committed epoch.
  Status CatchUpWorker(Worker& worker) const REQUIRES(snapshot_lock_);

  /// RestartDeadWorkers body.
  Status RestartDeadWorkersLocked() REQUIRES(snapshot_lock_);

  Worker& WorkerAt(ShardId shard, uint32_t replica) const {
    return *workers_[static_cast<size_t>(shard) * num_replicas_ + replica];
  }

  /// Pings `worker`; marks it dead on failure.
  bool HealthCheckWorker(const Worker& worker) const;

  /// Marks a worker dead after a terminal RPC failure.
  void MarkWorkerDead(const Worker& worker) const {
    worker.alive.store(false, std::memory_order_release);
  }

  /// Best-effort graceful shutdown + SIGKILL + reap of one worker process.
  void StopWorker(Worker& worker);

  const uint32_t num_replicas_;
  const size_t max_history_batches_;
  const RemoteWorkerOptions remote_;
  /// Latest checkpoint: a full copy of the graph as of checkpoint_epoch_
  /// (the pristine Create-time graph at epoch 0 until the first checkpoint
  /// is taken). What a (re)spawned worker is loaded with before the
  /// retained history is replayed onto it. The partition is
  /// weight-independent and worker partials read only subgraph weight
  /// copies, so a checkpoint restart converges bit-identically to a
  /// full-history replay.
  Graph checkpoint_graph_ GUARDED_BY(snapshot_lock_);
  uint64_t checkpoint_epoch_ GUARDED_BY(snapshot_lock_) = 0;
  /// Traffic batches committed after checkpoint_epoch_, in commit order —
  /// history_[b] is the batch of epoch checkpoint_epoch_ + b + 1. Bounded
  /// by max_history_batches (a new checkpoint truncates it).
  std::vector<std::vector<WeightUpdate>> history_ GUARDED_BY(snapshot_lock_);
  ShardAssignment assignment_;
  /// Resolved worker binary path (see RemoteWorkerOptions::worker_binary).
  std::string worker_binary_;
  /// The fleet, shard-major: workers_[shard * num_replicas + replica].
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Per shard, the round-robin start offset of its next partial fetch.
  std::unique_ptr<std::atomic<uint64_t>[]> next_replica_;
  /// Per-shard cache stamps and routing telemetry. The caches are per
  /// shard, not per replica: every replica serves byte-identical partials.
  std::unique_ptr<ShardRouting> routing_;
  std::unique_ptr<ThreadPool> apply_pool_;
  /// Queries that failed because a partial RPC failed.
  Counter partial_rpc_errors_;
};

}  // namespace kspdg

#endif  // KSPDG_REMOTE_REMOTE_SHARDED_ROUTING_SERVICE_H_

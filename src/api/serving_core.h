// ServingCore: the one implementation of the serving surface, shared by
// every deployment.
//
// The paper's KSP-DG (§4) has one coordinator that runs the filter step and
// workers that compute partial KSPs for the subgraphs they own. The
// deployments differ in only one decision — where a subgraph's partials
// are computed — plus how a traffic batch reaches the state behind them.
// Everything else lives here once:
//
//   state     the dynamic graph, the DTLP (Algorithm 1) and the CANDS
//             baseline index, the solver registry with its
//             freeze-on-first-query flag, the metrics registry and its
//             ServiceMetrics, the snapshot lock and the committed epoch, the
//             batch pool with one {SolverScratchArena, partial provider} per
//             worker, and the admission-controlled SubmissionQueue;
//   queries   Query / QueryBatch / SubmitBatch: prepare -> pin -> solve ->
//             provider-error check -> finish -> record, every response
//             naming the one epoch it was answered at;
//   updates   ApplyTrafficBatch validates the batch, takes the snapshot
//             lock exclusively, hands the batch to the deployment, publishes
//             the next epoch, and records the traffic totals.
//
// A deployment derives from the core and supplies:
//
//   NewPartialProvider   where partials are computed: nullptr computes them
//                        inline on the solving thread (RoutingService); a
//                        ShardRoutedProvider routes them to the owning
//                        shards (ShardedRoutingService) or to the workers'
//                        replicas over RPC (RemoteShardedRoutingService).
//   ApplyBatch           moves the deployment's state to the next epoch;
//                        the inline default is ApplyToMaster.
//
// Concurrency: one write-preferring EpochLock guards the whole snapshot —
// the master state and, in the sharded deployments, every shard's slice. A
// traffic batch moves all of it to the next epoch in one step (the paper's
// §4), so a read path holds the lock shared once (a whole QueryBatch
// included) and reads the one committed epoch under it; ApplyTrafficBatch
// holds it exclusively around the deployment's ApplyBatch and publishes the
// epoch before releasing it. Queries therefore run concurrently with each
// other and never observe a half-applied batch, and traffic batches cannot
// starve under query churn.
//
// Destruction: the SubmissionQueue drains accepted batches when it is
// destroyed, and those batches solve through the deployment's providers.
// A deployment with state of its own therefore calls DrainSubmissions()
// first in its destructor, while that state is still alive.
#ifndef KSPDG_API_SERVING_CORE_H_
#define KSPDG_API_SERVING_CORE_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/batch_ticket.h"
#include "api/ksp_solver.h"
#include "api/routing_options.h"
#include "api/routing_service_interface.h"
#include "api/service_metrics.h"
#include "cands/cands.h"
#include "core/epoch_lock.h"
#include "core/mutex.h"
#include "core/status.h"
#include "core/submission_queue.h"
#include "core/thread_annotations.h"
#include "core/thread_pool.h"
#include "dtlp/dtlp.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "shard/shard_routed_provider.h"

namespace kspdg {

/// The knobs every deployment shares; each deployment's option struct
/// derives from this one.
struct ServingOptions {
  /// Service-wide defaults; any field can be overridden per request.
  RoutingOptions defaults;
  /// DTLP construction knobs (partition size z, level-1 ξ, build threads).
  DtlpOptions dtlp;
  /// Build and maintain the CANDS baseline index (exact boundary-pair
  /// shortest paths per subgraph) so the kShortestPath kind's "cands"
  /// backend is servable. Its rebuild-on-update maintenance runs inside
  /// every ApplyTrafficBatch — the paper's Figures 40-41 cost contrast —
  /// and is reported in TrafficBatchResult. The index is coordinator-owned,
  /// never sharded. Disable to skip both costs.
  bool enable_cands = true;
  /// Threads answering one QueryBatch (0 = one per hardware thread, capped
  /// at 16; 1 = batches execute inline on the caller). The pool is owned by
  /// the service and shared by all batches.
  unsigned batch_threads = 0;
  /// Batches the async SubmitBatch queue buffers before admission engages:
  /// no-envelope submits block (backpressure), QoS submits shed or displace
  /// queued batch-class work (0 is treated as 1).
  size_t submit_queue_capacity = 8;
  /// Max pending SubmitBatch envelopes one tenant_id may hold at once;
  /// over-quota QoS submits are shed with kResourceExhausted instead of
  /// blocking (0 = unlimited, tenants with an empty id are unmetered).
  size_t per_tenant_quota = 0;
};

class ServingCore : public RoutingServiceInterface {
 public:
  ServingCore(const ServingCore&) = delete;
  ServingCore& operator=(const ServingCore&) = delete;
  ~ServingCore() override;

  /// Answers q(source, target) — any QueryKind — on the current snapshot
  /// with the backend named by the merged options. Thread-safe.
  Result<RouteResponse> Query(const RouteRequest& request) const final;

  /// Answers a whole batch of queries on ONE snapshot: requests are
  /// validated up front, the snapshot lock is held shared once, and the
  /// valid requests are grouped by backend and executed on the service's
  /// thread pool. Each worker keeps a persistent arena of solver scratch
  /// plus its own partial provider, so caches stay warm across batches
  /// until the weights they derive from move. Invalid requests receive
  /// per-item statuses without failing the batch. Thread-safe.
  Result<RouteBatchResponse> QueryBatch(
      std::span<const RouteRequest> requests) const final;

  /// Asynchronous QueryBatch on the service's admission-controlled queue
  /// (see RoutingServiceInterface::SubmitBatch). The optional callback
  /// fires on the submission worker thread once the ticket is fulfilled;
  /// batches execute in submission order and every accepted batch completes
  /// before the service finishes destruction.
  [[nodiscard]] BatchTicket SubmitBatch(
      std::vector<RouteRequest> requests,
      BatchCallback callback = nullptr) const final;

  /// Applies one batch of weight updates atomically: validated up front
  /// and rejected as a whole on any bad entry, then applied by the
  /// deployment with every concurrent query drained. Thread-safe.
  Result<TrafficBatchResult> ApplyTrafficBatch(
      std::span<const WeightUpdate> updates) final;

  /// Adds a custom backend. Must be called before serving traffic — the
  /// registry reads on the query path take no lock, so registration was
  /// never safe against in-flight queries. Once the first
  /// Query/QueryBatch/SubmitBatch has been accepted the registry is frozen
  /// and registration fails with kFailedPrecondition. (Best-effort
  /// enforcement of that lifecycle: it rejects any registration that
  /// happens-after an observed query; truly concurrent first-query vs
  /// registration remains the caller's setup bug to avoid.)
  Status RegisterSolver(std::unique_ptr<KspSolver> solver);

  /// Committed epoch (0 until the first batch).
  uint64_t CurrentEpoch() const final {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Registered backend names, sorted.
  std::vector<std::string> BackendNames() const final {
    return registry_.Names();
  }

  /// Consistent scrape of the service's metrics registry: query totals by
  /// kind/backend, solve-latency histograms, queue depth, epoch-drain
  /// telemetry. Never blocks queries or updates.
  MetricsSnapshot Metrics() const override { return metrics_.Snapshot(); }

  /// Read-only views for tooling; all writes go through ApplyTrafficBatch.
  const Graph& graph() const { return graph_; }
  const Dtlp& dtlp() const { return *dtlp_; }
  /// nullptr when created with enable_cands = false.
  const CandsIndex* cands() const { return cands_.get(); }
  const RoutingOptions& defaults() const { return options_.defaults; }

 protected:
  ServingCore(Graph graph, ServingOptions options)
      : graph_(std::move(graph)), options_(std::move(options)) {}

  /// First step of every Create (the service must already be on the heap:
  /// the DTLP keeps a pointer to graph_): validates the defaults, builds
  /// the DTLP and, when enabled, CANDS, and loads the default backends.
  Status BuildIndexes();

  /// Last step of every Create, once the deployment's own state exists:
  /// the batch pool with one NewPartialProvider() per worker, the metric
  /// wiring, and the submission queue.
  void StartServing();

  /// Drains accepted SubmitBatch work; see the file comment.
  void DrainSubmissions() { submit_queue_.reset(); }

  /// A fresh provider for one batch worker or one single query; nullptr
  /// computes partials inline.
  virtual std::unique_ptr<ShardRoutedProvider> NewPartialProvider() const {
    return nullptr;
  }

  /// Moves the deployment's state to the given epoch (CurrentEpoch() + 1)
  /// with the validated `updates` applied, and returns the maintenance
  /// result; the core publishes the epoch once it returns. The default is
  /// ApplyToMaster.
  virtual TrafficBatchResult ApplyBatch(std::span<const WeightUpdate> updates,
                                        uint64_t /*epoch*/)
      REQUIRES(snapshot_lock_) {
    return ApplyToMaster(updates);
  }

  /// The master-copy apply of a deployment whose coordinator keeps the
  /// whole DTLP: flat weights, Algorithm 2, then CANDS maintenance.
  TrafficBatchResult ApplyToMaster(std::span<const WeightUpdate> updates)
      REQUIRES(snapshot_lock_);

  /// CANDS maintenance of one batch: every touched subgraph's exact
  /// boundary-pair shortest paths are recomputed, deliberately inside the
  /// exclusive window so the bench measures the paper's
  /// rebuild-vs-incremental contrast on the same serving path. No-op when
  /// CANDS is disabled.
  void MaintainCands(std::span<const WeightUpdate> updates,
                     TrafficBatchResult* result) REQUIRES(snapshot_lock_);

  ServiceCounters BaseCounters() const { return svc_metrics_.Counters(); }

  // State the deployments' apply paths write — only under the exclusive
  // snapshot lock — and wire their own telemetry into.
  Graph graph_;
  /// Owns every metric cell the members below (and the deployments' state)
  /// hold handles into; declared before them so it outlives them.
  MetricsRegistry metrics_;
  std::unique_ptr<Dtlp> dtlp_;
  /// The CANDS baseline index behind the "cands" backend. Null when
  /// enable_cands is false.
  std::unique_ptr<CandsIndex> cands_;
  /// The one reader/writer boundary of the snapshot (see file comment).
  /// Mutable so the const query paths can pin it.
  mutable EpochLock snapshot_lock_{"ServingCore::snapshot_lock_"};

 private:
  /// Persistent state of one batch-pool worker: solver scratch (pooled Yen
  /// ban buffers, the inline KSP-DG partial cache) plus the worker's
  /// partial provider, whose caches live across batches. Guarded by
  /// batch_mu_.
  struct BatchWorker {
    SolverScratchArena arena;
    std::unique_ptr<ShardRoutedProvider> provider;
  };

  /// Marks the registry frozen. Only the first accepted query writes the
  /// flag, so the hot path stays read-only afterwards.
  void MarkServing() const {
    if (!serving_.load(std::memory_order_relaxed)) {
      serving_.store(true, std::memory_order_release);
    }
  }

  /// The one request preparation (see PrepareRoutingQuery).
  Status Prepare(const RouteRequest& request, PreparedRoute* prepared) const;

  /// Solves one prepared request at the pinned snapshot `epoch`, through
  /// `provider` (nullptr = inline) with `scratch`, and shapes the response.
  /// Each request runs exactly once, so its merged options move through
  /// the solver input into the response. The caller holds snapshot_lock_
  /// shared — on its own thread, or for the pool threads of a batch.
  Status Solve(const RouteRequest& request, PreparedRoute& route,
               uint64_t epoch, ShardRoutedProvider* provider,
               SolverScratch* scratch, RouteResponse* response) const;

  /// Committed epoch: written only under the exclusive snapshot lock, so
  /// a reader holding it shared sees a stable value; an atomic so
  /// CurrentEpoch() and the epoch gauge read it without the lock.
  std::atomic<uint64_t> epoch_{0};
  ServingOptions options_;
  SolverRegistry registry_;
  /// Set by the first served query; freezes the registry.
  mutable std::atomic<bool> serving_{false};
  /// Executes QueryBatch work items; owned so batches reuse warm threads.
  std::unique_ptr<ThreadPool> pool_;
  /// Serialises the parallel section of concurrent QueryBatch calls and
  /// guards the persistent worker state below. Taken BEFORE the snapshot
  /// lock so queued batches wait outside the snapshot section — a waiting
  /// traffic writer then drains at most one in-flight batch.
  mutable Mutex batch_mu_{"ServingCore::batch_mu_"};
  mutable std::vector<BatchWorker> batch_workers_ GUARDED_BY(batch_mu_);
  /// Epoch the arenas were last used at; a mismatch triggers
  /// SolverScratch::OnSnapshotChange() before the batch runs. Provider
  /// caches flush themselves, per shard.
  mutable uint64_t arena_epoch_ GUARDED_BY(batch_mu_) = 0;
  /// Query/update handles into metrics_.
  ServiceMetrics svc_metrics_;
  /// Declared last so it is destroyed FIRST among the core's members:
  /// destruction drains the accepted batches, which still solve against
  /// the members above.
  std::unique_ptr<SubmissionQueue> submit_queue_;
};

}  // namespace kspdg

#endif  // KSPDG_API_SERVING_CORE_H_

// ShardedRoutingService: the in-process sharded deployment of the serving
// core — the prototype of the paper's distributed deployment (one JVM
// worker per subgraph set in its Storm topology, §4).
//
// The subgraphs of the DTLP partition are distributed over the shards
// (partition/shard_assignment.h); each shard owns its slice of mutable DTLP
// state — the subgraph weight copies and level-1 EP-indexes. The query
// surface is the ServingCore's (api/serving_core.h); this deployment
// supplies the two pieces that depend on the shards:
//
//   partials        a ShardRoutedProvider (shard/shard_routed_provider.h)
//                   that computes each shard's partial lists inline, inside
//                   the core's shared snapshot section. Batch workers keep
//                   per-(shard, worker) caches, flushed when that shard's
//                   weights change.
//   ApplyBatch      runs under the core's exclusive snapshot lock, so no
//                   reader sees any shard mid-batch: the batch fans out per
//                   shard in parallel (each shard applies its slice of
//                   Algorithm 2), then the coordinator refreshes the
//                   skeleton and CANDS; the core publishes ONE epoch for
//                   all shards, so responses name a single snapshot.
#ifndef KSPDG_SHARD_SHARDED_ROUTING_SERVICE_H_
#define KSPDG_SHARD_SHARDED_ROUTING_SERVICE_H_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "api/serving_core.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "partition/shard_assignment.h"
#include "shard/shard_routed_provider.h"

namespace kspdg {

struct ShardedRoutingServiceOptions : ServingOptions {
  /// Number of shards the subgraph set is distributed over (>= 1; shards
  /// beyond the subgraph count own nothing). 1 degenerates to the unsharded
  /// topology while keeping the scatter/gather code path live.
  uint32_t num_shards = 2;
  /// Threads fanning one ApplyTrafficBatch across shards (0 = one per
  /// shard, capped at the hardware thread count; 1 = sequential fan-out).
  unsigned apply_threads = 0;
};

/// Point-in-time view of one shard, for monitoring and the bench "shard"
/// phase. Counter snapshots, not transactional.
struct ShardInfo {
  ShardId shard = kInvalidShard;
  /// Subgraphs / total subgraph vertices this shard owns (static).
  size_t subgraphs = 0;
  size_t vertices = 0;
  /// Boundary-pair partial requests this shard computed fresh.
  uint64_t partial_requests = 0;
  /// Per-subgraph Yen invocations performed serving those requests.
  uint64_t yen_runs = 0;
  /// Partial requests served from a per-(shard, worker) cache instead of
  /// fresh Yen runs (batch path only; single queries use cold providers).
  uint64_t partial_cache_hits = 0;
};

class ShardedRoutingService : public ServingCore {
 public:
  /// Takes ownership of `graph`, builds the DTLP (Algorithm 1), and
  /// distributes its subgraphs over `options.num_shards` shards. Fails if
  /// the defaults are invalid, the partitioner rejects the graph, or
  /// num_shards == 0. Answers are identical to a RoutingService over the
  /// same graph and traffic (the sharding is invisible in the answer).
  static Result<std::unique_ptr<ShardedRoutingService>> Create(
      Graph graph, ShardedRoutingServiceOptions options = {});

  /// Drains the async submission queue (accepted batches complete) before
  /// the shards are torn down.
  ~ShardedRoutingService() override;

  ShardedServiceCounters counters() const {
    return routing_->Counters(BaseCounters());
  }

  /// Per-shard ownership and traffic snapshot, indexed by ShardId.
  std::vector<ShardInfo> ShardInfos() const;

  uint32_t num_shards() const { return assignment_.num_shards; }
  const ShardAssignment& assignment() const { return assignment_; }

 private:
  /// One shard's fresh-computation telemetry, labelled {shard="<id>"}. The
  /// subgraph/index storage itself stays inside the shared Dtlp
  /// (per-subgraph operations are thread-safe across distinct subgraphs,
  /// and the snapshot lock keeps readers out of the apply fan-out).
  struct Shard {
    Counter partial_requests;
    Counter yen_runs;
  };

  class InProcessProvider;

  ShardedRoutingService(Graph graph, ShardedRoutingServiceOptions options)
      : ServingCore(std::move(graph), std::move(options)) {}

  std::unique_ptr<ShardRoutedProvider> NewPartialProvider() const override;

  /// The per-shard fan-out (see file comment).
  TrafficBatchResult ApplyBatch(std::span<const WeightUpdate> updates,
                                uint64_t epoch) override
      REQUIRES(snapshot_lock_);

  ShardAssignment assignment_;
  std::vector<Shard> shards_;
  std::unique_ptr<ShardRouting> routing_;
  /// Executes the per-shard ApplyTrafficBatch fan-out; owned so traffic
  /// batches reuse warm threads instead of paying thread creation inside
  /// the exclusive-lock window.
  std::unique_ptr<ThreadPool> apply_pool_;
};

}  // namespace kspdg

#endif  // KSPDG_SHARD_SHARDED_ROUTING_SERVICE_H_

// ShardRoutedProvider: the PartialProvider of both sharded deployments.
//
// The KSP-DG refine step (Algorithm 4) asks, for a boundary pair (x, y), for
// the partial paths inside every subgraph containing both. A sharded
// deployment routes that request to the shard(s) owning those subgraphs: a
// pair owned entirely by one shard goes directly to it, a pair spanning
// shards scatters to every owner, and the per-subgraph lists are gathered
// through MergeSubgraphPartials — the same merge LocalPartialProvider uses —
// so the result is identical to the inline computation by construction.
//
// All of that routing lives here once. A deployment supplies only Fetch, the
// fresh computation of one shard's lists: inline on the solving thread
// (ShardedRoutingService) or an RPC to one replica of the shard's workers
// (RemoteShardedRoutingService). Either way it runs inside the serving
// core's shared snapshot section, which freezes every shard at once.
//
// Caching: the provider memoises one shard's lists per (x, y, depth). An
// entry is reused only when the requested depth matches exactly, or when
// the cached lists are complete (exhausted at a depth <= the request, so a
// fresh Yen run would return the very same lists). Either way the replay
// feeds MergeSubgraphPartials the identical inputs a fresh computation
// would, which keeps answers byte-identical to the unsharded sequential
// path — reusing *deeper* lists would not be safe, since InsertTopK's
// ordering under distance ties is sensitive to the extra entries. Each
// shard's slice of the cache is stamped with the epoch at which that shard's
// weights last changed (ShardRouting::MarkShardWritten) and flushed when the
// stamp moves, so traffic that never touches a shard leaves its cache warm.
// At most RoutingOptions::partial_cache_pairs pairs are kept per shard; past
// the cap, new pairs are computed but not cached.
//
// Failure: the first failed fetch poisons the query. The provider records
// the status and answers this and every later request of the query with an
// empty exhausted result (stopping the depth schedule cold); EndQuery hands
// the status back so the serving core discards the solver's output.
//
// One provider serves one query at a time on one thread; a batch worker
// keeps its provider across queries so the caches stay warm.
#ifndef KSPDG_SHARD_SHARD_ROUTED_PROVIDER_H_
#define KSPDG_SHARD_SHARD_ROUTED_PROVIDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "api/service_metrics.h"
#include "core/status.h"
#include "core/types.h"
#include "kspdg/partial_provider.h"
#include "obs/metrics.h"
#include "partition/partitioner.h"
#include "partition/shard_assignment.h"

namespace kspdg {

/// Monitoring counters of a sharded deployment (snapshot, not
/// transactional). Query/update totals match ServiceCounters; the
/// shard-specific counters split the KSP-DG partial traffic by how it was
/// routed.
struct ShardedServiceCounters {
  ServiceCounters base;
  /// KSP-DG queries whose partial requests were all served by one shard
  /// (routed directly to the owning shard).
  uint64_t single_shard_queries = 0;
  /// KSP-DG queries whose partials were gathered from >= 2 shards.
  uint64_t cross_shard_queries = 0;
  /// Boundary-pair requests owned entirely by one shard (direct dispatch).
  uint64_t direct_partial_requests = 0;
  /// Boundary-pair requests spanning shards (scatter/gather dispatch).
  uint64_t scattered_partial_requests = 0;
  /// Per-shard partial-list computations avoided by the per-(shard, worker)
  /// batch caches (summed over shards).
  uint64_t partial_cache_hits = 0;
  /// Fresh computations NOT memoised because the cache already held
  /// RoutingOptions::partial_cache_pairs distinct pairs (or caching is
  /// disabled with a cap of 0).
  uint64_t partial_cache_skips = 0;
  /// Times a non-empty per-(shard, worker) cache was dropped because its
  /// shard's weights moved to a new epoch.
  uint64_t partial_cache_flushes = 0;
};

/// The routing state every provider of one deployment shares: subgraph
/// ownership, each shard's cache-flush stamp, and the routing telemetry.
/// Thread-safe: stamps are atomics and telemetry is registry handles.
class ShardRouting {
 public:
  /// Registers the routing series in `metrics`: per-shard cache counters
  /// labelled {shard="<id>"} plus the direct/scattered and single/cross-
  /// shard splits. `fetch_errors` is bumped once per query a failed fetch
  /// poisons. `partition` and `assignment` must outlive the routing.
  ShardRouting(const Partition& partition, const ShardAssignment& assignment,
               size_t max_cached_pairs, MetricsRegistry& metrics,
               Counter fetch_errors = {});

  ShardRouting(const ShardRouting&) = delete;
  ShardRouting& operator=(const ShardRouting&) = delete;

  /// Records that shard `shard`'s slice changed at `epoch`: its cached
  /// partials flush on their next use. Untouched shards keep their stamp.
  void MarkShardWritten(ShardId shard, uint64_t epoch) {
    shards_[shard]->weights_epoch.store(epoch, std::memory_order_release);
  }

  /// Partial requests shard `shard` served from a cache.
  uint64_t cache_hits(ShardId shard) const {
    return shards_[shard]->cache_hits.value();
  }

  /// The counters view: `base` plus the routing split and cache totals.
  ShardedServiceCounters Counters(ServiceCounters base) const;

 private:
  friend class ShardRoutedProvider;

  struct Shard {
    /// Epoch at which this shard's slice (subgraph weight copies) last
    /// actually changed — NOT the published epoch, which advances on every
    /// traffic batch.
    std::atomic<uint64_t> weights_epoch{0};
    Counter cache_hits;
    Counter cache_skips;
    Counter cache_flushes;
  };

  const Partition& partition_;
  const ShardAssignment& assignment_;
  /// RoutingOptions::partial_cache_pairs of the service defaults.
  const size_t max_cached_pairs_;
  /// Heap-allocated because atomics are immovable.
  std::vector<std::unique_ptr<Shard>> shards_;
  Counter single_shard_queries_;
  Counter cross_shard_queries_;
  Counter direct_partials_;
  Counter scattered_partials_;
  Counter fetch_errors_;
};

class ShardRoutedProvider : public PartialProvider {
 public:
  explicit ShardRoutedProvider(const ShardRouting& routing);

  /// Starts one query at the pinned snapshot `epoch`; the caller holds the
  /// snapshot lock shared until EndQuery. Resets the per-query state (the
  /// caches persist).
  void BeginQuery(uint64_t epoch);

  /// Ends the query and returns its first failed fetch (OK if none); the
  /// caller must then discard the solver's output. A query that `solved`
  /// without a failed fetch counts toward the single/cross-shard split.
  Status EndQuery(bool solved);

  PartialResult ComputePartials(VertexId x, VertexId y, size_t depth) final;

 protected:
  /// Computes fresh partial lists between x and y up to `depth` for
  /// `owned` — subgraphs of `shard`, ascending — at the pinned snapshot:
  /// one list per subgraph, in `owned` order.
  virtual Status Fetch(ShardId shard, const std::vector<SubgraphId>& owned,
                       VertexId x, VertexId y, size_t depth,
                       std::vector<SubgraphPartials>* lists) = 0;

  /// The pinned epoch of the current query (set by BeginQuery).
  uint64_t epoch() const { return epoch_; }

 private:
  struct CacheEntry {
    size_t depth = 0;
    /// Every list came back shorter than `depth`: the lists are complete,
    /// so they equal a fresh computation at ANY depth >= this one.
    bool exhausted = false;
    std::vector<SubgraphPartials> lists;
  };

  struct ShardCache {
    /// Weights stamp the entries were computed at; a change flushes them.
    uint64_t epoch = 0;
    /// (x, y) -> entries at the distinct depths requested so far (the
    /// KSP-DG depth schedule is k, 2k, 4k, ... — a handful per pair).
    std::unordered_map<uint64_t, std::vector<CacheEntry>> entries;

    const CacheEntry* Find(uint64_t key, size_t depth) const;
  };

  const ShardRouting& routing_;
  uint64_t epoch_ = 0;
  std::vector<ShardCache> caches_;
  std::vector<char> shard_touched_;
  Status error_;
};

}  // namespace kspdg

#endif  // KSPDG_SHARD_SHARD_ROUTED_PROVIDER_H_

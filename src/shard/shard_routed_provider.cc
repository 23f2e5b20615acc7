#include "shard/shard_routed_provider.h"

#include <algorithm>
#include <string>
#include <utility>

namespace kspdg {

ShardRouting::ShardRouting(const Partition& partition,
                           const ShardAssignment& assignment,
                           size_t max_cached_pairs, MetricsRegistry& metrics,
                           Counter fetch_errors)
    : partition_(partition),
      assignment_(assignment),
      max_cached_pairs_(max_cached_pairs),
      fetch_errors_(fetch_errors) {
  shards_.reserve(assignment.num_shards);
  for (ShardId shard = 0; shard < assignment.num_shards; ++shard) {
    auto owned = std::make_unique<Shard>();
    const MetricLabels labels = {{"shard", std::to_string(shard)}};
    owned->cache_hits = metrics.GetCounter("partial_cache_hits_total", labels);
    owned->cache_skips =
        metrics.GetCounter("partial_cache_skips_total", labels);
    owned->cache_flushes =
        metrics.GetCounter("partial_cache_flushes_total", labels);
    shards_.push_back(std::move(owned));
  }
  single_shard_queries_ = metrics.GetCounter("single_shard_queries_total");
  cross_shard_queries_ = metrics.GetCounter("cross_shard_queries_total");
  direct_partials_ = metrics.GetCounter("direct_partial_requests_total");
  scattered_partials_ =
      metrics.GetCounter("scattered_partial_requests_total");
}

ShardedServiceCounters ShardRouting::Counters(ServiceCounters base) const {
  ShardedServiceCounters counters;
  counters.base = base;
  counters.single_shard_queries = single_shard_queries_.value();
  counters.cross_shard_queries = cross_shard_queries_.value();
  counters.direct_partial_requests = direct_partials_.value();
  counters.scattered_partial_requests = scattered_partials_.value();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    counters.partial_cache_hits += shard->cache_hits.value();
    counters.partial_cache_skips += shard->cache_skips.value();
    counters.partial_cache_flushes += shard->cache_flushes.value();
  }
  return counters;
}

const ShardRoutedProvider::CacheEntry* ShardRoutedProvider::ShardCache::Find(
    uint64_t key, size_t depth) const {
  auto it = entries.find(key);
  if (it == entries.end()) return nullptr;
  for (const CacheEntry& entry : it->second) {
    if (entry.depth == depth || (entry.exhausted && entry.depth <= depth)) {
      return &entry;
    }
  }
  return nullptr;
}

ShardRoutedProvider::ShardRoutedProvider(const ShardRouting& routing)
    : routing_(routing),
      caches_(routing.shards_.size()),
      shard_touched_(routing.shards_.size(), 0) {}

void ShardRoutedProvider::BeginQuery(uint64_t epoch) {
  epoch_ = epoch;
  std::fill(shard_touched_.begin(), shard_touched_.end(), 0);
  error_ = Status::OK();
}

Status ShardRoutedProvider::EndQuery(bool solved) {
  if (!error_.ok()) return error_;
  if (solved) {
    size_t touched = 0;
    for (char t : shard_touched_) touched += t != 0;
    if (touched == 1) {
      routing_.single_shard_queries_.Increment();
    } else if (touched > 1) {
      routing_.cross_shard_queries_.Increment();
    }
  }
  return Status::OK();
}

PartialResult ShardRoutedProvider::ComputePartials(VertexId x, VertexId y,
                                                   size_t depth) {
  PartialResult failed;
  failed.exhausted = true;  // stop the depth schedule; the query is lost
  if (!error_.ok()) return failed;
  // Group the owning subgraphs by shard. Boundary pairs live in at most a
  // handful of subgraphs, so linear scans beat any map.
  std::vector<std::pair<ShardId, std::vector<SubgraphId>>> groups;
  for (SubgraphId sgid : routing_.partition_.SubgraphsContainingBoth(x, y)) {
    ShardId shard = routing_.assignment_.shard_of_subgraph[sgid];
    auto it = std::find_if(groups.begin(), groups.end(),
                           [shard](const auto& g) { return g.first == shard; });
    if (it == groups.end()) {
      groups.push_back({shard, {sgid}});
    } else {
      it->second.push_back(sgid);
    }
  }
  // Scatter: every owning shard contributes its subgraphs' partial lists —
  // from this provider's cache when it has served this exact request at
  // the shard's current weights before, otherwise fetched fresh.
  std::vector<SubgraphPartials> gathered;
  size_t fresh_runs = 0;
  const uint64_t key = PairKey(x, y);
  for (const auto& [shard_id, owned] : groups) {
    const ShardRouting::Shard& shard = *routing_.shards_[shard_id];
    shard_touched_[shard_id] = 1;
    ShardCache& cache = caches_[shard_id];
    // Stable under the shared snapshot lock, which excludes writers.
    const uint64_t weights_epoch =
        shard.weights_epoch.load(std::memory_order_acquire);
    if (cache.epoch != weights_epoch) {
      if (!cache.entries.empty()) {
        shard.cache_flushes.Increment();
        cache.entries.clear();
      }
      cache.epoch = weights_epoch;
    }
    if (const CacheEntry* hit = cache.Find(key, depth)) {
      shard.cache_hits.Increment();
      gathered.insert(gathered.end(), hit->lists.begin(), hit->lists.end());
      continue;
    }
    CacheEntry entry;
    entry.depth = depth;
    Status fetched = Fetch(shard_id, owned, x, y, depth, &entry.lists);
    if (!fetched.ok()) {
      error_ = std::move(fetched);
      routing_.fetch_errors_.Increment();
      return failed;
    }
    fresh_runs += owned.size();
    entry.exhausted = true;
    for (const SubgraphPartials& list : entry.lists) {
      if (list.paths.size() >= depth) entry.exhausted = false;
    }
    gathered.insert(gathered.end(), entry.lists.begin(), entry.lists.end());
    // Bound the memoisation: between flushes a read-heavy workload could
    // otherwise accumulate path lists for every boundary pair it ever
    // touched (the cache is an optimisation; correctness never depends on
    // a hit).
    if (routing_.max_cached_pairs_ != 0 &&
        (cache.entries.size() < routing_.max_cached_pairs_ ||
         cache.entries.count(key) != 0)) {
      cache.entries[key].push_back(std::move(entry));
    } else {
      shard.cache_skips.Increment();
    }
  }
  // Gather: the shared merge replays the unsharded provider's
  // ascending-subgraph order, so the result is identical to the inline
  // computation by construction.
  PartialResult result = MergeSubgraphPartials(std::move(gathered), depth);
  // Cached lists cost no Yen invocations; report only the fresh work.
  result.yen_runs = fresh_runs;
  if (groups.size() == 1) {
    routing_.direct_partials_.Increment();
  } else if (groups.size() > 1) {
    routing_.scattered_partials_.Increment();
  }
  return result;
}

}  // namespace kspdg

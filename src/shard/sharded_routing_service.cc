#include "shard/sharded_routing_service.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "kspdg/partial_provider.h"

namespace kspdg {

// Fetches inline — the in-process stand-in for shipping the request to the
// shard's worker; the core's shared snapshot section freezes the shard's
// state while it computes.
class ShardedRoutingService::InProcessProvider final
    : public ShardRoutedProvider {
 public:
  explicit InProcessProvider(const ShardedRoutingService& service)
      : ShardRoutedProvider(*service.routing_), service_(service) {}

 private:
  Status Fetch(ShardId shard, const std::vector<SubgraphId>& owned,
               VertexId x, VertexId y, size_t depth,
               std::vector<SubgraphPartials>* lists) override {
    service_.shards_[shard].partial_requests.Increment();
    service_.shards_[shard].yen_runs.Increment(owned.size());
    const Partition& partition = service_.dtlp().partition();
    for (SubgraphId sgid : owned) {
      lists->push_back({sgid, LocalPartialProvider::PartialsInSubgraph(
                                  partition.subgraphs[sgid], x, y, depth)});
    }
    return Status::OK();
  }

  const ShardedRoutingService& service_;
};

Result<std::unique_ptr<ShardedRoutingService>> ShardedRoutingService::Create(
    Graph graph, ShardedRoutingServiceOptions options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  const uint32_t requested_shards = options.num_shards;
  const unsigned apply_threads = options.apply_threads;
  std::unique_ptr<ShardedRoutingService> service(
      new ShardedRoutingService(std::move(graph), std::move(options)));
  KSPDG_RETURN_NOT_OK(service->BuildIndexes());
  Result<ShardAssignment> assignment =
      AssignShards(service->dtlp_->partition(), requested_shards);
  if (!assignment.ok()) return assignment.status();
  service->assignment_ = std::move(assignment).value();
  const uint32_t num_shards = service->assignment_.num_shards;
  service->shards_.resize(num_shards);
  for (ShardId shard = 0; shard < num_shards; ++shard) {
    // Per-shard partial traffic, labelled so one scrape shows the split.
    const MetricLabels labels = {{"shard", std::to_string(shard)}};
    service->shards_[shard].partial_requests =
        service->metrics_.GetCounter("partial_requests_total", labels);
    service->shards_[shard].yen_runs =
        service->metrics_.GetCounter("yen_runs_total", labels);
  }
  service->routing_ = std::make_unique<ShardRouting>(
      service->dtlp_->partition(), service->assignment_,
      service->defaults().partial_cache_pairs, service->metrics_);
  service->apply_pool_ = std::make_unique<ThreadPool>(
      ResolveApplyThreads(apply_threads, num_shards));
  service->StartServing();
  return service;
}

ShardedRoutingService::~ShardedRoutingService() { DrainSubmissions(); }

std::unique_ptr<ShardRoutedProvider>
ShardedRoutingService::NewPartialProvider() const {
  return std::make_unique<InProcessProvider>(*this);
}

TrafficBatchResult ShardedRoutingService::ApplyBatch(
    std::span<const WeightUpdate> updates, uint64_t epoch) {
  // Each shard applies the slices of the subgraphs it owns, ascending.
  const std::vector<SubgraphUpdates> groups =
      GroupUpdatesBySubgraph(dtlp_->partition(), updates);
  std::vector<std::vector<const SubgraphUpdates*>> groups_of_shard(
      shards_.size());
  TrafficBatchResult result;
  for (const SubgraphUpdates& group : groups) {
    groups_of_shard[assignment_.shard_of_subgraph[group.sgid]].push_back(
        &group);
    result.dtlp.updates_applied += group.updates.size();
  }
  result.dtlp.subgraphs_touched = groups.size();

  // Master: flat graph weights (the baselines' view of the snapshot).
  for (const WeightUpdate& update : updates) graph_.SetWeight(update);

  // Shard fan-out: each shard applies its slice of Algorithm 2 — the
  // in-process analogue of the paper's per-server update application.
  // Shards own disjoint subgraphs, so the slices apply in parallel.
  std::vector<std::vector<SubgraphId>> refreshed_of_shard(shards_.size());
  apply_pool_->ParallelFor(
      shards_.size(), /*chunk=*/1, [&](unsigned, size_t si) {
        for (const SubgraphUpdates* group : groups_of_shard[si]) {
          dtlp_->ApplyUpdatesToSubgraph(group->sgid, group->updates);
          if (dtlp_->RefreshSubgraph(group->sgid)) {
            refreshed_of_shard[si].push_back(group->sgid);
          }
        }
        if (!groups_of_shard[si].empty()) {
          // The slice changed: invalidate this shard's cached partials.
          // Untouched shards keep their stamp, so their caches stay warm
          // across this batch.
          routing_->MarkShardWritten(static_cast<ShardId>(si), epoch);
        }
      });

  // Master: refresh the skeleton from the shards whose bounds changed, in
  // ascending subgraph order for determinism.
  std::vector<SubgraphId> refreshed;
  for (const std::vector<SubgraphId>& list : refreshed_of_shard) {
    refreshed.insert(refreshed.end(), list.begin(), list.end());
  }
  std::sort(refreshed.begin(), refreshed.end());
  for (SubgraphId sgid : refreshed) {
    dtlp_->PushSubgraphBoundsToSkeleton(sgid);
    result.dtlp.skeleton_pairs_refreshed += dtlp_->index(sgid).pairs().size();
  }
  MaintainCands(updates, &result);
  return result;
}

std::vector<ShardInfo> ShardedRoutingService::ShardInfos() const {
  std::vector<ShardInfo> infos;
  infos.reserve(shards_.size());
  for (ShardId shard = 0; shard < shards_.size(); ++shard) {
    ShardInfo info;
    info.shard = shard;
    info.subgraphs = assignment_.subgraphs_of_shard[shard].size();
    info.vertices = assignment_.vertices_of_shard[shard];
    info.partial_requests = shards_[shard].partial_requests.value();
    info.yen_runs = shards_[shard].yen_runs.value();
    info.partial_cache_hits = routing_->cache_hits(shard);
    infos.push_back(info);
  }
  return infos;
}

}  // namespace kspdg

#include "dtlp/dtlp.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/thread_pool.h"

namespace kspdg {

Result<std::unique_ptr<Dtlp>> Dtlp::Build(const Graph& g,
                                          const DtlpOptions& options) {
  Result<Partition> part = PartitionGraph(g, options.partition);
  if (!part.ok()) return part.status();

  std::unique_ptr<Dtlp> dtlp(new Dtlp(g, options));
  dtlp->partition_ =
      std::make_unique<Partition>(std::move(std::move(part).value()));
  Partition& partition = *dtlp->partition_;

  dtlp->indexes_.reserve(partition.subgraphs.size());
  for (const Subgraph& sg : partition.subgraphs) {
    dtlp->indexes_.emplace_back(&sg, options.index);
  }
  // Level 1: per-subgraph bounding paths; embarrassingly parallel across
  // subgraphs (this is the distributed portion of Algorithm 1).
  ThreadPool pool(options.build_threads);
  pool.ParallelFor(dtlp->indexes_.size(), /*chunk=*/1,
                   [&](unsigned, size_t i) { dtlp->indexes_[i].Build(); });

  // Level 2: skeleton graph over all boundary vertices.
  dtlp->skeleton_ = SkeletonGraph(g.directed());
  dtlp->skeleton_.SetVertices(partition.boundary_vertices);
  for (SubgraphId sg = 0; sg < partition.subgraphs.size(); ++sg) {
    dtlp->PushSubgraphBoundsToSkeleton(sg);
  }
  return dtlp;
}

void Dtlp::PushSubgraphBoundsToSkeleton(SubgraphId sgid) {
  const SubgraphIndex& index = indexes_[sgid];
  const Subgraph& sg = partition_->subgraphs[sgid];
  for (const BoundaryPairEntry& pair : index.pairs()) {
    VertexId a = sg.GlobalOf(pair.src);
    VertexId b = sg.GlobalOf(pair.dst);
    skeleton_.SetContribution(sgid, a, b, pair.lbd);
  }
}

void Dtlp::ApplyUpdatesToSubgraph(SubgraphId sgid,
                                  std::span<const WeightUpdate> updates) {
  Subgraph& sg = partition_->subgraphs[sgid];
  for (const WeightUpdate& upd : updates) {
    EdgeId local = sg.LocalEdgeOf(upd.edge);
    if (local == kInvalidEdge) continue;
    Weight old_fwd = sg.local().ForwardWeight(local);
    Weight old_bwd = sg.local().BackwardWeight(local);
    sg.ApplyUpdate(upd);
    indexes_[sgid].OnWeightChange(local, old_fwd, old_bwd);
  }
}

std::vector<SubgraphUpdates> GroupUpdatesBySubgraph(
    const Partition& partition, std::span<const WeightUpdate> updates) {
  // (subgraph, batch position) pairs sort by subgraph with batch order kept
  // inside each subgraph.
  std::vector<std::pair<SubgraphId, size_t>> owned;
  owned.reserve(updates.size());
  for (size_t i = 0; i < updates.size(); ++i) {
    const EdgeId edge = updates[i].edge;
    if (edge >= partition.subgraph_of_edge.size()) continue;
    const SubgraphId sgid = partition.subgraph_of_edge[edge];
    if (sgid != kInvalidSubgraph) owned.emplace_back(sgid, i);
  }
  std::sort(owned.begin(), owned.end());
  std::vector<SubgraphUpdates> groups;
  for (const auto& [sgid, i] : owned) {
    if (groups.empty() || groups.back().sgid != sgid) {
      groups.push_back({sgid, {}});
    }
    groups.back().updates.push_back(updates[i]);
  }
  return groups;
}

DtlpUpdateStats Dtlp::ApplyUpdates(std::span<const WeightUpdate> updates) {
  DtlpUpdateStats stats;
  const std::vector<SubgraphUpdates> groups =
      GroupUpdatesBySubgraph(*partition_, updates);
  for (const SubgraphUpdates& group : groups) {
    ApplyUpdatesToSubgraph(group.sgid, group.updates);
    stats.updates_applied += group.updates.size();
    if (RefreshSubgraph(group.sgid)) {
      PushSubgraphBoundsToSkeleton(group.sgid);
      stats.skeleton_pairs_refreshed += indexes_[group.sgid].pairs().size();
    }
  }
  stats.subgraphs_touched = groups.size();
  return stats;
}

size_t Dtlp::EpIndexMemoryBytes() const {
  size_t bytes = 0;
  for (const SubgraphIndex& index : indexes_) bytes += index.MemoryBytes();
  return bytes;
}

}  // namespace kspdg

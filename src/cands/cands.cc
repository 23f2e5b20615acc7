#include "cands/cands.h"

#include <algorithm>

#include "ksp/dijkstra.h"
#include "ksp/search_graph.h"

namespace kspdg {

Result<std::unique_ptr<CandsIndex>> CandsIndex::Build(
    const Graph& g, const CandsOptions& options) {
  Result<Partition> part = PartitionGraph(g, options.partition);
  if (!part.ok()) return part.status();
  std::unique_ptr<CandsIndex> index(new CandsIndex(g, options));
  index->pool_ = std::make_unique<ThreadPool>(options.build_threads);
  index->partition_ = std::make_unique<Partition>(std::move(part).value());
  index->tables_.resize(index->partition_->subgraphs.size());
  index->overlay_base_ = SkeletonGraph(g.directed());
  index->overlay_base_.SetVertices(index->partition_->boundary_vertices);
  index->pool_->ParallelFor(
      index->tables_.size(), /*chunk=*/1, [&](unsigned, size_t i) {
        index->RebuildSubgraph(static_cast<SubgraphId>(i));
      });
  for (SubgraphId sgid = 0; sgid < index->tables_.size(); ++sgid) {
    index->PushSubgraphToOverlay(sgid);
  }
  return index;
}

void CandsIndex::RebuildSubgraph(SubgraphId sgid) {
  const Subgraph& sg = partition_->subgraphs[sgid];
  SubgraphTable& table = tables_[sgid];
  table.pair_paths.clear();
  const std::vector<VertexId>& boundary = sg.boundary_local();
  GraphCostView view(sg.local(), CostKind::kCurrentWeight);
  DijkstraSearch<GraphCostView> search(view);
  std::vector<Weight> dist;
  std::vector<VertexId> parent;
  for (VertexId src : boundary) {
    search.ComputeTree(src, /*reverse=*/false, &dist, &parent);
    for (VertexId dst : boundary) {
      if (dst == src || dist[dst] == kInfiniteWeight) continue;
      Path p;
      p.distance = dist[dst];
      for (VertexId v = dst; v != kInvalidVertex; v = parent[v]) {
        p.vertices.push_back(v);
        if (v == src) break;
      }
      std::reverse(p.vertices.begin(), p.vertices.end());
      table.pair_paths.emplace(LocalPairKey(src, dst), std::move(p));
    }
  }
}

void CandsIndex::PushSubgraphToOverlay(SubgraphId sgid) {
  const Subgraph& sg = partition_->subgraphs[sgid];
  const SubgraphTable& table = tables_[sgid];
  const std::vector<VertexId>& boundary = sg.boundary_local();
  for (VertexId a : boundary) {
    for (VertexId b : boundary) {
      if (a == b) continue;
      auto it = table.pair_paths.find(LocalPairKey(a, b));
      Weight d = it == table.pair_paths.end() ? kInfiniteWeight
                                              : it->second.distance;
      if (!overlay_base_.directed() && a > b) continue;  // set once
      overlay_base_.SetContribution(sgid, sg.GlobalOf(a), sg.GlobalOf(b), d);
      if (overlay_base_.directed()) continue;
    }
  }
}

CandsUpdateStats CandsIndex::ApplyUpdates(
    std::span<const WeightUpdate> updates) {
  CandsUpdateStats stats;
  std::vector<SubgraphId> dirty;
  for (const WeightUpdate& upd : updates) {
    SubgraphId sgid = partition_->subgraph_of_edge[upd.edge];
    if (sgid == kInvalidSubgraph) continue;
    partition_->subgraphs[sgid].ApplyUpdate(upd);
    ++stats.updates_applied;
    dirty.push_back(sgid);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  pool_->ParallelFor(dirty.size(), /*chunk=*/1,
                     [&](unsigned, size_t i) { RebuildSubgraph(dirty[i]); });
  for (SubgraphId sgid : dirty) {
    PushSubgraphToOverlay(sgid);
    stats.pair_paths_recomputed += tables_[sgid].pair_paths.size();
  }
  stats.subgraphs_rebuilt = dirty.size();
  return stats;
}

std::optional<Path> CandsIndex::BoundaryPairRoute(VertexId a_global,
                                                  VertexId b_global) const {
  std::optional<Path> best;
  for (SubgraphId sgid :
       partition_->SubgraphsContainingBoth(a_global, b_global)) {
    const Subgraph& sg = partition_->subgraphs[sgid];
    auto it = tables_[sgid].pair_paths.find(
        LocalPairKey(sg.LocalOf(a_global), sg.LocalOf(b_global)));
    if (it == tables_[sgid].pair_paths.end()) continue;
    if (!best.has_value() || it->second.distance < best->distance) {
      best = it->second;
      for (VertexId& v : best->vertices) v = sg.GlobalOf(v);
    }
  }
  return best;
}

void CandsIndex::AttachEndpoint(VertexId v, bool is_source,
                                SkeletonOverlay* overlay,
                                EndpointAttachment* out) const {
  if (overlay_base_.ContainsGlobal(v)) {
    out->overlay_id = overlay_base_.IdOfGlobal(v);
    return;
  }
  out->overlay_id = overlay->AddTempVertex(v);
  std::vector<Weight> dist;
  std::vector<VertexId> parent;
  for (SubgraphId sgid : partition_->subgraphs_of_vertex[v]) {
    const Subgraph& sg = partition_->subgraphs[sgid];
    GraphCostView view(sg.local(), CostKind::kCurrentWeight);
    DijkstraSearch<GraphCostView> search(view);
    VertexId local = sg.LocalOf(v);
    // For the target endpoint, run a reverse search so directed weights are
    // taken *toward* v.
    search.ComputeTree(local, /*reverse=*/!is_source, &dist, &parent);
    for (VertexId b : sg.boundary_local()) {
      if (b == local || dist[b] == kInfiniteWeight) continue;
      VertexId b_global = sg.GlobalOf(b);
      SkeletonId bid = overlay->IdOfGlobal(b_global);
      if (bid == kInvalidVertex) continue;
      // Reconstruct the in-subgraph route (global ids), oriented s->b or
      // b->t.
      Path route;
      route.distance = dist[b];
      for (VertexId x = b; x != kInvalidVertex; x = parent[x]) {
        route.vertices.push_back(sg.GlobalOf(x));
        if (x == local) break;
      }
      if (is_source) {
        std::reverse(route.vertices.begin(), route.vertices.end());
        overlay->AddTempEdge(out->overlay_id, bid, dist[b], kInfiniteWeight);
      } else {
        overlay->AddTempEdge(bid, out->overlay_id, dist[b], kInfiniteWeight);
      }
      auto existing = out->routes.find(b_global);
      if (existing == out->routes.end() ||
          existing->second.distance > route.distance) {
        out->routes[b_global] = std::move(route);
      }
    }
  }
}

std::optional<Path> CandsIndex::ShortestPath(VertexId s, VertexId t) const {
  if (s == t) return Path{{s}, 0};
  SkeletonOverlay overlay(overlay_base_);
  EndpointAttachment sa, ta;
  AttachEndpoint(s, /*is_source=*/true, &overlay, &sa);
  AttachEndpoint(t, /*is_source=*/false, &overlay, &ta);
  // Direct in-subgraph route if s and t share a subgraph.
  std::optional<Path> direct;
  for (SubgraphId sgid : partition_->SubgraphsContainingBoth(s, t)) {
    const Subgraph& sg = partition_->subgraphs[sgid];
    GraphCostView view(sg.local(), CostKind::kCurrentWeight);
    DijkstraSearch<GraphCostView> search(view);
    std::optional<Path> p =
        search.ShortestPath(sg.LocalOf(s), sg.LocalOf(t));
    if (p.has_value()) {
      for (VertexId& v : p->vertices) v = sg.GlobalOf(v);
      if (!direct.has_value() || p->distance < direct->distance) {
        direct = std::move(p);
      }
    }
  }
  if (direct.has_value()) {
    overlay.AddTempEdge(sa.overlay_id, ta.overlay_id, direct->distance,
                        kInfiniteWeight);
  }
  DijkstraSearch<SkeletonOverlay> search(overlay);
  std::optional<Path> overlay_path =
      search.ShortestPath(sa.overlay_id, ta.overlay_id);
  if (!overlay_path.has_value()) return std::nullopt;

  // Reconstruct the concrete route by stitching stored segments.
  Path result;
  result.distance = overlay_path->distance;
  const std::vector<VertexId>& seq = overlay_path->vertices;
  auto append = [&result](const Path& segment) {
    size_t start = result.vertices.empty() ? 0 : 1;
    result.vertices.insert(result.vertices.end(),
                           segment.vertices.begin() + start,
                           segment.vertices.end());
  };
  if (seq.size() == 2 && direct.has_value() &&
      WeightsEqual(overlay_path->distance, direct->distance)) {
    return direct;
  }
  for (size_t i = 0; i + 1 < seq.size(); ++i) {
    VertexId a = seq[i], b = seq[i + 1];
    std::optional<Path> segment;
    if (i == 0 && a == sa.overlay_id && sa.routes.size() > 0 &&
        a >= overlay_base_.NumVertices()) {
      segment = sa.routes.at(overlay.GlobalOf(b));
    } else if (i + 2 == seq.size() && b == ta.overlay_id &&
               b >= overlay_base_.NumVertices()) {
      segment = ta.routes.at(overlay.GlobalOf(a));
    } else if (a == sa.overlay_id && b == ta.overlay_id) {
      segment = direct;
    } else {
      segment = BoundaryPairRoute(overlay.GlobalOf(a), overlay.GlobalOf(b));
    }
    if (!segment.has_value()) return std::nullopt;  // inconsistent index
    append(*segment);
  }
  return result;
}

size_t CandsIndex::MemoryBytes() const {
  size_t bytes = sizeof(*this) + overlay_base_.MemoryBytes();
  for (const SubgraphTable& table : tables_) {
    for (const auto& [key, path] : table.pair_paths) {
      bytes += sizeof(key) + sizeof(Path) +
               path.vertices.capacity() * sizeof(VertexId) + 16;
    }
  }
  return bytes;
}

}  // namespace kspdg

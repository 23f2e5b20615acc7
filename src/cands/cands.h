// CANDS baseline (Yang et al., VLDB 2014 — reference [26] of the paper):
// distributed single-shortest-path over a dynamic partitioned graph.
//
// Like the original, it indexes the *exact* shortest path between every pair
// of boundary vertices within each subgraph. Queries are fast (the overlay
// search runs on exact distances, no filter/refine iterations), but
// maintenance is expensive: a weight change invalidates the exact paths of
// its subgraph, which must be recomputed — the contrast the paper measures
// in Figures 40-41.
#ifndef KSPDG_CANDS_CANDS_H_
#define KSPDG_CANDS_CANDS_H_

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "core/thread_pool.h"
#include "core/types.h"
#include "dtlp/skeleton_graph.h"
#include "graph/graph.h"
#include "ksp/path.h"
#include "partition/partitioner.h"

namespace kspdg {

struct CandsOptions {
  PartitionOptions partition;
  /// Threads for (re)building per-subgraph tables, at build time and in
  /// every ApplyUpdates (1 = inline).
  unsigned build_threads = 1;
};

struct CandsUpdateStats {
  size_t updates_applied = 0;
  size_t subgraphs_rebuilt = 0;
  size_t pair_paths_recomputed = 0;
};

class CandsIndex {
 public:
  static Result<std::unique_ptr<CandsIndex>> Build(const Graph& g,
                                                   const CandsOptions& options);

  /// Applies weight updates; every touched subgraph's exact boundary-pair
  /// shortest paths are recomputed (the costly part of CANDS maintenance).
  CandsUpdateStats ApplyUpdates(std::span<const WeightUpdate> updates);

  /// Exact single shortest path from s to t under current weights, or
  /// std::nullopt if disconnected.
  std::optional<Path> ShortestPath(VertexId s, VertexId t) const;

  const Partition& partition() const { return *partition_; }
  size_t MemoryBytes() const;

 private:
  CandsIndex(const Graph& g, CandsOptions options)
      : graph_(&g), options_(std::move(options)) {}

  /// Recomputes the exact boundary-pair paths of one subgraph and refreshes
  /// its contributions to the overlay graph.
  void RebuildSubgraph(SubgraphId sgid);
  void PushSubgraphToOverlay(SubgraphId sgid);

  static uint64_t LocalPairKey(VertexId a, VertexId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  /// Exact shortest paths within each subgraph between ordered boundary
  /// pairs (local ids). Paths are stored in local ids.
  struct SubgraphTable {
    std::unordered_map<uint64_t, Path> pair_paths;
  };

  /// Attaches a query endpoint to the overlay: exact in-subgraph distances
  /// to/from the boundary vertices, plus the local paths for
  /// reconstruction.
  struct EndpointAttachment {
    SkeletonId overlay_id;
    // (subgraph, local endpoint) paths to each boundary vertex.
    std::unordered_map<VertexId /*boundary global*/, Path /*global route*/>
        routes;
  };
  void AttachEndpoint(VertexId v, bool is_source, SkeletonOverlay* overlay,
                      EndpointAttachment* out) const;

  /// Global route of the stored exact path between two boundary vertices.
  std::optional<Path> BoundaryPairRoute(VertexId a_global,
                                        VertexId b_global) const;

  const Graph* graph_;
  CandsOptions options_;
  std::unique_ptr<Partition> partition_;
  std::vector<SubgraphTable> tables_;
  SkeletonGraph overlay_base_;  // boundary graph with *exact* distances
  /// build_threads workers, kept so every ApplyUpdates reuses them instead
  /// of spawning threads inside the traffic batch.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace kspdg

#endif  // KSPDG_CANDS_CANDS_H_

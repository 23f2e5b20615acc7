// The Distributed Two-Level Path index (DTLP, §3): owns the partition with
// its per-subgraph weight copies, one SubgraphIndex (level 1) per subgraph,
// and the skeleton graph Gλ (level 2). Implements Algorithm 1 (build) and
// Algorithm 2 (update).
#ifndef KSPDG_DTLP_DTLP_H_
#define KSPDG_DTLP_DTLP_H_

#include <memory>
#include <span>
#include <vector>

#include "core/status.h"
#include "core/types.h"
#include "dtlp/skeleton_graph.h"
#include "dtlp/subgraph_index.h"
#include "graph/graph.h"
#include "partition/partitioner.h"

namespace kspdg {

struct DtlpOptions {
  /// z: maximum vertices per subgraph.
  PartitionOptions partition;
  /// ξ and related level-1 knobs.
  DtlpIndexOptions index;
  /// Threads used for the per-subgraph build (1 = sequential). Models the
  /// number of servers constructing the index in parallel (Figure 42).
  unsigned build_threads = 1;
};

/// One subgraph's share of a traffic batch.
struct SubgraphUpdates {
  SubgraphId sgid = kInvalidSubgraph;
  /// The batch's updates to edges `sgid` owns, in batch order — so repeated
  /// updates to one edge resolve exactly as in the flat batch.
  std::vector<WeightUpdate> updates;
};

/// Splits a traffic batch by owning subgraph: one group per touched
/// subgraph, ascending by id. Every edge has at most one owner; updates of
/// edges no subgraph owns (or out of range) are dropped. The one grouping
/// every apply path uses — the single-node DTLP, the in-process shard
/// fan-out, the fleet's expected-count cross-check and the shard worker —
/// so they all apply the same slices in the same order.
std::vector<SubgraphUpdates> GroupUpdatesBySubgraph(
    const Partition& partition, std::span<const WeightUpdate> updates);

struct DtlpUpdateStats {
  size_t updates_applied = 0;
  size_t subgraphs_touched = 0;
  size_t skeleton_pairs_refreshed = 0;
};

class Dtlp {
 public:
  /// Partitions `g` and builds both index levels (Algorithm 1).
  static Result<std::unique_ptr<Dtlp>> Build(const Graph& g,
                                             const DtlpOptions& options);

  /// Applies a batch of weight updates (Algorithm 2): updates the subgraph
  /// weight copies, maintains bounding-path distances through the EP-Index,
  /// recomputes lower bounds of touched subgraphs, and refreshes Gλ — the
  /// per-subgraph steps below, composed over GroupUpdatesBySubgraph.
  DtlpUpdateStats ApplyUpdates(std::span<const WeightUpdate> updates);

  const Graph& graph() const { return *graph_; }
  const Partition& partition() const { return *partition_; }
  const SkeletonGraph& skeleton() const { return skeleton_; }
  const DtlpOptions& options() const { return options_; }

  size_t NumSubgraphs() const { return partition_->subgraphs.size(); }
  const SubgraphIndex& index(SubgraphId sg) const { return indexes_[sg]; }
  SubgraphIndex& mutable_index(SubgraphId sg) { return indexes_[sg]; }

  /// Memory accounting for the construction-cost figures.
  size_t EpIndexMemoryBytes() const;
  size_t SkeletonMemoryBytes() const { return skeleton_.MemoryBytes(); }

  // --- Distributed-deployment building blocks ------------------------------
  // The simulated cluster applies updates per owning server in parallel;
  // these per-subgraph steps are thread-safe across *distinct* subgraphs.

  /// Applies updates that all belong to subgraph `sg` (weight copies +
  /// level-1 maintenance). Does not touch the skeleton.
  void ApplyUpdatesToSubgraph(SubgraphId sg,
                              std::span<const WeightUpdate> updates);

  /// Recomputes subgraph `sg`'s lower bounds; returns true if any changed.
  bool RefreshSubgraph(SubgraphId sg) { return indexes_[sg].Refresh(); }

  /// Re-publishes subgraph `sg`'s pair bounds into the skeleton graph.
  /// NOT thread-safe; call from a single (master) thread.
  void PushSubgraphBoundsToSkeleton(SubgraphId sg);

 private:
  Dtlp(const Graph& g, DtlpOptions options)
      : graph_(&g), options_(std::move(options)) {}

  const Graph* graph_;  // original graph (not owned; topology + vfrags only)
  DtlpOptions options_;
  std::unique_ptr<Partition> partition_;  // owns subgraph weight copies
  std::vector<SubgraphIndex> indexes_;
  SkeletonGraph skeleton_;
};

}  // namespace kspdg

#endif  // KSPDG_DTLP_DTLP_H_

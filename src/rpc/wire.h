// Explicit wire serialization for the shard-worker protocol messages.
//
// Every message is a plain struct with an Encode() producing the frame
// payload and a static Decode(payload, out) returning Status — corrupt or
// truncated payloads are rejected, never trusted. Integers are
// little-endian fixed width; doubles travel as their IEEE-754 bit pattern
// (bit-exact round-trip — the remote parity guarantee depends on it).
//
// The protocol is deliberately small: load-graph (worker bootstrap,
// restart and catch-up), partial-list request/reply (the KSP-DG refine
// step), epoch prepare (the worker's share of a traffic batch), health
// ping, and shutdown. An ErrorReply carries a Status back for any request
// the worker rejects.
#ifndef KSPDG_RPC_WIRE_H_
#define KSPDG_RPC_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "core/types.h"
#include "graph/graph.h"
#include "ksp/path.h"
#include "kspdg/partial_provider.h"
#include "partition/partitioner.h"
#include "partition/shard_assignment.h"

namespace kspdg {

/// Frame type byte of every protocol message.
enum class MessageType : uint8_t {
  kLoadGraphRequest = 1,
  kLoadGraphReply = 2,
  kPartialsRequest = 3,
  kPartialsReply = 4,
  kEpochPrepareRequest = 5,
  kEpochPrepareReply = 6,
  // 7 and 8 belonged to a retired epoch-commit message; never reuse them.
  kPingRequest = 9,
  kPingReply = 10,
  kShutdownRequest = 11,
  kShutdownReply = 12,
  kErrorReply = 13,
};

/// Appends little-endian primitives to a payload string.
class WireWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  /// IEEE-754 bit pattern, so weights round-trip bit-exactly.
  void F64(double v);
  /// Length-prefixed byte string.
  void Str(std::string_view s);

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader over a payload; every read fails with
/// kInvalidArgument instead of running off the end.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Status U8(uint8_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status F64(double* v);
  Status Str(std::string* s);

  /// All bytes consumed? Trailing garbage is a protocol error.
  Status ExpectEnd() const;

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// --- Messages --------------------------------------------------------------

/// Bootstraps (or resets) a worker: the full graph, the partition knobs,
/// and which shard of the resulting partition this worker owns. The worker
/// re-partitions deterministically from these inputs, so its subgraph
/// weight copies are identical to the coordinator's by construction.
struct LoadGraphRequest {
  ShardId shard_id = 0;
  uint32_t num_shards = 1;
  /// Which replica of the shard this worker is (diagnostics + ping echo).
  uint32_t replica_id = 0;
  /// Epoch the shipped weights correspond to. A loaded worker starts at
  /// this epoch, not zero: the coordinator ships its committed weights.
  uint64_t base_epoch = 0;
  PartitionOptions partition;
  /// The graph: topology + initial vfrag weights + current weights.
  bool directed = false;
  uint64_t num_vertices = 0;
  std::vector<VertexId> edge_u;
  std::vector<VertexId> edge_v;
  std::vector<VfragCount> vfrags_fwd;
  std::vector<VfragCount> vfrags_bwd;
  std::vector<Weight> weights_fwd;
  std::vector<Weight> weights_bwd;

  /// Captures `graph` into the request fields.
  static LoadGraphRequest FromGraph(const Graph& graph, ShardId shard_id,
                                    uint32_t num_shards,
                                    const PartitionOptions& partition);
  /// Reconstructs the graph (validated; rejects corrupt payloads).
  Result<Graph> BuildGraph() const;

  std::string Encode() const;
  static Status Decode(std::string_view payload, LoadGraphRequest* out);
};

struct LoadGraphReply {
  uint64_t subgraphs_owned = 0;
  uint64_t vertices_owned = 0;

  std::string Encode() const;
  static Status Decode(std::string_view payload, LoadGraphReply* out);
};

/// One boundary-pair partial-list request: up to `depth` shortest paths
/// between x and y inside each of the named subgraphs (all owned by the
/// addressed worker). `epoch` is the coordinator's committed epoch — the
/// worker rejects a mismatch, which catches a worker that silently missed a
/// traffic batch before it can contribute stale paths.
struct PartialsRequest {
  uint64_t epoch = 0;
  VertexId x = kInvalidVertex;
  VertexId y = kInvalidVertex;
  uint64_t depth = 0;
  std::vector<SubgraphId> sgids;

  std::string Encode() const;
  static Status Decode(std::string_view payload, PartialsRequest* out);
};

/// Per-subgraph partial lists, in request order; paths carry global vertex
/// ids and bit-exact distances.
struct PartialsReply {
  std::vector<SubgraphPartials> lists;

  std::string Encode() const;
  static Status Decode(std::string_view payload, PartialsReply* out);
};

/// The worker's share of a traffic batch: the full update batch for
/// `epoch` (== worker's current epoch + 1). The worker filters the batch to
/// its owned subgraphs with the same deterministic grouping the coordinator
/// uses, sets the new weights on its subgraph copies, and replies.
/// Re-sending the epoch the worker already prepared replays the stored
/// reply (absolute weights make the apply idempotent), so a retry after a
/// lost reply is safe.
struct EpochPrepareRequest {
  uint64_t epoch = 0;
  std::vector<WeightUpdate> updates;

  std::string Encode() const;
  static Status Decode(std::string_view payload, EpochPrepareRequest* out);
};

struct EpochPrepareReply {
  uint64_t epoch = 0;
  /// Updates that landed in subgraphs this worker owns (the coordinator
  /// cross-checks this against its own grouping to detect divergence).
  uint64_t updates_applied = 0;
  /// Owned subgraphs touched by the batch.
  uint64_t subgraphs_touched = 0;

  std::string Encode() const;
  static Status Decode(std::string_view payload, EpochPrepareReply* out);
};

struct PingRequest {
  uint64_t nonce = 0;

  std::string Encode() const;
  static Status Decode(std::string_view payload, PingRequest* out);
};

struct PingReply {
  uint64_t nonce = 0;
  uint64_t epoch = 0;
  ShardId shard_id = kInvalidShard;
  uint32_t replica_id = 0;
  /// The worker's metrics registry, encoded with
  /// MetricsSnapshot::EncodeWire (opaque at this layer — the rpc module
  /// ships it, src/obs owns the codec). Empty when the worker exports no
  /// metrics; the coordinator tags decoded snapshots with the shard id and
  /// merges them into the fleet-wide export.
  std::string metrics_blob;

  std::string Encode() const;
  static Status Decode(std::string_view payload, PingReply* out);
};

/// Status carried back for any rejected request.
struct ErrorReply {
  StatusCode code = StatusCode::kInternal;
  std::string message;

  static ErrorReply FromStatus(const Status& status);
  Status ToStatus() const;

  std::string Encode() const;
  static Status Decode(std::string_view payload, ErrorReply* out);
};

}  // namespace kspdg

#endif  // KSPDG_RPC_WIRE_H_

// shard_worker: one out-of-process shard of a RemoteShardedRoutingService.
//
// Usage:
//   shard_worker --socket PATH [--idle-timeout-ms N]
//
// The worker listens on a unix socket and speaks the src/rpc protocol. A
// LoadGraph request ships the full graph + partition knobs + (shard_id,
// num_shards, replica_id, base_epoch); the worker re-partitions it and
// assigns shards with the same deterministic code the coordinator runs, so
// its subgraph weight copies are identical to the coordinator's by
// construction. It keeps only what it serves: the subgraphs with their
// weights. The level-1 indexes stay on the coordinator, which answers the
// filter step. The shipped weights are the coordinator's committed ones at
// base_epoch, so a replica that died (or fell behind) catches up by one
// more load. After a load it serves two requests:
//
//   Partials       the KSP-DG refine step for boundary pairs inside its
//                  owned subgraphs (the per-query Yen work, moved off the
//                  coordinator process);
//   EpochPrepare   its share of one traffic batch: the worker filters the
//                  full batch to its owned subgraphs with the same
//                  grouping the in-process shard fan-out uses, sets the
//                  new weights, and replies. Prepares are idempotent:
//                  re-sending the prepared epoch replays the stored reply,
//                  so coordinator retries after a lost reply are safe.
//
// The single-threaded loop (src/rpc/server.h) means requests cannot
// interleave worker-side; cross-process ordering is the coordinator's
// locking protocol. A worker whose coordinator disappears exits on the
// accept idle timeout instead of lingering as an orphan.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/strings.h"
#include "dtlp/dtlp.h"
#include "graph/graph.h"
#include "kspdg/partial_provider.h"
#include "obs/metrics.h"
#include "partition/partitioner.h"
#include "partition/shard_assignment.h"
#include "rpc/server.h"
#include "rpc/wire.h"

namespace kspdg {
namespace {

class WorkerState {
 public:
  explicit WorkerState(const RpcServer& server) {
    // worker_-prefixed so a merged fleet export never collides with the
    // coordinator's own serving metrics; the coordinator adds the shard
    // label when it merges.
    partials_requests_ = metrics_.GetCounter("worker_partials_requests_total");
    yen_runs_ = metrics_.GetCounter("worker_yen_runs_total");
    epoch_prepares_ = metrics_.GetCounter("worker_epoch_prepares_total");
    updates_applied_ = metrics_.GetCounter("worker_updates_applied_total");
    pings_ = metrics_.GetCounter("worker_pings_total");
    graph_loads_ = metrics_.GetCounter("worker_graph_loads_total");
    epoch_gauge_ = metrics_.GetGauge("worker_epoch");
    metrics_.AddCounterCallback("worker_rpc_requests_total", {},
                                [&server] { return server.requests_served(); });
    metrics_.AddCounterCallback("worker_rpc_bytes_received_total", {},
                                [&server] { return server.bytes_received(); });
    metrics_.AddCounterCallback("worker_rpc_bytes_sent_total", {},
                                [&server] { return server.bytes_sent(); });
  }

  Status HandleLoadGraph(const std::string& payload, std::string* reply) {
    LoadGraphRequest request;
    KSPDG_RETURN_NOT_OK(LoadGraphRequest::Decode(payload, &request));
    if (request.num_shards == 0 || request.shard_id >= request.num_shards) {
      return Status::InvalidArgument("load-graph shard id out of range");
    }
    Result<Graph> graph = request.BuildGraph();
    if (!graph.ok()) return graph.status();
    // Swap the old state out only once the whole rebuild succeeded.
    Result<Partition> partition =
        PartitionGraph(graph.value(), request.partition);
    if (!partition.ok()) return partition.status();
    Result<ShardAssignment> assignment =
        AssignShards(partition.value(), request.num_shards);
    if (!assignment.ok()) return assignment.status();

    const std::vector<SubgraphId>& owned =
        assignment.value().subgraphs_of_shard[request.shard_id];
    partition_ = std::move(partition).value();
    num_edges_ = graph.value().NumEdges();
    shard_id_ = request.shard_id;
    replica_id_ = request.replica_id;
    owned_.assign(partition_->subgraphs.size(), 0);
    for (SubgraphId sgid : owned) owned_[sgid] = 1;
    // Only owned subgraphs are served and kept current: drop the others'
    // local graphs and the vertex-side structures. subgraph_of_edge stays,
    // because GroupUpdatesBySubgraph files each update under its subgraph.
    const bool directed = graph.value().directed();
    for (Subgraph& sg : partition_->subgraphs) {
      if (owned_[sg.id()] == 0) sg = Subgraph(sg.id(), directed);
    }
    partition_->subgraphs_of_vertex = {};
    partition_->boundary_vertices = {};
    partition_->is_boundary = {};
    // The shipped weights are the coordinator's committed ones: the worker
    // starts at that epoch, and the next prepare must name epoch_ + 1.
    epoch_ = request.base_epoch;
    last_prepare_reply_.clear();
    graph_loads_.Increment();
    epoch_gauge_.Set(static_cast<int64_t>(epoch_));

    LoadGraphReply loaded;
    loaded.subgraphs_owned = owned.size();
    loaded.vertices_owned = assignment.value().vertices_of_shard[shard_id_];
    *reply = loaded.Encode();
    return Status::OK();
  }

  Status HandlePartials(const std::string& payload, std::string* reply) {
    KSPDG_RETURN_NOT_OK(RequireLoaded());
    PartialsRequest request;
    KSPDG_RETURN_NOT_OK(PartialsRequest::Decode(payload, &request));
    if (request.epoch != epoch_) {
      // The coordinator and this worker disagree about which batches have
      // been applied; serving would risk a silently wrong (stale) answer.
      return Status::FailedPrecondition(
          "worker is at epoch " + std::to_string(epoch_) +
          " but the partials request names epoch " +
          std::to_string(request.epoch));
    }
    PartialsReply result;
    result.lists.reserve(request.sgids.size());
    for (SubgraphId sgid : request.sgids) {
      if (sgid >= owned_.size() || owned_[sgid] == 0) {
        return Status::InvalidArgument(
            "partials request names subgraph " + std::to_string(sgid) +
            " which this worker does not own");
      }
      const Subgraph& sg = partition_->subgraphs[sgid];
      result.lists.push_back(
          {sgid, LocalPartialProvider::PartialsInSubgraph(
                     sg, request.x, request.y, request.depth)});
    }
    partials_requests_.Increment();
    yen_runs_.Increment(request.sgids.size());
    *reply = result.Encode();
    return Status::OK();
  }

  Status HandlePrepare(const std::string& payload, std::string* reply) {
    KSPDG_RETURN_NOT_OK(RequireLoaded());
    EpochPrepareRequest request;
    KSPDG_RETURN_NOT_OK(EpochPrepareRequest::Decode(payload, &request));
    if (request.epoch == epoch_ && !last_prepare_reply_.empty()) {
      // Retry of the prepare we already applied: replay the stored reply.
      *reply = last_prepare_reply_;
      return Status::OK();
    }
    if (request.epoch != epoch_ + 1) {
      return Status::FailedPrecondition(
          "worker is at epoch " + std::to_string(epoch_) +
          " but the prepare names epoch " + std::to_string(request.epoch) +
          " (worker needs a reload)");
    }
    // Input from outside the process: checked like any service batch.
    KSPDG_RETURN_NOT_OK(ValidateTrafficBatch(num_edges_, request.updates));

    // Identical application order to the in-process shard fan-out: the
    // batch grouped per subgraph preserving batch order, the owned
    // subgraphs applied ascending.
    EpochPrepareReply applied;
    applied.epoch = request.epoch;
    for (const SubgraphUpdates& group :
         GroupUpdatesBySubgraph(*partition_, request.updates)) {
      if (owned_[group.sgid] == 0) continue;
      Subgraph& sg = partition_->subgraphs[group.sgid];
      for (const WeightUpdate& update : group.updates) sg.ApplyUpdate(update);
      applied.updates_applied += group.updates.size();
      ++applied.subgraphs_touched;
    }
    epoch_ = request.epoch;
    epoch_prepares_.Increment();
    updates_applied_.Increment(applied.updates_applied);
    epoch_gauge_.Set(static_cast<int64_t>(epoch_));
    last_prepare_reply_ = applied.Encode();
    *reply = last_prepare_reply_;
    return Status::OK();
  }

  Status HandlePing(const std::string& payload, std::string* reply) {
    PingRequest request;
    KSPDG_RETURN_NOT_OK(PingRequest::Decode(payload, &request));
    pings_.Increment();
    PingReply pong;
    pong.nonce = request.nonce;
    pong.epoch = epoch_;
    pong.shard_id = shard_id_;
    pong.replica_id = replica_id_;
    // Every ping doubles as a metrics scrape: the whole worker registry
    // rides back in the reply, so the coordinator's fleet-wide export needs
    // no extra protocol message.
    pong.metrics_blob = metrics_.Snapshot().EncodeWire();
    *reply = pong.Encode();
    return Status::OK();
  }

 private:
  Status RequireLoaded() const {
    if (!partition_.has_value()) {
      return Status::FailedPrecondition("worker has no graph loaded");
    }
    return Status::OK();
  }

  /// The shipped graph's partition, reduced to what this worker serves:
  /// the owned subgraphs (the weight copies Partials reads) and the edge ->
  /// subgraph map prepares group updates by. Unowned subgraphs are empty.
  std::optional<Partition> partition_;
  size_t num_edges_ = 0;
  ShardId shard_id_ = kInvalidShard;
  uint32_t replica_id_ = 0;
  std::vector<char> owned_;
  /// The epoch the owned weights are at: the load's base_epoch plus one
  /// per prepare applied since.
  uint64_t epoch_ = 0;
  std::string last_prepare_reply_;

  MetricsRegistry metrics_;
  Counter partials_requests_;
  Counter yen_runs_;
  Counter epoch_prepares_;
  Counter updates_applied_;
  Counter pings_;
  Counter graph_loads_;
  Gauge epoch_gauge_;
};

int Run(const std::string& socket_path, int64_t idle_timeout_ms) {
  Result<std::unique_ptr<RpcServer>> server = RpcServer::Listen(socket_path);
  if (!server.ok()) {
    std::fprintf(stderr, "shard_worker: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  WorkerState state(*server.value());
  RpcServer::Handler handler =
      [&state](MessageType type, const std::string& payload,
               MessageType* reply_type, std::string* reply_payload,
               bool* shutdown) -> Status {
    switch (type) {
      case MessageType::kLoadGraphRequest:
        *reply_type = MessageType::kLoadGraphReply;
        return state.HandleLoadGraph(payload, reply_payload);
      case MessageType::kPartialsRequest:
        *reply_type = MessageType::kPartialsReply;
        return state.HandlePartials(payload, reply_payload);
      case MessageType::kEpochPrepareRequest:
        *reply_type = MessageType::kEpochPrepareReply;
        return state.HandlePrepare(payload, reply_payload);
      case MessageType::kPingRequest:
        *reply_type = MessageType::kPingReply;
        return state.HandlePing(payload, reply_payload);
      case MessageType::kShutdownRequest:
        *reply_type = MessageType::kShutdownReply;
        *shutdown = true;
        return Status::OK();
      default:
        return Status::InvalidArgument(
            "unknown request type " +
            std::to_string(static_cast<unsigned>(type)));
    }
  };
  Status served = server.value()->Serve(handler, idle_timeout_ms);
  if (served.ok()) return 0;  // clean shutdown request
  if (served.code() == StatusCode::kDeadlineExceeded) {
    // Orphan guard: no coordinator showed up (or the last one died and
    // never came back). Exiting quietly is the desired behaviour.
    return 0;
  }
  std::fprintf(stderr, "shard_worker: %s\n", served.ToString().c_str());
  return 1;
}

}  // namespace
}  // namespace kspdg

int main(int argc, char** argv) {
  std::string socket_path;
  int64_t idle_timeout_ms = 30'000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "shard_worker: missing value for %s\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--idle-timeout-ms") {
      // Positive: 0 would exit before serving, -1 would wait forever.
      idle_timeout_ms = kspdg::ParseNumber<int64_t>(arg, next(), /*min=*/1);
    } else {
      std::fprintf(stderr,
                   "usage: %s --socket PATH [--idle-timeout-ms N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "shard_worker: --socket is required\n");
    return 2;
  }
  return kspdg::Run(socket_path, idle_timeout_ms);
}

#include "remote/remote_sharded_routing_service.h"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/epoch_lock.h"
#include "kspdg/partial_provider.h"
#include "rpc/wire.h"

extern char** environ;

namespace kspdg {

namespace {

/// See RemoteWorkerOptions::worker_binary: explicit path, else the
/// KSPDG_WORKER_BIN env override, else "shard_worker" next to the current
/// executable (every CMake target lands in the build root).
std::string ResolveWorkerBinary(const std::string& configured) {
  if (!configured.empty()) return configured;
  const char* env = std::getenv("KSPDG_WORKER_BIN");
  if (env != nullptr && env[0] != '\0') return env;
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "shard_worker";
  buf[n] = '\0';
  std::string self(buf);
  size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "shard_worker";
  return self.substr(0, slash + 1) + "shard_worker";
}

std::string ResolveSocketDir(const std::string& configured) {
  if (!configured.empty()) return configured;
  const char* tmp = std::getenv("TMPDIR");
  if (tmp != nullptr && tmp[0] != '\0') return tmp;
  return "/tmp";
}

/// Distinguishes sockets of distinct service instances within one process
/// (and, with the pid, across processes sharing a socket dir).
std::atomic<uint64_t> g_instance_counter{0};

}  // namespace

// The fleet's fetch: a PartialsRequest to one worker of the shard's replica
// set instead of an inline Yen run. The request carries the pinned epoch, so
// a worker that silently missed a traffic batch rejects instead of
// contributing stale paths.
//
// Replica routing: each fetch starts at the shard's round-robin cursor and
// walks the replica set, skipping replicas that are dead or not at the
// pinned epoch; a transport failure marks that replica dead and fails over
// to the next sibling. Every replica at an epoch holds the same subgraph
// weights, so whichever one answers, the bytes are identical. Only a shard
// with no replica able to serve fails the fetch — which poisons the query
// (see ShardRoutedProvider): one fast status, never a hang and never a
// silently wrong answer.
class RemoteShardedRoutingService::RemotePartialProvider final
    : public ShardRoutedProvider {
 public:
  explicit RemotePartialProvider(const RemoteShardedRoutingService& service)
      : ShardRoutedProvider(*service.routing_), service_(service) {}

 private:
  Status Fetch(ShardId shard, const std::vector<SubgraphId>& owned,
               VertexId x, VertexId y, size_t depth,
               std::vector<SubgraphPartials>* lists) override {
    const uint32_t replicas = service_.num_replicas_;
    const uint64_t pinned = epoch();
    const uint64_t start =
        service_.next_replica_[shard].fetch_add(1, std::memory_order_relaxed);
    Status last_error;  // stays OK while every replica is merely skipped
    for (uint32_t i = 0; i < replicas; ++i) {
      const Worker& worker = service_.WorkerAt(
          shard, static_cast<uint32_t>((start + i) % replicas));
      if (!worker.alive.load(std::memory_order_acquire)) continue;
      // A lagging replica (missed one or more epochs) is out of the read
      // rotation until it catches up; the worker-side epoch check would
      // reject the request anyway, this just skips the round trip.
      if (worker.epoch.load(std::memory_order_acquire) != pinned) continue;
      Status fetched = FetchFromWorker(worker, owned, x, y, depth, lists);
      if (fetched.ok()) {
        worker.partial_requests.Increment();
        worker.yen_runs.Increment(owned.size());
        worker.reads.Increment();
        return Status::OK();
      }
      last_error = std::move(fetched);  // fail over to the next sibling
    }
    if (last_error.ok()) {
      return Status::Unavailable(
          "all replicas of shard " + std::to_string(shard) +
          " are dead or lagging; the shard is unavailable until restarted");
    }
    return last_error;
  }

  /// One partials round trip to `worker`, validated. A transport or
  /// protocol failure marks the worker dead — it cannot serve its shard
  /// until restarted, and later fetches skip it on the alive flag instead
  /// of re-timing-out. An epoch-mismatch rejection only means the replica
  /// is lagging: it stays alive for catch-up while its siblings serve.
  Status FetchFromWorker(const Worker& worker,
                         const std::vector<SubgraphId>& owned, VertexId x,
                         VertexId y, size_t depth,
                         std::vector<SubgraphPartials>* lists) {
    if (!worker.alive.load(std::memory_order_acquire)) {
      return Status::Unavailable(
          "shard worker " + std::to_string(worker.shard) + " replica " +
          std::to_string(worker.replica) + " is dead");
    }
    PartialsRequest request;
    request.epoch = epoch();
    request.x = x;
    request.y = y;
    request.depth = depth;
    request.sgids = owned;
    std::string reply_payload;
    Status called;
    {
      MutexLock lock(worker.mu);
      called = worker.client->Call(MessageType::kPartialsRequest,
                                   request.Encode(),
                                   MessageType::kPartialsReply,
                                   &reply_payload);
    }
    PartialsReply reply;
    if (called.ok()) called = PartialsReply::Decode(reply_payload, &reply);
    if (called.ok() && reply.lists.size() != owned.size()) {
      called = Status::Internal(
          "worker " + std::to_string(worker.shard) + " returned " +
          std::to_string(reply.lists.size()) + " partial lists for " +
          std::to_string(owned.size()) + " requested subgraphs");
    }
    if (called.ok()) {
      for (size_t i = 0; i < owned.size(); ++i) {
        if (reply.lists[i].sgid != owned[i]) {
          called = Status::Internal(
              "worker " + std::to_string(worker.shard) +
              " returned partials for the wrong subgraph");
          break;
        }
      }
    }
    if (!called.ok()) {
      if (called.code() != StatusCode::kFailedPrecondition) {
        service_.MarkWorkerDead(worker);
      }
      return called;
    }
    *lists = std::move(reply.lists);
    return Status::OK();
  }

  const RemoteShardedRoutingService& service_;
};

Result<std::unique_ptr<RemoteShardedRoutingService>>
RemoteShardedRoutingService::Create(Graph graph,
                                    RemoteShardedRoutingServiceOptions options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.num_replicas == 0) {
    return Status::InvalidArgument("num_replicas must be >= 1");
  }
  const uint32_t requested_shards = options.num_shards;
  const unsigned apply_threads = options.apply_threads;
  std::unique_ptr<RemoteShardedRoutingService> service(
      new RemoteShardedRoutingService(std::move(graph), std::move(options)));
  const RemoteWorkerOptions& remote = service->remote_;
  KSPDG_RETURN_NOT_OK(service->BuildIndexes());
  Result<ShardAssignment> assignment =
      AssignShards(service->dtlp_->partition(), requested_shards);
  if (!assignment.ok()) return assignment.status();
  service->assignment_ = std::move(assignment).value();
  const uint32_t num_shards = service->assignment_.num_shards;
  const size_t fleet_size =
      static_cast<size_t>(num_shards) * service->num_replicas_;
  service->apply_pool_ = std::make_unique<ThreadPool>(
      ResolveApplyThreads(apply_threads, fleet_size));

  service->worker_binary_ = ResolveWorkerBinary(remote.worker_binary);
  if (access(service->worker_binary_.c_str(), X_OK) != 0) {
    return Status::InvalidArgument(
        "shard_worker binary not executable at '" + service->worker_binary_ +
        "' (set RemoteWorkerOptions::worker_binary or KSPDG_WORKER_BIN)");
  }
  const std::string socket_dir = ResolveSocketDir(remote.socket_dir);
  const uint64_t instance =
      g_instance_counter.fetch_add(1, std::memory_order_relaxed);
  RpcClientOptions client_options;
  client_options.deadline_ms = remote.rpc_deadline_ms;
  client_options.max_retries = remote.rpc_max_retries;
  client_options.backoff_ms = remote.rpc_backoff_ms;
  MetricsRegistry& metrics = service->metrics_;
  for (ShardId shard = 0; shard < num_shards; ++shard) {
    for (uint32_t replica = 0; replica < service->num_replicas_; ++replica) {
      auto worker = std::make_unique<Worker>();
      worker->shard = shard;
      worker->replica = replica;
      worker->socket_path = socket_dir + "/kspdg-" +
                            std::to_string(static_cast<long>(getpid())) + "-" +
                            std::to_string(instance) + "-s" +
                            std::to_string(shard) + "r" +
                            std::to_string(replica) + ".sock";
      worker->client =
          std::make_unique<RpcClient>(worker->socket_path, client_options);
      // Per-replica serving counters plus callbacks over the client's
      // (monotonic, see RpcClient) transport atomics — the registry is the
      // export surface, the client stays the owner.
      const MetricLabels labels = {{"shard", std::to_string(shard)},
                                   {"replica", std::to_string(replica)}};
      worker->partial_requests =
          metrics.GetCounter("partial_requests_total", labels);
      worker->yen_runs = metrics.GetCounter("yen_runs_total", labels);
      worker->reads = metrics.GetCounter("reads_by_replica_total", labels);
      RpcClient* client = worker->client.get();
      metrics.AddCounterCallback("rpc_calls_total", labels,
                                 [client] { return client->calls(); });
      metrics.AddCounterCallback("rpc_retries_total", labels,
                                 [client] { return client->retries(); });
      metrics.AddCounterCallback(
          "rpc_deadline_expired_total", labels,
          [client] { return client->deadline_expired(); });
      metrics.AddCounterCallback("rpc_bytes_sent_total", labels,
                                 [client] { return client->bytes_sent(); });
      metrics.AddCounterCallback(
          "rpc_bytes_received_total", labels,
          [client] { return client->bytes_received(); });
      Worker* raw = worker.get();
      metrics.AddGaugeCallback("worker_alive", labels, [raw] {
        return raw->alive.load(std::memory_order_acquire) ? 1 : 0;
      });
      metrics.AddGaugeCallback("replica_epoch", labels, [raw] {
        return static_cast<int64_t>(raw->epoch.load(std::memory_order_relaxed));
      });
      metrics.AddCounterCallback("replica_catchups_total", labels, [raw] {
        return raw->catchups.load(std::memory_order_relaxed);
      });
      service->workers_.push_back(std::move(worker));
    }
  }
  service->next_replica_ =
      std::make_unique<std::atomic<uint64_t>[]>(num_shards);
  service->partial_rpc_errors_ =
      metrics.GetCounter("partial_rpc_errors_total");
  service->routing_ = std::make_unique<ShardRouting>(
      service->dtlp_->partition(), service->assignment_,
      service->defaults().partial_cache_pairs, metrics,
      service->partial_rpc_errors_);
  metrics.AddCounterCallback(
      "worker_restarts_total", {}, [svc = service.get()] {
        uint64_t restarts = 0;
        for (const std::unique_ptr<Worker>& w : svc->workers_) {
          restarts += w->restarts.load(std::memory_order_relaxed);
        }
        return restarts;
      });
  {
    // Loads read the master graph under the snapshot lock; nothing else can
    // contend for it yet, and serving starts only once the fleet is up.
    RemoteShardedRoutingService& fleet = *service;
    EpochWriterLock lock(fleet.snapshot_lock_);
    // On any failure the service destructor reaps the workers already
    // started.
    for (std::unique_ptr<Worker>& worker : fleet.workers_) {
      KSPDG_RETURN_NOT_OK(fleet.SpawnAndLoadWorker(*worker));
    }
  }
  service->StartServing();
  return service;
}

RemoteShardedRoutingService::~RemoteShardedRoutingService() {
  // Drain accepted async batches while the fleet still answers partials.
  DrainSubmissions();
  for (std::unique_ptr<Worker>& worker : workers_) {
    if (worker != nullptr) StopWorker(*worker);
  }
}

std::unique_ptr<ShardRoutedProvider>
RemoteShardedRoutingService::NewPartialProvider() const {
  return std::make_unique<RemotePartialProvider>(*this);
}

// Ships the master graph at the committed epoch (the worker re-partitions
// it deterministically and resets to that epoch) and cross-checks the
// worker's ownership against the coordinator's. Subgraph weights are
// absolute, so the loaded worker holds the same bytes as a sibling that
// applied every batch since Create.
Status RemoteShardedRoutingService::LoadWorker(Worker& worker) const {
  LoadGraphRequest load = LoadGraphRequest::FromGraph(
      graph_, worker.shard, assignment_.num_shards,
      dtlp_->options().partition);
  load.replica_id = worker.replica;
  load.base_epoch = CurrentEpoch();
  std::string reply_payload;
  Status called;
  {
    MutexLock lock(worker.mu);
    called = worker.client->Call(
        MessageType::kLoadGraphRequest, load.Encode(),
        MessageType::kLoadGraphReply, &reply_payload,
        remote_.apply_deadline_ms);
  }
  LoadGraphReply loaded;
  if (called.ok()) called = LoadGraphReply::Decode(reply_payload, &loaded);
  if (called.ok() &&
      (loaded.subgraphs_owned !=
           assignment_.subgraphs_of_shard[worker.shard].size() ||
       loaded.vertices_owned != assignment_.vertices_of_shard[worker.shard])) {
    // The worker's deterministic rebuild disagreed with ours — nothing it
    // answers can be trusted.
    called = Status::Internal(
        "worker " + std::to_string(worker.shard) +
        " rebuilt a different shard assignment than the coordinator");
  }
  if (!called.ok()) {
    MarkWorkerDead(worker);
    return called;
  }
  worker.epoch.store(load.base_epoch, std::memory_order_release);
  return Status::OK();
}

Status RemoteShardedRoutingService::SpawnAndLoadWorker(Worker& worker) const {
  std::vector<std::string> args = {
      worker_binary_, "--socket", worker.socket_path, "--idle-timeout-ms",
      std::to_string(remote_.worker_idle_timeout_ms)};
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  int rc = posix_spawn(&pid, worker_binary_.c_str(), /*file_actions=*/nullptr,
                       /*attrp=*/nullptr, argv.data(), environ);
  if (rc != 0) {
    return Status::Internal("posix_spawn(" + worker_binary_ +
                            "): " + std::strerror(rc));
  }
  worker.pid.store(pid, std::memory_order_release);

  // The client's first connect after construction (or Disconnect) waits
  // for the listener until the deadline, which covers worker startup.
  KSPDG_RETURN_NOT_OK(LoadWorker(worker));
  // Conservative stamp: flush any cached partials derived from the previous
  // incarnation (they would be identical, but a flush is always safe).
  routing_->MarkShardWritten(worker.shard, CurrentEpoch());
  worker.alive.store(true, std::memory_order_release);
  return Status::OK();
}

bool RemoteShardedRoutingService::HealthCheckWorker(
    const Worker& worker) const {
  static std::atomic<uint64_t> nonce_source{1};
  PingRequest ping;
  ping.nonce = nonce_source.fetch_add(1, std::memory_order_relaxed);
  std::string reply_payload;
  Status called;
  {
    MutexLock lock(worker.mu);
    called = worker.client->Call(MessageType::kPingRequest, ping.Encode(),
                                 MessageType::kPingReply, &reply_payload);
  }
  PingReply pong;
  if (called.ok()) called = PingReply::Decode(reply_payload, &pong);
  if (called.ok() && pong.nonce != ping.nonce) {
    called = Status::Internal("ping nonce mismatch");
  }
  if (called.ok() &&
      (pong.shard_id != worker.shard || pong.replica_id != worker.replica)) {
    called = Status::Internal("ping answered by the wrong worker identity");
  }
  if (!called.ok()) {
    MarkWorkerDead(worker);
    return false;
  }
  // The pong carries the worker's own epoch — the authoritative lag signal
  // that takes a replica out of (or back into) the read rotation.
  worker.epoch.store(pong.epoch, std::memory_order_release);
  // Every successful ping refreshes the worker's cached metrics snapshot —
  // the fleet-wide export falls back to it when the worker is unreachable.
  MetricsSnapshot worker_metrics;
  if (MetricsSnapshot::DecodeWire(pong.metrics_blob, &worker_metrics).ok()) {
    MutexLock metrics_lock(worker.metrics_mu);
    worker.last_metrics = std::move(worker_metrics);
    worker.has_metrics = true;
  }
  return true;
}

MetricsSnapshot RemoteShardedRoutingService::Metrics() const {
  MetricsSnapshot fleet = metrics_.Snapshot();
  for (const std::unique_ptr<Worker>& worker : workers_) {
    if (worker->alive.load(std::memory_order_acquire)) {
      // Refreshes the cached snapshot on success; a failed ping marks the
      // worker dead and the cache below still provides its last state.
      (void)HealthCheckWorker(*worker);
    }
    MetricsSnapshot worker_metrics;
    bool have = false;
    {
      MutexLock metrics_lock(worker->metrics_mu);
      if (worker->has_metrics) {
        worker_metrics = worker->last_metrics;
        have = true;
      }
    }
    if (!have) continue;
    worker_metrics.AddLabel("shard", std::to_string(worker->shard));
    worker_metrics.AddLabel("replica", std::to_string(worker->replica));
    fleet.Merge(worker_metrics);
  }
  return fleet;
}

Status RemoteShardedRoutingService::RestartDeadWorkersLocked() {
  // A worker that crashed without a failed RPC still looks alive; a cheap
  // ping flushes silent deaths out (and refreshes each survivor's reported
  // epoch) before we decide who needs reviving or catching up.
  for (std::unique_ptr<Worker>& worker : workers_) {
    if (worker->alive.load(std::memory_order_acquire)) {
      (void)HealthCheckWorker(*worker);
    }
  }
  const uint64_t committed = CurrentEpoch();
  Status first_failure = Status::OK();
  for (std::unique_ptr<Worker>& worker : workers_) {
    if (worker->alive.load(std::memory_order_acquire)) {
      // Alive but lagging (it missed prepares, e.g. dropped RPCs): reload
      // it in place, no respawn needed.
      if (worker->epoch.load(std::memory_order_acquire) < committed) {
        Status caught = LoadWorker(*worker);
        if (caught.ok()) {
          worker->catchups.fetch_add(1, std::memory_order_relaxed);
        } else if (first_failure.ok()) {
          first_failure = std::move(caught);
        }
      }
      continue;
    }
    // Reap the previous incarnation (SIGKILL is a no-op if it already
    // exited; the waitpid prevents zombies either way).
    pid_t pid = worker->pid.load(std::memory_order_relaxed);
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
      worker->pid.store(-1, std::memory_order_relaxed);
    }
    worker->client->Disconnect();
    Status spawned = SpawnAndLoadWorker(*worker);
    if (spawned.ok()) {
      worker->restarts.fetch_add(1, std::memory_order_relaxed);
      // A respawn past epoch 0 loaded weights it never saw batch by batch
      // to rejoin the rotation — a catch-up in the replication sense.
      if (committed > 0) {
        worker->catchups.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (first_failure.ok()) {
      first_failure = std::move(spawned);
    }
  }
  if (!first_failure.ok()) {
    return Status::Unavailable("worker restart failed: " +
                               first_failure.ToString());
  }
  return Status::OK();
}

Status RemoteShardedRoutingService::RestartDeadWorkers() {
  // Exclusive: restarting swaps worker state under queries' feet otherwise.
  EpochWriterLock lock(snapshot_lock_);
  return RestartDeadWorkersLocked();
}

void RemoteShardedRoutingService::StopWorker(Worker& worker) {
  if (worker.client != nullptr &&
      worker.alive.load(std::memory_order_acquire)) {
    // Graceful half: ask the worker to exit. Short deadline — SIGKILL below
    // backs it up, and a dead worker should not stall teardown.
    std::string reply_payload;
    MutexLock lock(worker.mu);
    (void)worker.client->Call(MessageType::kShutdownRequest, std::string(),
                              MessageType::kShutdownReply, &reply_payload,
                              /*deadline_ms_override=*/500);
  }
  pid_t pid = worker.pid.load(std::memory_order_relaxed);
  if (pid > 0) {
    bool reaped = false;
    for (int i = 0; i < 50; ++i) {
      int wstatus = 0;
      pid_t r = waitpid(pid, &wstatus, WNOHANG);
      if (r != 0) {  // exited (or already reaped — nothing left to do)
        reaped = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
    worker.pid.store(-1, std::memory_order_relaxed);
  }
  worker.alive.store(false, std::memory_order_release);
  // The worker unlinks its socket on a graceful exit, but a SIGKILLed one
  // cannot — remove it here so teardown never litters the socket dir.
  if (!worker.socket_path.empty()) ::unlink(worker.socket_path.c_str());
}

TrafficBatchResult RemoteShardedRoutingService::ApplyBatch(
    std::span<const WeightUpdate> updates, uint64_t epoch) {
  if (remote_.auto_restart) {
    // Revive dead replicas and catch up lagging ones first so they
    // participate in this epoch instead of falling another batch behind.
    // Best-effort: a replica that stays dead degrades to sibling reads (or
    // per-query errors once the whole shard is dead), not this batch.
    (void)RestartDeadWorkersLocked();
  }

  // Coordinator-side grouping: which shards the batch touches, and how many
  // updates each worker SHOULD apply — the cross-check that catches a
  // worker whose deterministic rebuild diverged from ours.
  std::vector<char> shard_touched(assignment_.num_shards, 0);
  std::vector<uint64_t> expected_of_shard(assignment_.num_shards, 0);
  for (const SubgraphUpdates& group :
       GroupUpdatesBySubgraph(dtlp_->partition(), updates)) {
    const ShardId shard = assignment_.shard_of_subgraph[group.sgid];
    shard_touched[shard] = 1;
    expected_of_shard[shard] += group.updates.size();
  }

  // Fan the FULL batch out to every replica that is alive at the
  // preceding epoch (each filters to its owned subgraphs with the same
  // deterministic grouping). The epoch is always published
  // coordinator-side — the master state below is the source of truth, so a
  // failed prepare marks the replica dead (its reads fail over to
  // siblings until restart) instead of failing or stalling the batch. A
  // replica already lagging is skipped — prepares apply strictly in epoch
  // order — and stays out of the read rotation until it is reloaded.
  EpochPrepareRequest prepare;
  prepare.epoch = epoch;
  prepare.updates.assign(updates.begin(), updates.end());
  const std::string prepare_payload = prepare.Encode();
  const auto& prepare_hook = remote_.before_prepare_hook;
  apply_pool_->ParallelFor(
      workers_.size(), /*chunk=*/1, [&](unsigned, size_t wi) {
        Worker& worker = *workers_[wi];
        if (!worker.alive.load(std::memory_order_acquire)) return;
        if (worker.epoch.load(std::memory_order_acquire) != epoch - 1) return;
        if (prepare_hook) {
          ReplicaFaultPoint point{worker.shard, worker.replica,
                                  worker.pid.load(std::memory_order_relaxed),
                                  epoch};
          // A dropped prepare models a lost RPC: the replica stays alive
          // but silently misses this epoch (and leaves the read rotation
          // via the epoch check until caught up).
          if (!prepare_hook(point)) return;
        }
        std::string reply_payload;
        Status called;
        {
          MutexLock worker_lock(worker.mu);
          called = worker.client->Call(
              MessageType::kEpochPrepareRequest, prepare_payload,
              MessageType::kEpochPrepareReply, &reply_payload,
              remote_.apply_deadline_ms);
        }
        EpochPrepareReply reply;
        if (called.ok()) {
          called = EpochPrepareReply::Decode(reply_payload, &reply);
        }
        if (called.ok() && reply.epoch != epoch) {
          called = Status::Internal("worker acknowledged the wrong epoch");
        }
        if (called.ok() &&
            reply.updates_applied != expected_of_shard[worker.shard]) {
          called = Status::Internal(
              "worker " + std::to_string(worker.shard) + " replica " +
              std::to_string(worker.replica) + " applied " +
              std::to_string(reply.updates_applied) + " updates where the " +
              "coordinator expected " +
              std::to_string(expected_of_shard[worker.shard]) +
              " (divergent shard state)");
        }
        if (called.ok()) {
          worker.epoch.store(epoch, std::memory_order_release);
        } else {
          MarkWorkerDead(worker);
        }
      });
  for (ShardId si = 0; si < assignment_.num_shards; ++si) {
    if (shard_touched[si] != 0) routing_->MarkShardWritten(si, epoch);
  }

  // Master apply: the same step RoutingService takes, so the filter step
  // (bounds, skeleton, CANDS) stays answer-identical batch for batch.
  return ApplyToMaster(updates);
}

RemoteServiceCounters RemoteShardedRoutingService::counters() const {
  RemoteServiceCounters counters;
  counters.sharded = routing_->Counters(BaseCounters());
  counters.partial_rpc_errors = partial_rpc_errors_.value();
  for (const std::unique_ptr<Worker>& worker : workers_) {
    counters.rpc_calls += worker->client->calls();
    counters.rpc_retries += worker->client->retries();
    counters.rpc_deadline_expired += worker->client->deadline_expired();
    counters.worker_restarts +=
        worker->restarts.load(std::memory_order_relaxed);
    counters.replica_catchups +=
        worker->catchups.load(std::memory_order_relaxed);
  }
  return counters;
}

std::vector<RemoteWorkerInfo> RemoteShardedRoutingService::WorkerInfos()
    const {
  std::vector<RemoteWorkerInfo> infos;
  infos.reserve(workers_.size());
  for (const std::unique_ptr<Worker>& worker : workers_) {
    RemoteWorkerInfo info;
    info.shard = worker->shard;
    info.replica = worker->replica;
    info.pid = worker->pid.load(std::memory_order_relaxed);
    info.socket_path = worker->socket_path;
    info.alive = worker->alive.load(std::memory_order_acquire);
    info.epoch = worker->epoch.load(std::memory_order_relaxed);
    info.restarts = worker->restarts.load(std::memory_order_relaxed);
    info.catchups = worker->catchups.load(std::memory_order_relaxed);
    info.reads = worker->reads.value();
    info.subgraphs = assignment_.subgraphs_of_shard[worker->shard].size();
    info.vertices = assignment_.vertices_of_shard[worker->shard];
    info.partial_requests = worker->partial_requests.value();
    info.yen_runs = worker->yen_runs.value();
    info.partial_cache_hits = routing_->cache_hits(worker->shard);
    info.rpc_calls = worker->client->calls();
    info.rpc_retries = worker->client->retries();
    info.rpc_deadline_expired = worker->client->deadline_expired();
    infos.push_back(std::move(info));
  }
  return infos;
}

}  // namespace kspdg

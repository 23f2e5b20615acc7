// Tests for the out-of-process serving layer (src/remote + the
// shard_worker binary): byte-identical parity with the in-process
// ShardedRoutingService at 1/2/4 shards for every QueryKind, single and
// batched, before and after traffic; the cross-process epoch prepare; and
// the fault model — killed workers degrade to clean per-query Status
// errors (never a hang, never a wrong answer) and come back via restart +
// a load of the committed graph with their exact subgraph weights.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>

#include <chrono>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/routing_options.h"
#include "graph/generators.h"
#include "graph/traffic_model.h"
#include "ksp/path.h"
#include "parity_harness.h"
#include "remote/remote_sharded_routing_service.h"
#include "shard/sharded_routing_service.h"

namespace kspdg {
namespace {

void KillAllWorkers(const RemoteShardedRoutingService& service) {
  for (const RemoteWorkerInfo& info : service.WorkerInfos()) {
    ASSERT_GT(info.pid, 0);
    ASSERT_EQ(kill(info.pid, SIGKILL), 0);
  }
}

// ---------------------------------------------------------------------------
// Parity with the in-process sharded service: every kind, pre/post traffic.
// ---------------------------------------------------------------------------

TEST(RemoteShardedRoutingServiceTest, ParityWithInProcessAcrossKindsAndTraffic) {
  for (uint32_t num_shards : {1u, 2u, 4u}) {
    Graph g = MakeRandomConnected(40, 52, 1, 9, 307);
    Graph g_remote = g;
    std::unique_ptr<ShardedRoutingService> sharded =
        MustCreateSharded(std::move(g), /*z=*/10, num_shards);
    std::unique_ptr<RemoteShardedRoutingService> remote =
        MustCreateRemote(std::move(g_remote), /*z=*/10, num_shards);
    ASSERT_TRUE(sharded != nullptr && remote != nullptr);
    ASSERT_EQ(remote->num_shards(), num_shards);
    ASSERT_EQ(remote->assignment().shard_of_subgraph,
              sharded->assignment().shard_of_subgraph);

    TrafficModelOptions traffic_options;
    traffic_options.alpha = 0.5;
    traffic_options.seed = 41;
    TrafficModel traffic(sharded->graph(), traffic_options);

    for (int step = 0; step < 3; ++step) {
      if (step > 0) {
        std::vector<WeightUpdate> batch = traffic.NextBatch();
        Result<TrafficBatchResult> want_applied =
            sharded->ApplyTrafficBatch(batch);
        Result<TrafficBatchResult> got_applied =
            remote->ApplyTrafficBatch(batch);
        ASSERT_TRUE(want_applied.ok()) << want_applied.status().ToString();
        ASSERT_TRUE(got_applied.ok()) << got_applied.status().ToString();
        EXPECT_EQ(got_applied.value().epoch, want_applied.value().epoch);
        // Identical Algorithm 2 maintenance on the coordinator's master
        // copy: the remote fan-out composes the same primitives.
        EXPECT_EQ(got_applied.value().dtlp.updates_applied,
                  want_applied.value().dtlp.updates_applied);
        EXPECT_EQ(got_applied.value().dtlp.subgraphs_touched,
                  want_applied.value().dtlp.subgraphs_touched);
      }
      const std::string tag = " shards=" + std::to_string(num_shards) +
                              " step=" + std::to_string(step);
      for (const auto& [s, t] : std::vector<std::pair<VertexId, VertexId>>{
               {0, 39}, {3, 31}, {17, 22}}) {
        // kKsp on every stock backend (kspdg is the one whose refine step
        // crosses the process boundary).
        for (const char* backend :
             {kBackendKspDg, kBackendYen, kBackendDijkstra}) {
          uint32_t k = backend == kBackendDijkstra ? 1 : 5;
          ExpectQueryParity(*remote, *sharded, MakeRequest(s, t, backend, k),
                            std::string(backend) + tag);
        }

        // kShortestPath through the coordinator-owned CANDS index.
        RouteRequest shortest;
        shortest.kind = QueryKind::kShortestPath;
        shortest.source = s;
        shortest.target = t;
        Result<RouteResponse> want_sp = sharded->Query(shortest);
        Result<RouteResponse> got_sp = remote->Query(shortest);
        ASSERT_TRUE(want_sp.ok() && got_sp.ok());
        EXPECT_EQ(got_sp.value().backend, kBackendCands);
        ExpectIdenticalPaths(got_sp.value().paths, want_sp.value().paths,
                             "cands" + tag);

        // kDiverseKsp: candidates flow through the remote partials.
        RouteRequest diverse;
        diverse.kind = QueryKind::kDiverseKsp;
        diverse.source = s;
        diverse.target = t;
        diverse.options.k = 3;
        diverse.options.diversity_theta = 0.6;
        Result<RouteResponse> want_div = sharded->Query(diverse);
        Result<RouteResponse> got_div = remote->Query(diverse);
        ASSERT_TRUE(want_div.ok() && got_div.ok());
        ExpectIdenticalPaths(got_div.value().paths, want_div.value().paths,
                             "diverse" + tag);
        ASSERT_TRUE(got_div.value().diverse.has_value());
        ASSERT_TRUE(want_div.value().diverse.has_value());
        EXPECT_EQ(got_div.value().diverse->kept,
                  want_div.value().diverse->kept);
        EXPECT_EQ(got_div.value().diverse->candidates,
                  want_div.value().diverse->candidates);
      }
    }
    EXPECT_EQ(remote->CurrentEpoch(), 2u);
    // Every worker acknowledged both epochs.
    for (const RemoteWorkerInfo& info : remote->WorkerInfos()) {
      EXPECT_TRUE(info.alive) << "shard " << info.shard;
      EXPECT_EQ(info.epoch, 2u) << "shard " << info.shard;
      EXPECT_EQ(info.restarts, 0u) << "shard " << info.shard;
    }
  }
}

TEST(RemoteShardedRoutingServiceTest, BatchAndSubmitParityWithInProcess) {
  Graph g = MakeRandomConnected(36, 48, 1, 9, 311);
  Graph g_remote = g;
  std::unique_ptr<ShardedRoutingService> sharded =
      MustCreateSharded(std::move(g), /*z=*/10, /*num_shards=*/2);
  std::unique_ptr<RemoteShardedRoutingService> remote =
      MustCreateRemote(std::move(g_remote), /*z=*/10, /*num_shards=*/2);
  ASSERT_TRUE(sharded != nullptr && remote != nullptr);

  // Move both off epoch 0 so batches run against updated weights.
  TrafficModelOptions traffic_options;
  traffic_options.alpha = 0.4;
  traffic_options.seed = 59;
  TrafficModel traffic(sharded->graph(), traffic_options);
  std::vector<WeightUpdate> updates = traffic.NextBatch();
  ASSERT_TRUE(sharded->ApplyTrafficBatch(updates).ok());
  ASSERT_TRUE(remote->ApplyTrafficBatch(updates).ok());

  std::vector<RouteRequest> requests;
  for (VertexId s = 0; s < 6; ++s) {
    RouteRequest request =
        MakeRequest(s, 35 - s, s % 2 == 0 ? kBackendKspDg : kBackendYen, 4);
    if (s % 3 == 0) {
      request.kind = QueryKind::kDiverseKsp;
      request.options.k = 3;
    }
    requests.push_back(request);
  }

  Result<RouteBatchResponse> want = sharded->QueryBatch(requests);
  Result<RouteBatchResponse> got = remote->QueryBatch(requests);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got.value().num_ok, requests.size());
  EXPECT_EQ(got.value().epoch, want.value().epoch);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(got.value().items[i].status.ok())
        << got.value().items[i].status.ToString();
    ExpectIdenticalPaths(got.value().items[i].response.paths,
                         want.value().items[i].response.paths,
                         "batch item " + std::to_string(i));
  }

  // Async submission answers the identical batch.
  BatchTicket ticket = remote->SubmitBatch(requests);
  ASSERT_TRUE(ticket.valid());
  const Result<RouteBatchResponse>& async = ticket.Wait();
  ASSERT_TRUE(async.ok()) << async.status().ToString();
  ASSERT_EQ(async.value().num_ok, requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectIdenticalPaths(async.value().items[i].response.paths,
                         want.value().items[i].response.paths,
                         "async item " + std::to_string(i));
  }
  // A healthy fleet answered the prepare, the batch and the submission
  // without waiting out an RPC deadline or respawning a worker.
  RemoteServiceCounters counters = remote->counters();
  EXPECT_GT(counters.rpc_calls, 0u);
  EXPECT_EQ(counters.rpc_deadline_expired, 0u);
  EXPECT_EQ(counters.worker_restarts, 0u);
}

TEST(RemoteShardedRoutingServiceTest, RejectsInvalidRequestsAndCounts) {
  Graph g = MakeRandomConnected(16, 14, 1, 9, 313);
  std::unique_ptr<RemoteShardedRoutingService> service =
      MustCreateRemote(std::move(g), /*z=*/8, /*num_shards=*/2);
  ASSERT_TRUE(service != nullptr);
  EXPECT_EQ(service->Query(MakeRequest(0, 5, kBackendYen, 0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service->Query(MakeRequest(0, 99, kBackendYen, 2)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      service->Query(MakeRequest(0, 5, "no-such-backend", 2)).status().code(),
      StatusCode::kNotFound);
  RemoteServiceCounters counters = service->counters();
  EXPECT_EQ(counters.sharded.base.queries_ok, 0u);
  EXPECT_EQ(counters.sharded.base.queries_rejected, 3u);
  EXPECT_EQ(counters.partial_rpc_errors, 0u);
}

TEST(RemoteShardedRoutingServiceTest, CreateRejectsMissingWorkerBinary) {
  Graph g = MakeRandomConnected(12, 10, 1, 9, 317);
  RemoteShardedRoutingServiceOptions options;
  options.remote.worker_binary = "/nonexistent/shard_worker";
  EXPECT_FALSE(
      RemoteShardedRoutingService::Create(std::move(g), options).ok());
}

TEST(RemoteShardedRoutingServiceTest, WorkerFleetTelemetryIsCoherent) {
  Graph g = MakeRandomConnected(60, 80, 1, 9, 331);
  std::unique_ptr<RemoteShardedRoutingService> service =
      MustCreateRemote(std::move(g), /*z=*/10, /*num_shards=*/3);
  ASSERT_TRUE(service != nullptr);
  for (VertexId s = 0; s < 10; ++s) {
    ASSERT_TRUE(service->Query(MakeRequest(s, 59 - s, kBackendKspDg, 4)).ok());
  }
  std::vector<RemoteWorkerInfo> infos = service->WorkerInfos();
  ASSERT_EQ(infos.size(), 3u);
  size_t subgraphs = 0;
  uint64_t worker_partials = 0;
  for (const RemoteWorkerInfo& info : infos) {
    EXPECT_TRUE(info.alive) << info.shard;
    EXPECT_GT(info.pid, 0) << info.shard;
    subgraphs += info.subgraphs;
    worker_partials += info.partial_requests;
    EXPECT_GE(info.yen_runs, info.partial_requests) << info.shard;
  }
  EXPECT_EQ(subgraphs, service->dtlp().NumSubgraphs());
  RemoteServiceCounters counters = service->counters();
  EXPECT_EQ(counters.sharded.base.queries_ok, 10u);
  EXPECT_GT(counters.rpc_calls, 0u);
  EXPECT_EQ(counters.worker_restarts, 0u);
  EXPECT_GE(worker_partials, counters.sharded.direct_partial_requests +
                                 counters.sharded.scattered_partial_requests);
}

// Worker-registry round-trip: each shard_worker keeps its own
// MetricsRegistry and ships an encoded snapshot back in every Ping reply;
// the coordinator's Metrics() merges those snapshots into the fleet view,
// tagging each worker's samples with its shard id.
TEST(RemoteShardedRoutingServiceTest, FleetMetricsMergeWorkerRegistries) {
  Graph g = MakeRandomConnected(40, 52, 1, 9, 359);
  std::unique_ptr<RemoteShardedRoutingService> service =
      MustCreateRemote(std::move(g), /*z=*/10, /*num_shards=*/2);
  ASSERT_TRUE(service != nullptr);
  for (VertexId s = 0; s < 6; ++s) {
    ASSERT_TRUE(service->Query(MakeRequest(s, 39 - s, kBackendKspDg, 4)).ok());
  }

  MetricsSnapshot fleet = service->Metrics();
  // Coordinator-side accounting covers every issued query.
  EXPECT_EQ(fleet.CounterTotal("queries_ok_total"), 6u);
  EXPECT_EQ(fleet.CounterTotal("queries_rejected_total"), 0u);
  // Both workers reported a registry (one worker_epoch gauge each).
  EXPECT_EQ(fleet.GaugeSampleCount("worker_epoch"), 2u);

  std::set<std::string> shards;
  uint64_t worker_pings = 0;
  for (const CounterSample& counter : fleet.counters) {
    if (counter.name.rfind("worker_", 0) != 0) continue;
    for (const auto& [key, value] : counter.labels) {
      if (key == "shard") shards.insert(value);
    }
    if (counter.name == "worker_pings_total") worker_pings += counter.value;
  }
  EXPECT_EQ(shards, (std::set<std::string>{"0", "1"}));
  // The scrape itself pings the fleet, so every worker saw >= 1 ping.
  EXPECT_GT(worker_pings, 0u);
  // The workers' own partials accounting rode along with the merge.
  RemoteServiceCounters counters = service->counters();
  EXPECT_GE(fleet.CounterTotal("worker_partials_requests_total"),
            counters.sharded.direct_partial_requests +
                counters.sharded.scattered_partial_requests);
}

// Duplicate KSP-DG queries inside one batch are served from the
// per-(shard, worker) partial caches — no second round of partials RPCs.
TEST(RemoteShardedRoutingServiceTest, PartialCachesServeDuplicateInBatch) {
  Graph g = MakeRandomConnected(26, 32, 1, 9, 337);
  RemoteShardedRoutingServiceOptions options;
  options.dtlp.partition.max_vertices = 8;
  options.num_shards = 2;
  options.batch_threads = 1;
  Result<std::unique_ptr<RemoteShardedRoutingService>> created =
      RemoteShardedRoutingService::Create(std::move(g), std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<RemoteShardedRoutingService> service =
      std::move(created).value();

  std::vector<RouteRequest> requests = {MakeRequest(0, 25, kBackendKspDg, 5),
                                        MakeRequest(0, 25, kBackendKspDg, 5)};
  Result<RouteBatchResponse> batched = service->QueryBatch(requests);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched.value().num_ok, 2u);
  ASSERT_FALSE(batched.value().items[0].response.paths.empty());
  ExpectIdenticalPaths(batched.value().items[1].response.paths,
                       batched.value().items[0].response.paths,
                       "duplicate query in one remote batch");
  EXPECT_GT(service->counters().sharded.partial_cache_hits, 0u);
}

// ---------------------------------------------------------------------------
// Fault model: killed workers degrade to per-query errors, never a hang or
// a wrong answer; restart + reload restores the exact state.
// ---------------------------------------------------------------------------

// Fault-suite options: tight per-attempt deadline so a dead worker is
// detected in well under a second.
std::unique_ptr<RemoteShardedRoutingService> MustCreateRemoteFastFail(
    Graph g, uint32_t z, uint32_t num_shards, bool auto_restart) {
  RemoteShardedRoutingServiceOptions options;
  options.dtlp.partition.max_vertices = z;
  options.num_shards = num_shards;
  options.remote.rpc_deadline_ms = 300;
  options.remote.rpc_max_retries = 0;
  options.remote.rpc_backoff_ms = 1;
  options.remote.auto_restart = auto_restart;
  Result<std::unique_ptr<RemoteShardedRoutingService>> service =
      RemoteShardedRoutingService::Create(std::move(g), std::move(options));
  if (!service.ok()) {
    ADD_FAILURE() << service.status().ToString();
    return nullptr;
  }
  return std::move(service).value();
}

TEST(RemoteFaultTest, KilledWorkersYieldCleanErrorsNeverHangsOrWrongAnswers) {
  Graph g = MakeRandomConnected(26, 32, 1, 9, 347);
  Graph g_ref = g;
  std::unique_ptr<RemoteShardedRoutingService> service =
      MustCreateRemoteFastFail(std::move(g), /*z=*/8, /*num_shards=*/2,
                               /*auto_restart=*/false);
  std::unique_ptr<ShardedRoutingService> reference =
      MustCreateSharded(std::move(g_ref), /*z=*/8, /*num_shards=*/2);
  ASSERT_TRUE(service != nullptr && reference != nullptr);

  KillAllWorkers(*service);

  const auto start = std::chrono::steady_clock::now();
  size_t errors = 0;
  for (VertexId s = 0; s < 8; ++s) {
    RouteRequest request = MakeRequest(s, 25 - s, kBackendKspDg, 4);
    Result<RouteResponse> got = service->Query(request);
    if (!got.ok()) {
      // The documented degradation: a clean transport status, per query.
      EXPECT_TRUE(got.status().code() == StatusCode::kUnavailable ||
                  got.status().code() == StatusCode::kDeadlineExceeded)
          << got.status().ToString();
      ++errors;
      continue;
    }
    // A query that needed no remote partials is answered entirely from the
    // coordinator's master state — and must still be exactly right.
    Result<RouteResponse> want = reference->Query(request);
    ASSERT_TRUE(want.ok());
    ExpectIdenticalPaths(got.value().paths, want.value().paths,
                         "surviving query " + std::to_string(s));
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GT(errors, 0u) << "no query exercised the dead workers";
  // Fast-fail: the first failure marks the worker dead; later queries skip
  // the deadline wait entirely. Generous bound, but a hang would blow it.
  EXPECT_LT(elapsed.count(), 30);

  RemoteServiceCounters counters = service->counters();
  EXPECT_EQ(counters.partial_rpc_errors, errors);
  EXPECT_EQ(counters.sharded.base.queries_rejected, errors);

  // Backends that never leave the coordinator still serve every query.
  for (VertexId s = 0; s < 4; ++s) {
    RouteRequest request = MakeRequest(s, 25 - s, kBackendDijkstra, 1);
    Result<RouteResponse> got = service->Query(request);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    Result<RouteResponse> want = reference->Query(request);
    ASSERT_TRUE(want.ok());
    ExpectIdenticalPaths(got.value().paths, want.value().paths,
                         "dijkstra under dead workers");
  }
}

TEST(RemoteFaultTest, RestartDeadWorkersReplaysHistoryAndRestoresParity) {
  Graph g = MakeRandomConnected(30, 38, 1, 9, 349);
  Graph g_ref = g;
  std::unique_ptr<RemoteShardedRoutingService> service =
      MustCreateRemoteFastFail(std::move(g), /*z=*/8, /*num_shards=*/2,
                               /*auto_restart=*/false);
  std::unique_ptr<ShardedRoutingService> reference =
      MustCreateSharded(std::move(g_ref), /*z=*/8, /*num_shards=*/2);
  ASSERT_TRUE(service != nullptr && reference != nullptr);

  // Commit real history first: the restarted workers must land on the
  // weights their predecessors reached batch by batch.
  TrafficModelOptions traffic_options;
  traffic_options.alpha = 0.5;
  traffic_options.seed = 61;
  TrafficModel traffic(reference->graph(), traffic_options);
  for (int step = 0; step < 2; ++step) {
    std::vector<WeightUpdate> batch = traffic.NextBatch();
    ASSERT_TRUE(reference->ApplyTrafficBatch(batch).ok());
    ASSERT_TRUE(service->ApplyTrafficBatch(batch).ok());
  }

  KillAllWorkers(*service);
  // Surface the deaths (RestartDeadWorkers health-checks anyway, but this
  // exercises the query-path detection too).
  (void)service->Query(MakeRequest(0, 29, kBackendKspDg, 4));

  Status restarted = service->RestartDeadWorkers();
  ASSERT_TRUE(restarted.ok()) << restarted.ToString();
  uint64_t total_restarts = 0;
  for (const RemoteWorkerInfo& info : service->WorkerInfos()) {
    EXPECT_TRUE(info.alive) << "shard " << info.shard;
    EXPECT_EQ(info.epoch, 2u) << "shard " << info.shard;
    total_restarts += info.restarts;
  }
  EXPECT_GT(total_restarts, 0u);
  EXPECT_EQ(service->counters().worker_restarts, total_restarts);

  // Full parity at the committed snapshot: the reload restored the state.
  for (VertexId s = 0; s < 6; ++s) {
    for (const char* backend : {kBackendKspDg, kBackendYen}) {
      RouteRequest request = MakeRequest(s, 29 - s, backend, 4);
      Result<RouteResponse> got = service->Query(request);
      Result<RouteResponse> want = reference->Query(request);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got.value().epoch, 2u);
      ExpectIdenticalPaths(got.value().paths, want.value().paths,
                           std::string(backend) + " after restart, q " +
                               std::to_string(s));
    }
  }
}

TEST(RemoteFaultTest, ApplyTrafficBatchAutoRestartsDeadWorkers) {
  Graph g = MakeRandomConnected(26, 32, 1, 9, 353);
  Graph g_ref = g;
  std::unique_ptr<RemoteShardedRoutingService> service =
      MustCreateRemoteFastFail(std::move(g), /*z=*/8, /*num_shards=*/2,
                               /*auto_restart=*/true);
  std::unique_ptr<ShardedRoutingService> reference =
      MustCreateSharded(std::move(g_ref), /*z=*/8, /*num_shards=*/2);
  ASSERT_TRUE(service != nullptr && reference != nullptr);

  TrafficModelOptions traffic_options;
  traffic_options.alpha = 0.5;
  traffic_options.seed = 67;
  TrafficModel traffic(reference->graph(), traffic_options);
  std::vector<WeightUpdate> first = traffic.NextBatch();
  ASSERT_TRUE(reference->ApplyTrafficBatch(first).ok());
  ASSERT_TRUE(service->ApplyTrafficBatch(first).ok());

  KillAllWorkers(*service);

  // The next traffic batch revives the fleet (loading it at epoch 1), then
  // commits epoch 2 across it.
  std::vector<WeightUpdate> second = traffic.NextBatch();
  ASSERT_TRUE(reference->ApplyTrafficBatch(second).ok());
  Result<TrafficBatchResult> applied = service->ApplyTrafficBatch(second);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.value().epoch, 2u);

  uint64_t total_restarts = 0;
  for (const RemoteWorkerInfo& info : service->WorkerInfos()) {
    EXPECT_TRUE(info.alive) << "shard " << info.shard;
    EXPECT_EQ(info.epoch, 2u) << "shard " << info.shard;
    total_restarts += info.restarts;
  }
  EXPECT_EQ(total_restarts, 2u) << "both workers were killed once";

  for (VertexId s = 0; s < 6; ++s) {
    RouteRequest request = MakeRequest(s, 25 - s, kBackendKspDg, 4);
    Result<RouteResponse> got = service->Query(request);
    Result<RouteResponse> want = reference->Query(request);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok());
    ExpectIdenticalPaths(got.value().paths, want.value().paths,
                         "post-auto-restart q " + std::to_string(s));
  }
}

// The admission surface crosses the process boundary unchanged: the remote
// coordinator sheds expired work before any RPC leaves the master, and its
// Metrics() exports the same admission series names as the in-process
// services, readable through the same AdmissionCountersFrom view.
TEST(RemoteShardedRoutingServiceTest, AdmissionSeriesMatchInProcessServices) {
  Graph g = MakeRandomConnected(30, 38, 1, 9, 313);
  std::unique_ptr<RemoteShardedRoutingService> remote =
      MustCreateRemote(std::move(g), /*z=*/10, /*num_shards=*/2);
  ASSERT_TRUE(remote != nullptr);

  RouteRequest expired = MakeRequest(0, 29, kBackendYen, 3);
  expired.context.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  Result<RouteResponse> response = remote->Query(expired);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(remote->Query(MakeRequest(0, 29, kBackendYen, 3)).ok());

  AdmissionCounters counters = AdmissionCountersFrom(remote->Metrics());
  EXPECT_EQ(counters.admitted, 1u);
  EXPECT_EQ(counters.shed_deadline, 1u);
  EXPECT_EQ(counters.shed_quota, 0u);
}

}  // namespace
}  // namespace kspdg

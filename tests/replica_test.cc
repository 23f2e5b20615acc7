// Tests for replicated shard workers (src/remote at num_replicas > 1):
// replication must be invisible in the answers — byte-identical to the
// in-process ShardedRoutingService no matter which replica serves each
// partial fetch, across replica/shard counts, traffic, and every fault the
// harness can script (a replica killed mid-apply, a replica silently
// missing epochs, a whole shard dead). Catch-up — an in-place reload for a
// lagging replica, respawn + load for a dead one, both with the committed
// graph — must converge every replica back to the committed epoch with
// bit-identical state. Drills named *Replica*/*Concurrent* also run under
// the tsan repeat leg.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/routing_options.h"
#include "fault_harness.h"
#include "graph/generators.h"
#include "graph/traffic_model.h"
#include "ksp/path.h"
#include "parity_harness.h"
#include "remote/remote_sharded_routing_service.h"
#include "shard/sharded_routing_service.h"

namespace kspdg {
namespace {

RouteRequest MakeKindRequest(QueryKind kind, VertexId s, VertexId t) {
  RouteRequest request;
  request.kind = kind;
  request.source = s;
  request.target = t;
  request.options.k = 4;
  if (kind == QueryKind::kShortestPath) {
    request.options.k = 1;
  } else if (kind == QueryKind::kDiverseKsp) {
    request.options.k = 3;
    request.options.diversity_theta = 0.6;
  }
  return request;
}

// ---------------------------------------------------------------------------
// Parity across the (replicas x shards) grid: replication must be
// answer-invisible for every QueryKind, before and after traffic.
// ---------------------------------------------------------------------------

TEST(ReplicaTest, ReplicaParityAcrossShardAndReplicaCounts) {
  for (uint32_t num_replicas : {1u, 2u, 3u}) {
    for (uint32_t num_shards : {1u, 2u, 4u}) {
      Graph g = MakeRandomConnected(40, 52, 1, 9, 401);
      Graph g_remote = g;
      std::unique_ptr<ShardedRoutingService> sharded =
          MustCreateSharded(std::move(g), /*z=*/10, num_shards);
      std::unique_ptr<RemoteShardedRoutingService> remote = MustCreateRemote(
          std::move(g_remote), /*z=*/10, num_shards, num_replicas);
      ASSERT_TRUE(sharded != nullptr && remote != nullptr);
      ASSERT_EQ(remote->num_replicas(), num_replicas);
      ASSERT_EQ(remote->WorkerInfos().size(),
                size_t{num_shards} * num_replicas);

      TrafficModelOptions traffic_options;
      traffic_options.alpha = 0.5;
      traffic_options.seed = 43;
      TrafficModel traffic(sharded->graph(), traffic_options);

      for (int step = 0; step < 2; ++step) {
        if (step > 0) {
          std::vector<WeightUpdate> batch = traffic.NextBatch();
          ASSERT_TRUE(sharded->ApplyTrafficBatch(batch).ok());
          Result<TrafficBatchResult> applied = remote->ApplyTrafficBatch(batch);
          ASSERT_TRUE(applied.ok()) << applied.status().ToString();
        }
        const std::string tag = " r=" + std::to_string(num_replicas) +
                                " shards=" + std::to_string(num_shards) +
                                " step=" + std::to_string(step);
        for (const auto& [s, t] : std::vector<std::pair<VertexId, VertexId>>{
                 {0, 39}, {17, 22}}) {
          for (QueryKind kind : {QueryKind::kKsp, QueryKind::kShortestPath,
                                 QueryKind::kDiverseKsp}) {
            ExpectQueryParity(*remote, *sharded, MakeKindRequest(kind, s, t),
                              "kind=" + std::to_string(static_cast<int>(kind)) +
                                  tag);
          }
        }
      }
      // Every replica of every shard acknowledged the committed epoch.
      for (const RemoteWorkerInfo& info : remote->WorkerInfos()) {
        EXPECT_TRUE(info.alive) << info.shard << "/" << info.replica;
        EXPECT_EQ(info.epoch, 1u) << info.shard << "/" << info.replica;
      }
    }
  }
}

// The (shard, replica) label values of `sample`; empty where absent.
template <typename Sample>
std::pair<std::string, std::string> ShardReplicaOf(const Sample& sample) {
  std::string shard, replica;
  for (const auto& [key, value] : sample.labels) {
    if (key == "shard") shard = value;
    if (key == "replica") replica = value;
  }
  return {shard, replica};
}

// At R=2 reads actually rotate: both replicas of every shard serve
// fetches, and the fleet scrape carries every worker's own registry.
TEST(ReplicaTest, ReplicaReadsRotateRoundRobin) {
  Graph g = MakeRandomConnected(40, 52, 1, 9, 409);
  std::unique_ptr<RemoteShardedRoutingService> remote =
      MustCreateRemote(std::move(g), /*z=*/10, /*num_shards=*/2,
                       /*num_replicas=*/2);
  ASSERT_TRUE(remote != nullptr);
  for (VertexId s = 0; s < 10; ++s) {
    ASSERT_TRUE(remote->Query(MakeRequest(s, 39 - s, kBackendKspDg, 4)).ok());
  }
  const std::vector<RemoteWorkerInfo> infos = remote->WorkerInfos();
  ASSERT_EQ(infos.size(), 4u);
  // Round-robin per shard: 10 multi-fetch queries give each shard more
  // than one fetch, so no replica is left without reads.
  for (const RemoteWorkerInfo& info : infos) {
    EXPECT_GT(info.reads, 0u) << "replica " << info.shard << "/"
                              << info.replica << " served no reads";
  }
  // The per-replica read share is exported with replica labels.
  MetricsSnapshot fleet = remote->Metrics();
  std::set<std::pair<std::string, std::string>> labeled;
  for (const CounterSample& counter : fleet.counters) {
    if (counter.name == "reads_by_replica_total") {
      labeled.insert(ShardReplicaOf(counter));
    }
  }
  EXPECT_EQ(labeled.size(), 4u) << "expected a labeled series per replica";
  // The merged scrape holds one registry per worker and tags each worker's
  // own worker_* samples with its shard and its replica label (the
  // coordinator's worker_restarts_total carries neither).
  EXPECT_EQ(fleet.GaugeSampleCount("worker_epoch"), 4u);
  std::set<std::pair<std::string, std::string>> workers;
  for (const CounterSample& counter : fleet.counters) {
    const auto labels = ShardReplicaOf(counter);
    if (counter.name.rfind("worker_", 0) == 0 && !labels.first.empty()) {
      workers.insert(labels);
    }
  }
  const std::set<std::pair<std::string, std::string>> fleet_members = {
      {"0", "0"}, {"0", "1"}, {"1", "0"}, {"1", "1"}};
  EXPECT_EQ(workers, fleet_members);
}

// ---------------------------------------------------------------------------
// Replication invariants under faults.
// ---------------------------------------------------------------------------

// The failover drill. Kill one replica deterministically mid-apply (at the
// instant its prepare would go out): the batch still commits, the sibling
// serves every read, and answers stay byte-identical to the in-process
// service. The next batch (auto-restart on) respawns exactly that replica
// and catches it up, and answers stay identical at the new epoch.
TEST(ReplicaTest, ReplicaKillOneMidBatchKeepsAnswersIdentical) {
  Graph g = MakeRandomConnected(30, 38, 1, 9, 419);
  Graph g_ref = g;
  auto plan = std::make_shared<FaultPlan>();
  plan->shard = 0;
  plan->replica = 1;
  std::unique_ptr<RemoteShardedRoutingService> remote = MustCreateReplicated(
      std::move(g), /*z=*/8, /*num_shards=*/2, /*num_replicas=*/2, plan,
      /*auto_restart=*/true);
  std::unique_ptr<ShardedRoutingService> reference =
      MustCreateSharded(std::move(g_ref), /*z=*/8, /*num_shards=*/2);
  ASSERT_TRUE(remote != nullptr && reference != nullptr);

  TrafficModelOptions traffic_options;
  traffic_options.alpha = 0.5;
  traffic_options.seed = 71;
  TrafficModel traffic(reference->graph(), traffic_options);

  std::vector<WeightUpdate> first = traffic.NextBatch();
  ASSERT_TRUE(reference->ApplyTrafficBatch(first).ok());
  ASSERT_TRUE(remote->ApplyTrafficBatch(first).ok());

  // Arm the crash: replica (0,1) dies exactly at its epoch-2 prepare.
  plan->kill_at_prepare.store(true);
  std::vector<WeightUpdate> second = traffic.NextBatch();
  ASSERT_TRUE(reference->ApplyTrafficBatch(second).ok());
  Result<TrafficBatchResult> applied = remote->ApplyTrafficBatch(second);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.value().epoch, 2u);
  EXPECT_GE(plan->prepares_seen.load(), 2) << "fault point never reached";

  const std::vector<RemoteWorkerInfo> after_kill = remote->WorkerInfos();
  const RemoteWorkerInfo* killed = FindReplica(after_kill, 0, 1);
  ASSERT_NE(killed, nullptr);
  EXPECT_FALSE(killed->alive) << "mid-batch kill was not detected";

  // Every query answers (sibling failover) and matches bit-for-bit.
  uint64_t issued = 0;
  for (VertexId s = 0; s < 6; ++s) {
    for (QueryKind kind :
         {QueryKind::kKsp, QueryKind::kShortestPath, QueryKind::kDiverseKsp}) {
      ExpectQueryParity(*remote, *reference, MakeKindRequest(kind, s, 29 - s),
                        "after mid-batch kill, q " + std::to_string(s));
      ++issued;
    }
  }
  EXPECT_EQ(remote->counters().sharded.base.queries_rejected, 0u);
  // The surviving replica of shard 0 carried that shard's reads.
  const std::vector<RemoteWorkerInfo> after_queries = remote->WorkerInfos();
  const RemoteWorkerInfo* sibling = FindReplica(after_queries, 0, 0);
  ASSERT_NE(sibling, nullptr);
  EXPECT_TRUE(sibling->alive);

  // One more batch revives the victim before its prepare goes out: exactly
  // one respawn fleet-wide, loaded with the committed graph (a catch-up).
  std::vector<WeightUpdate> third = traffic.NextBatch();
  ASSERT_TRUE(reference->ApplyTrafficBatch(third).ok());
  applied = remote->ApplyTrafficBatch(third);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.value().epoch, 3u);
  for (const RemoteWorkerInfo& info : remote->WorkerInfos()) {
    EXPECT_TRUE(info.alive) << info.shard << "/" << info.replica;
    EXPECT_EQ(info.epoch, 3u) << info.shard << "/" << info.replica;
  }
  const RemoteServiceCounters healed = remote->counters();
  EXPECT_EQ(healed.worker_restarts, 1u);
  EXPECT_GE(healed.replica_catchups, 1u);
  for (VertexId s = 0; s < 6; ++s) {
    for (QueryKind kind :
         {QueryKind::kKsp, QueryKind::kShortestPath, QueryKind::kDiverseKsp}) {
      ExpectQueryParity(*remote, *reference, MakeKindRequest(kind, s, 29 - s),
                        "after auto-restart, q " + std::to_string(s));
      ++issued;
    }
  }
  // The registry accounts for every request across the kill and respawn,
  // and the scrape again carries all four workers' registries.
  const MetricsSnapshot fleet = remote->Metrics();
  EXPECT_EQ(fleet.CounterTotal("queries_ok_total"), issued);
  EXPECT_EQ(fleet.CounterTotal("queries_rejected_total"), 0u);
  EXPECT_EQ(fleet.GaugeSampleCount("worker_epoch"), 4u);
}

// A replica that silently misses an epoch (dropped prepare — a lost
// message) leaves the read rotation, the service keeps answering from its
// sibling, and an explicit RestartDeadWorkers catches it back up IN PLACE:
// replica_epoch converges to the committed epoch and post-catch-up answers
// still match the in-process service.
TEST(ReplicaTest, ReplicaLaggingCatchUpConvergesEpochAndAnswers) {
  Graph g = MakeRandomConnected(30, 38, 1, 9, 421);
  Graph g_ref = g;
  auto plan = std::make_shared<FaultPlan>();
  plan->shard = 1;
  plan->replica = 0;
  std::unique_ptr<RemoteShardedRoutingService> remote = MustCreateReplicated(
      std::move(g), /*z=*/8, /*num_shards=*/2, /*num_replicas=*/2, plan);
  std::unique_ptr<ShardedRoutingService> reference =
      MustCreateSharded(std::move(g_ref), /*z=*/8, /*num_shards=*/2);
  ASSERT_TRUE(remote != nullptr && reference != nullptr);

  TrafficModelOptions traffic_options;
  traffic_options.alpha = 0.5;
  traffic_options.seed = 73;
  TrafficModel traffic(reference->graph(), traffic_options);

  plan->drop_prepares.store(1);  // replica (1,0) misses epoch 1
  for (int step = 0; step < 2; ++step) {
    std::vector<WeightUpdate> batch = traffic.NextBatch();
    ASSERT_TRUE(reference->ApplyTrafficBatch(batch).ok());
    ASSERT_TRUE(remote->ApplyTrafficBatch(batch).ok());
  }
  EXPECT_EQ(plan->drop_prepares.load(), 0) << "fault point never reached";

  // Lagging but alive: out of rotation, not dead.
  const std::vector<RemoteWorkerInfo> while_lagging = remote->WorkerInfos();
  const RemoteWorkerInfo* lagging = FindReplica(while_lagging, 1, 0);
  ASSERT_NE(lagging, nullptr);
  EXPECT_TRUE(lagging->alive);
  EXPECT_LT(lagging->epoch, 2u);

  // Queries keep answering correctly from the up-to-date sibling.
  for (VertexId s = 0; s < 4; ++s) {
    ExpectQueryParity(*remote, *reference,
                      MakeRequest(s, 29 - s, kBackendKspDg, 4),
                      "lagging replica, q " + std::to_string(s));
  }

  Status restarted = remote->RestartDeadWorkers();
  ASSERT_TRUE(restarted.ok()) << restarted.ToString();

  // replica_epoch converged: every replica (exported gauge included) is at
  // the committed epoch, and the in-place reload counted as a catch-up.
  for (const RemoteWorkerInfo& info : remote->WorkerInfos()) {
    EXPECT_TRUE(info.alive) << info.shard << "/" << info.replica;
    EXPECT_EQ(info.epoch, 2u) << info.shard << "/" << info.replica;
    EXPECT_EQ(info.restarts, 0u) << "catch-up must not respawn";
  }
  const std::vector<RemoteWorkerInfo> after_catchup = remote->WorkerInfos();
  const RemoteWorkerInfo* caught = FindReplica(after_catchup, 1, 0);
  ASSERT_NE(caught, nullptr);
  EXPECT_GE(caught->catchups, 1u);
  EXPECT_GE(remote->counters().replica_catchups, 1u);
  MetricsSnapshot fleet = remote->Metrics();
  size_t converged = 0;
  for (const GaugeSample& gauge : fleet.gauges) {
    if (gauge.name != "replica_epoch") continue;
    EXPECT_EQ(gauge.value, 2) << "replica_epoch did not converge";
    ++converged;
  }
  EXPECT_EQ(converged, 4u);
  EXPECT_GE(fleet.CounterTotal("replica_catchups_total"), 1u);
  // Caught up by a second load in place (the first was at Create).
  EXPECT_EQ(ReplicaCounter(fleet, "worker_graph_loads_total", 1, 0), 2u);

  // Post-catch-up answers match (the caught-up replica is back in
  // rotation, so these fetches exercise it too).
  for (VertexId s = 0; s < 6; ++s) {
    for (QueryKind kind :
         {QueryKind::kKsp, QueryKind::kShortestPath, QueryKind::kDiverseKsp}) {
      ExpectQueryParity(*remote, *reference, MakeKindRequest(kind, s, 29 - s),
                        "post-catch-up q " + std::to_string(s));
    }
  }
}

// Both replicas of one shard dead: queries needing that shard fail with a
// clean per-query status (kUnavailable once detected), never hang; the
// other shard and coordinator-only backends keep serving.
TEST(ReplicaTest, ReplicaAllDeadShardYieldsUnavailableNoHang) {
  Graph g = MakeRandomConnected(26, 32, 1, 9, 431);
  Graph g_ref = g;
  std::unique_ptr<RemoteShardedRoutingService> remote = MustCreateReplicated(
      std::move(g), /*z=*/8, /*num_shards=*/2, /*num_replicas=*/2);
  std::unique_ptr<ShardedRoutingService> reference =
      MustCreateSharded(std::move(g_ref), /*z=*/8, /*num_shards=*/2);
  ASSERT_TRUE(remote != nullptr && reference != nullptr);

  KillReplica(*remote, /*shard=*/0, /*replica=*/0);
  KillReplica(*remote, /*shard=*/0, /*replica=*/1);

  const auto start = std::chrono::steady_clock::now();
  size_t errors = 0;
  for (VertexId s = 0; s < 8; ++s) {
    RouteRequest request = MakeRequest(s, 25 - s, kBackendKspDg, 4);
    Result<RouteResponse> got = remote->Query(request);
    if (!got.ok()) {
      EXPECT_TRUE(got.status().code() == StatusCode::kUnavailable ||
                  got.status().code() == StatusCode::kDeadlineExceeded)
          << got.status().ToString();
      ++errors;
      continue;
    }
    // Queries not touching shard 0 must still be exactly right.
    Result<RouteResponse> want = reference->Query(request);
    ASSERT_TRUE(want.ok());
    ExpectIdenticalPaths(got.value().paths, want.value().paths,
                         "surviving query " + std::to_string(s));
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GT(errors, 0u) << "no query exercised the dead shard";
  EXPECT_LT(elapsed.count(), 30) << "dead shard must fail fast, not hang";
  // Once both replicas are known dead, the failure is the documented
  // all-replicas-dead status.
  Result<RouteResponse> after = remote->Query(MakeRequest(0, 25, kBackendKspDg, 4));
  if (!after.ok()) {
    EXPECT_EQ(after.status().code(), StatusCode::kUnavailable)
        << after.status().ToString();
  }
  EXPECT_EQ(remote->counters().partial_rpc_errors,
            remote->counters().sharded.base.queries_rejected);
}

// A replica respawned after several batches never sees those batches: it
// loads the committed graph once and still converges bit-identically,
// because subgraph weights are absolute.
TEST(ReplicaTest, ReplicaCheckpointBoundsHistoryAndRestartConverges) {
  Graph g = MakeRandomConnected(30, 38, 1, 9, 433);
  Graph g_ref = g;
  std::unique_ptr<RemoteShardedRoutingService> remote = MustCreateReplicated(
      std::move(g), /*z=*/8, /*num_shards=*/2, /*num_replicas=*/2);
  std::unique_ptr<ShardedRoutingService> reference =
      MustCreateSharded(std::move(g_ref), /*z=*/8, /*num_shards=*/2);
  ASSERT_TRUE(remote != nullptr && reference != nullptr);

  TrafficModelOptions traffic_options;
  traffic_options.alpha = 0.5;
  traffic_options.seed = 79;
  TrafficModel traffic(reference->graph(), traffic_options);
  for (int step = 0; step < 3; ++step) {
    std::vector<WeightUpdate> batch = traffic.NextBatch();
    ASSERT_TRUE(reference->ApplyTrafficBatch(batch).ok());
    ASSERT_TRUE(remote->ApplyTrafficBatch(batch).ok());
  }
  // Kill a replica and respawn it at epoch 3.
  KillReplica(*remote, /*shard=*/1, /*replica=*/1);
  Status restarted = remote->RestartDeadWorkers();
  ASSERT_TRUE(restarted.ok()) << restarted.ToString();
  const std::vector<RemoteWorkerInfo> after_restart = remote->WorkerInfos();
  const RemoteWorkerInfo* revived = FindReplica(after_restart, 1, 1);
  ASSERT_NE(revived, nullptr);
  EXPECT_TRUE(revived->alive);
  EXPECT_EQ(revived->epoch, 3u);
  EXPECT_GE(revived->restarts, 1u);
  EXPECT_GE(revived->catchups, 1u);
  // The new process was loaded once at the committed epoch and applied no
  // batch itself.
  const MetricsSnapshot fleet = remote->Metrics();
  EXPECT_EQ(ReplicaCounter(fleet, "worker_graph_loads_total", 1, 1), 1u);
  EXPECT_EQ(ReplicaCounter(fleet, "worker_epoch_prepares_total", 1, 1), 0u);

  // Bit-identical convergence: answers match the reference that applied
  // the full history incrementally.
  for (VertexId s = 0; s < 6; ++s) {
    for (QueryKind kind :
         {QueryKind::kKsp, QueryKind::kShortestPath, QueryKind::kDiverseKsp}) {
      ExpectQueryParity(*remote, *reference, MakeKindRequest(kind, s, 29 - s),
                        "post-restart q " + std::to_string(s));
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded randomized parity sweep: mixed kinds, interleaved traffic, random
// single-replica kills — remote-replicated must stay path-identical to the
// in-process sharded service throughout.
// ---------------------------------------------------------------------------

class ReplicaRandomizedParitySweep : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(ReplicaRandomizedParitySweep, ReplicaRandomizedParitySweepSeeded) {
  const uint32_t seed = GetParam();
  std::mt19937 rng(seed);
  Graph g = MakeRandomConnected(32, 42, 1, 9, 500 + seed);
  Graph g_remote = g;
  std::unique_ptr<ShardedRoutingService> reference =
      MustCreateSharded(std::move(g), /*z=*/8, /*num_shards=*/2);
  // auto_restart on: a killed replica is revived by the next batch, so the
  // sweep exercises kill -> degraded reads -> respawn -> catch-up cycles.
  std::unique_ptr<RemoteShardedRoutingService> remote = MustCreateReplicated(
      std::move(g_remote), /*z=*/8, /*num_shards=*/2, /*num_replicas=*/2,
      /*plan=*/nullptr, /*auto_restart=*/true);
  ASSERT_TRUE(reference != nullptr && remote != nullptr);

  TrafficModelOptions traffic_options;
  traffic_options.alpha = 0.5;
  traffic_options.seed = seed * 7 + 1;
  TrafficModel traffic(reference->graph(), traffic_options);
  std::uniform_int_distribution<int> op_dist(0, 99);
  std::uniform_int_distribution<VertexId> vertex_dist(0, 31);
  std::uniform_int_distribution<uint32_t> pick_dist(0, 1);

  const QueryKind kinds[] = {QueryKind::kKsp, QueryKind::kShortestPath,
                             QueryKind::kDiverseKsp};
  for (int step = 0; step < 40; ++step) {
    const int op = op_dist(rng);
    if (op < 70) {
      VertexId s = vertex_dist(rng);
      VertexId t = vertex_dist(rng);
      if (s == t) t = (t + 1) % 32;
      QueryKind kind = kinds[static_cast<size_t>(op) % 3];
      ExpectQueryParity(*remote, *reference, MakeKindRequest(kind, s, t),
                        "seed " + std::to_string(seed) + " step " +
                            std::to_string(step));
    } else if (op < 90) {
      std::vector<WeightUpdate> batch = traffic.NextBatch();
      ASSERT_TRUE(reference->ApplyTrafficBatch(batch).ok());
      Result<TrafficBatchResult> applied = remote->ApplyTrafficBatch(batch);
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    } else {
      // Kill one random replica, but never the last live one of a shard —
      // the sweep asserts every query succeeds, which holds exactly while
      // each shard keeps a live replica.
      ShardId shard = pick_dist(rng);
      uint32_t replica = pick_dist(rng);
      const std::vector<RemoteWorkerInfo> infos = remote->WorkerInfos();
      const RemoteWorkerInfo* target = FindReplica(infos, shard, replica);
      const RemoteWorkerInfo* sibling =
          FindReplica(infos, shard, 1 - replica);
      ASSERT_TRUE(target != nullptr && sibling != nullptr);
      if (target->alive && sibling->alive) {
        KillReplica(*remote, shard, replica);
      }
    }
  }

  // Quiesce: revive everything and prove full convergence.
  ASSERT_TRUE(remote->RestartDeadWorkers().ok());
  const uint64_t committed = remote->CurrentEpoch();
  for (const RemoteWorkerInfo& info : remote->WorkerInfos()) {
    EXPECT_TRUE(info.alive) << info.shard << "/" << info.replica;
    EXPECT_EQ(info.epoch, committed) << info.shard << "/" << info.replica;
  }
  for (VertexId s = 0; s < 6; ++s) {
    ExpectQueryParity(*remote, *reference,
                      MakeRequest(s, 31 - s, kBackendKspDg, 4),
                      "seed " + std::to_string(seed) + " final");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicaRandomizedParitySweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Concurrency drill (tsan repeat leg): queries race a replica kill and a
// traffic batch (which auto-restarts the victim). Every query either
// succeeds with a bit-exact answer for its pinned epoch or fails with a
// clean transport status.
// ---------------------------------------------------------------------------

TEST(ReplicaTest, ConcurrentReplicaQueriesWithKillAndRestart) {
  Graph g = MakeRandomConnected(30, 38, 1, 9, 439);
  Graph g_ref = g;
  std::unique_ptr<RemoteShardedRoutingService> remote = MustCreateReplicated(
      std::move(g), /*z=*/8, /*num_shards=*/2, /*num_replicas=*/2,
      /*plan=*/nullptr, /*auto_restart=*/true);
  ASSERT_TRUE(remote != nullptr);

  // Reference answers for both epochs the racing queries can pin: epoch 1
  // (pre-batch) and epoch 2 (post-batch).
  TrafficModelOptions traffic_options;
  traffic_options.alpha = 0.5;
  traffic_options.seed = 83;
  TrafficModel traffic_a(g_ref, traffic_options);
  std::vector<WeightUpdate> first = traffic_a.NextBatch();
  std::vector<WeightUpdate> second = traffic_a.NextBatch();
  Graph g_ref2 = g_ref;
  std::unique_ptr<ShardedRoutingService> ref_epoch1 =
      MustCreateSharded(std::move(g_ref), /*z=*/8, /*num_shards=*/2);
  std::unique_ptr<ShardedRoutingService> ref_epoch2 =
      MustCreateSharded(std::move(g_ref2), /*z=*/8, /*num_shards=*/2);
  ASSERT_TRUE(ref_epoch1 != nullptr && ref_epoch2 != nullptr);
  ASSERT_TRUE(ref_epoch1->ApplyTrafficBatch(first).ok());
  ASSERT_TRUE(ref_epoch2->ApplyTrafficBatch(first).ok());
  ASSERT_TRUE(ref_epoch2->ApplyTrafficBatch(second).ok());
  ASSERT_TRUE(remote->ApplyTrafficBatch(first).ok());

  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> error_count{0};
  std::atomic<bool> failed{false};
  auto query_loop = [&](unsigned tid) {
    for (int i = 0; i < 20 && !failed.load(); ++i) {
      VertexId s = (tid * 5 + static_cast<VertexId>(i)) % 30;
      VertexId t = 29 - s == s ? (s + 1) % 30 : 29 - s;
      Result<RouteResponse> got =
          remote->Query(MakeRequest(s, t, kBackendKspDg, 4));
      if (!got.ok()) {
        if (got.status().code() != StatusCode::kUnavailable &&
            got.status().code() != StatusCode::kDeadlineExceeded) {
          ADD_FAILURE() << "unclean failure: " << got.status().ToString();
          failed.store(true);
        }
        error_count.fetch_add(1);
        continue;
      }
      ShardedRoutingService& want_service =
          got.value().epoch >= 2 ? *ref_epoch2 : *ref_epoch1;
      Result<RouteResponse> want =
          want_service.Query(MakeRequest(s, t, kBackendKspDg, 4));
      if (!want.ok()) {
        ADD_FAILURE() << want.status().ToString();
        failed.store(true);
        continue;
      }
      ExpectIdenticalPaths(got.value().paths, want.value().paths,
                           "concurrent q tid=" + std::to_string(tid) +
                               " i=" + std::to_string(i) + " epoch=" +
                               std::to_string(got.value().epoch));
      ok_count.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (unsigned tid = 0; tid < 4; ++tid) {
    threads.emplace_back(query_loop, tid);
  }
  // Race: kill a replica under the readers, then commit a batch (which
  // auto-restarts and catches it up) while queries are still in flight.
  KillReplica(*remote, /*shard=*/0, /*replica=*/1);
  Result<TrafficBatchResult> applied = remote->ApplyTrafficBatch(second);
  for (std::thread& thread : threads) thread.join();

  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_GT(ok_count.load(), 0u);
  // Post-quiesce: the killed replica is back at the committed epoch and
  // answers converge.
  ASSERT_TRUE(remote->RestartDeadWorkers().ok());
  for (const RemoteWorkerInfo& info : remote->WorkerInfos()) {
    EXPECT_TRUE(info.alive) << info.shard << "/" << info.replica;
    EXPECT_EQ(info.epoch, 2u) << info.shard << "/" << info.replica;
  }
  for (VertexId s = 0; s < 4; ++s) {
    ExpectQueryParity(*remote, *ref_epoch2,
                      MakeRequest(s, 29 - s, kBackendKspDg, 4),
                      "post-drill q " + std::to_string(s));
  }
}

}  // namespace
}  // namespace kspdg

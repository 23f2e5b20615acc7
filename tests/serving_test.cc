// Tests for the serving surface all three deployments share — the inline
// RoutingService, the in-process ShardedRoutingService and the
// RemoteShardedRoutingService fleet: every one exports the series the plain
// service exports (dashboards and the benchmark read them by name), drains
// accepted SubmitBatch work on destruction while its shard providers are
// still alive, holds a traffic batch back while a query is inside its
// snapshot, and flushes per-shard partial caches by the same rule.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/ksp_solver.h"
#include "api/routing_options.h"
#include "api/routing_service_interface.h"
#include "api/serving_core.h"
#include "graph/generators.h"
#include "ksp/path.h"
#include "parity_harness.h"

namespace kspdg {
namespace {

enum class Deployment { kPlain, kSharded, kFleet };

std::string DeploymentName(Deployment deployment) {
  switch (deployment) {
    case Deployment::kPlain:
      return "Plain";
    case Deployment::kSharded:
      return "Sharded";
    case Deployment::kFleet:
      return "Fleet";
  }
  return "Unknown";
}

std::unique_ptr<ServingCore> MustCreate(Deployment deployment, Graph g,
                                        uint32_t z) {
  switch (deployment) {
    case Deployment::kPlain:
      return MustCreatePlain(std::move(g), z);
    case Deployment::kSharded:
      return MustCreateSharded(std::move(g), z, /*num_shards=*/2);
    case Deployment::kFleet:
      return MustCreateRemote(std::move(g), z, /*num_shards=*/2);
  }
  return nullptr;
}

// A series is its name plus its label keys (values vary per shard/backend).
using Series = std::pair<std::string, std::set<std::string>>;

template <typename Sample>
void CollectSeries(const std::vector<Sample>& samples, std::set<Series>* out) {
  for (const Sample& sample : samples) {
    std::set<std::string> keys;
    for (const auto& [key, value] : sample.labels) keys.insert(key);
    out->insert({sample.name, std::move(keys)});
  }
}

std::set<Series> SeriesOf(const MetricsSnapshot& snapshot) {
  std::set<Series> series;
  CollectSeries(snapshot.counters, &series);
  CollectSeries(snapshot.gauges, &series);
  CollectSeries(snapshot.histograms, &series);
  return series;
}

bool HasSeriesNamed(const std::set<Series>& series, const std::string& name) {
  for (const Series& s : series) {
    if (s.first == name) return true;
  }
  return false;
}

// One Query, one QueryBatch, one SubmitBatch and one traffic batch: every
// path that registers or bumps a series has run at least once.
void Exercise(RoutingServiceInterface& service, VertexId last) {
  ASSERT_TRUE(service.Query(MakeRequest(0, last, kBackendKspDg, 3)).ok());
  std::vector<RouteRequest> requests = {MakeRequest(0, last, kBackendKspDg, 3),
                                        MakeRequest(1, last, kBackendYen, 2)};
  Result<RouteBatchResponse> batch = service.QueryBatch(requests);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.value().num_ok, requests.size());
  BatchTicket ticket = service.SubmitBatch(requests);
  const Result<RouteBatchResponse>& submitted = ticket.Wait();
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  EXPECT_EQ(submitted.value().num_ok, requests.size());
  std::vector<WeightUpdate> updates = {{0, 3.0, 3.0}};
  ASSERT_TRUE(service.ApplyTrafficBatch(updates).ok());
}

TEST(ServingMetricsParityTest, EveryPlainSeriesIsExportedByAllDeployments) {
  const Graph g = MakeRandomConnected(30, 38, 1, 9, 401);
  std::set<Series> plain_series;
  std::vector<std::pair<Deployment, std::set<Series>>> others;
  for (Deployment deployment :
       {Deployment::kPlain, Deployment::kSharded, Deployment::kFleet}) {
    std::unique_ptr<RoutingServiceInterface> service =
        MustCreate(deployment, g, /*z=*/10);
    ASSERT_TRUE(service != nullptr) << DeploymentName(deployment);
    Exercise(*service, 29);
    const MetricsSnapshot snapshot = service->Metrics();
    // A scrape carries all three sample kinds, and its JSON export names
    // the request counter.
    EXPECT_FALSE(snapshot.counters.empty()) << DeploymentName(deployment);
    EXPECT_FALSE(snapshot.gauges.empty()) << DeploymentName(deployment);
    EXPECT_FALSE(snapshot.histograms.empty()) << DeploymentName(deployment);
    EXPECT_NE(snapshot.ToJson().find("\"name\":\"queries_ok_total\""),
              std::string::npos)
        << DeploymentName(deployment);
    std::set<Series> series = SeriesOf(snapshot);
    // The series the repository benchmark reads, on every deployment.
    for (const char* name :
         {"epoch_writer_wait_micros", "queries_ok_total",
          "queries_rejected_total", "submission_queue_enqueue_blocked_total"}) {
      EXPECT_TRUE(HasSeriesNamed(series, name))
          << DeploymentName(deployment) << " does not export " << name;
    }
    if (deployment == Deployment::kPlain) {
      plain_series = std::move(series);
    } else {
      others.emplace_back(deployment, std::move(series));
    }
  }
  ASSERT_FALSE(plain_series.empty());
  for (const auto& [deployment, series] : others) {
    for (const Series& want : plain_series) {
      std::string keys;
      for (const std::string& key : want.second) keys += key + ",";
      EXPECT_EQ(series.count(want), 1u)
          << DeploymentName(deployment) << " does not export " << want.first
          << "{" << keys << "}";
    }
  }
}

class ServingDrainTest : public ::testing::TestWithParam<Deployment> {};

// Destroying a deployment with accepted KSP-DG batches still queued must
// drain them through its partial provider (inline, shard locks, or worker
// RPCs) before the shards or workers go away: every ticket is fulfilled
// with answers, none hangs.
TEST_P(ServingDrainTest, DestructionDrainsAcceptedKspdgBatches) {
  Graph g = MakeRandomConnected(20, 26, 1, 9, 59);
  std::unique_ptr<RoutingServiceInterface> service =
      MustCreate(GetParam(), std::move(g), /*z=*/8);
  ASSERT_TRUE(service != nullptr);

  std::vector<BatchTicket> tickets;
  for (int round = 0; round < 4; ++round) {
    tickets.push_back(service->SubmitBatch(
        {MakeRequest(0, 19, kBackendKspDg, 3),
         MakeRequest(2, 17, kBackendKspDg, 2)}));
  }
  service.reset();  // drains the submission queue before tearing down
  for (const BatchTicket& ticket : tickets) {
    const Result<RouteBatchResponse>& outcome = ticket.Wait();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome.value().num_ok, 2u);
    for (const RouteBatchItem& item : outcome.value().items) {
      EXPECT_FALSE(item.response.paths.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDeployments, ServingDrainTest,
    ::testing::Values(Deployment::kPlain, Deployment::kSharded,
                      Deployment::kFleet),
    [](const ::testing::TestParamInfo<Deployment>& info) {
      return DeploymentName(info.param);
    });

// ---------------------------------------------------------------------------
// One snapshot lock: a query inside its snapshot section holds every
// traffic batch back, on every deployment.
// ---------------------------------------------------------------------------

// A backend that signals `entered` from inside Solve and then parks until
// `release` opens, so a test can keep a query in its snapshot section.
class LatchSolver : public KspSolver {
 public:
  LatchSolver(std::latch& entered, std::latch& release)
      : entered_(entered), release_(release) {}

  std::string_view name() const override { return "latch"; }

  Result<KspQueryResult> Solve(const SolverInput&,
                               SolverScratch*) const override {
    entered_.count_down();
    release_.wait();
    return KspQueryResult{};
  }

 private:
  std::latch& entered_;
  std::latch& release_;
};

class ConcurrentSnapshotTest : public ::testing::TestWithParam<Deployment> {};

TEST_P(ConcurrentSnapshotTest, TrafficWaitsForAPinnedQuery) {
  // Declared before the service, which owns the solver that uses them.
  std::latch entered(1);
  std::latch release(1);
  Graph g = MakeRandomConnected(20, 26, 1, 9, 59);
  std::unique_ptr<ServingCore> service =
      MustCreate(GetParam(), std::move(g), /*z=*/8);
  ASSERT_TRUE(service != nullptr);
  ASSERT_TRUE(
      service->RegisterSolver(std::make_unique<LatchSolver>(entered, release))
          .ok());

  std::optional<Result<RouteResponse>> answered;
  std::thread reader(
      [&] { answered = service->Query(MakeRequest(0, 19, "latch", 2)); });
  entered.wait();  // the query now holds the snapshot lock shared

  std::atomic<bool> applied{false};
  std::optional<Result<TrafficBatchResult>> batch;
  std::thread writer([&] {
    std::vector<WeightUpdate> updates = {{0, 3.0, 3.0}};
    batch = service->ApplyTrafficBatch(updates);
    applied.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(applied.load(std::memory_order_acquire))
      << "the traffic batch did not wait for the pinned query";
  EXPECT_EQ(service->CurrentEpoch(), 0u);

  release.count_down();
  reader.join();
  writer.join();
  ASSERT_TRUE(answered.has_value());
  ASSERT_TRUE(answered->ok()) << answered->status().ToString();
  EXPECT_EQ(answered->value().epoch, 0u);
  ASSERT_TRUE(batch.has_value());
  ASSERT_TRUE(batch->ok()) << batch->status().ToString();
  EXPECT_EQ(batch->value().epoch, 1u);
  EXPECT_EQ(service->CurrentEpoch(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllDeployments, ConcurrentSnapshotTest,
    ::testing::Values(Deployment::kPlain, Deployment::kSharded,
                      Deployment::kFleet),
    [](const ::testing::TestParamInfo<Deployment>& info) {
      return DeploymentName(info.param);
    });

// ---------------------------------------------------------------------------
// Per-shard partial caches: the in-process shards and the fleet share one
// flush rule (a shard's cache drops when that shard's slice changes).
// ---------------------------------------------------------------------------

template <typename Service>
struct ShardedDeployment;

// One batch worker, so a repeat batch meets the caches the first one
// warmed.
template <>
struct ShardedDeployment<ShardedRoutingService> {
  static std::unique_ptr<ShardedRoutingService> Create(Graph g, uint32_t z,
                                                       uint32_t num_shards) {
    return MustCreateSharded(std::move(g), z, num_shards,
                             /*apply_threads=*/0, /*batch_threads=*/1);
  }
  /// Partial requests shard `shard` computed fresh (cache misses).
  static uint64_t FreshPartials(const ShardedRoutingService& service,
                                ShardId shard) {
    return service.ShardInfos()[shard].partial_requests;
  }
  static ShardedServiceCounters Counters(const ShardedRoutingService& service) {
    return service.counters();
  }
};

template <>
struct ShardedDeployment<RemoteShardedRoutingService> {
  static std::unique_ptr<RemoteShardedRoutingService> Create(
      Graph g, uint32_t z, uint32_t num_shards) {
    RemoteShardedRoutingServiceOptions options;
    options.dtlp.partition.max_vertices = z;
    options.num_shards = num_shards;
    options.batch_threads = 1;
    Result<std::unique_ptr<RemoteShardedRoutingService>> service =
        RemoteShardedRoutingService::Create(std::move(g), std::move(options));
    if (!service.ok()) {
      ADD_FAILURE() << service.status().ToString();
      return nullptr;
    }
    return std::move(service).value();
  }
  static uint64_t FreshPartials(const RemoteShardedRoutingService& service,
                                ShardId shard) {
    uint64_t fresh = 0;
    for (const RemoteWorkerInfo& info : service.WorkerInfos()) {
      if (info.shard == shard) fresh += info.partial_requests;
    }
    return fresh;
  }
  static ShardedServiceCounters Counters(
      const RemoteShardedRoutingService& service) {
    return service.counters().sharded;
  }
};

template <typename Service>
class ShardCacheTest : public ::testing::Test {};

struct ShardedDeploymentNames {
  template <typename Service>
  static std::string GetName(int) {
    return std::is_same_v<Service, ShardedRoutingService> ? "InProcess"
                                                          : "Fleet";
  }
};

using ShardedDeployments =
    ::testing::Types<ShardedRoutingService, RemoteShardedRoutingService>;
TYPED_TEST_SUITE(ShardCacheTest, ShardedDeployments, ShardedDeploymentNames);

// A traffic batch touching every shard must flush every shard's cache —
// stale partials would answer with the old epoch's distances.
TYPED_TEST(ShardCacheTest, PerShardCachesFlushWhenShardEpochBumps) {
  Graph g = MakeRandomConnected(26, 32, 1, 1, 83);  // all weights 1
  const size_t num_edges = g.NumEdges();
  auto service = ShardedDeployment<TypeParam>::Create(std::move(g), /*z=*/8,
                                                      /*num_shards=*/2);
  ASSERT_TRUE(service != nullptr);

  std::vector<RouteRequest> requests = {MakeRequest(0, 25, kBackendKspDg, 4),
                                        MakeRequest(0, 25, kBackendYen, 4)};
  Result<RouteBatchResponse> before = service->QueryBatch(requests);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before.value().num_ok, 2u);

  // Double every weight; all path distances must exactly double.
  std::vector<WeightUpdate> updates;
  updates.reserve(num_edges);
  for (EdgeId e = 0; e < num_edges; ++e) updates.push_back({e, 2.0, 2.0});
  ASSERT_TRUE(service->ApplyTrafficBatch(updates).ok());

  Result<RouteBatchResponse> after = service->QueryBatch(requests);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after.value().num_ok, 2u);
  EXPECT_EQ(after.value().epoch, before.value().epoch + 1);
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::vector<Path>& old_paths =
        before.value().items[i].response.paths;
    const std::vector<Path>& new_paths = after.value().items[i].response.paths;
    ASSERT_EQ(new_paths.size(), old_paths.size()) << i;
    for (size_t p = 0; p < new_paths.size(); ++p) {
      EXPECT_NEAR(new_paths[p].distance, 2.0 * old_paths[p].distance, 1e-7)
          << "item " << i << " rank " << p;
    }
  }
  EXPECT_GT(ShardedDeployment<TypeParam>::Counters(*service)
                .partial_cache_flushes,
            0u);
}

// A traffic batch touching only ONE shard's subgraphs must not flush the
// other shards' caches (flush is keyed on the shard's weights stamp, not
// the published epoch) — and the retained entries must still produce
// answers byte-identical to a fresh unsharded service at the new snapshot.
TYPED_TEST(ShardCacheTest, UntouchedShardsKeepTheirCachesAcrossTraffic) {
  Graph g = MakeRandomConnected(48, 60, 1, 9, 91);
  Graph g_plain = g;
  auto sharded = ShardedDeployment<TypeParam>::Create(std::move(g), /*z=*/10,
                                                      /*num_shards=*/3);
  std::unique_ptr<RoutingService> plain =
      MustCreatePlain(std::move(g_plain), /*z=*/10);
  ASSERT_TRUE(sharded != nullptr && plain != nullptr);

  // Warm the per-shard caches with a spread of KSP-DG queries.
  std::vector<RouteRequest> requests;
  for (VertexId s = 0; s < 8; ++s) {
    requests.push_back(MakeRequest(s, 47 - s, kBackendKspDg, 4));
  }
  ASSERT_TRUE(sharded->QueryBatch(requests).ok());

  // Re-apply ONE edge's current weights: the epoch advances and exactly
  // one shard's slice is written, but every weight stays bit-identical —
  // so the repeat batch requests exactly the same boundary pairs, and any
  // fresh computation on an untouched shard can only mean its cache was
  // wrongly flushed.
  const Partition& partition = sharded->dtlp().partition();
  EdgeId edge = 0;
  SubgraphId owner = partition.subgraph_of_edge[edge];
  ASSERT_NE(owner, kInvalidSubgraph);
  ShardId touched_shard = sharded->assignment().shard_of_subgraph[owner];
  std::vector<WeightUpdate> noop = {{edge, sharded->graph().ForwardWeight(edge),
                                     sharded->graph().BackwardWeight(edge)}};
  ASSERT_TRUE(sharded->ApplyTrafficBatch(noop).ok());
  EXPECT_EQ(sharded->CurrentEpoch(), 1u);

  std::vector<uint64_t> before;
  for (ShardId shard = 0; shard < sharded->num_shards(); ++shard) {
    before.push_back(ShardedDeployment<TypeParam>::FreshPartials(*sharded,
                                                                 shard));
  }
  Result<RouteBatchResponse> repeat = sharded->QueryBatch(requests);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  ASSERT_EQ(repeat.value().num_ok, requests.size());
  for (ShardId shard = 0; shard < sharded->num_shards(); ++shard) {
    if (shard == touched_shard) continue;
    EXPECT_EQ(ShardedDeployment<TypeParam>::FreshPartials(*sharded, shard),
              before[shard])
        << "shard " << shard
        << " recomputed partials although its slice never changed";
  }

  // A real weight change on the same shard: parity against an unsharded
  // service proves the retained entries on untouched shards are not stale.
  std::vector<WeightUpdate> update = {{edge, 7.5, 7.5}};
  ASSERT_TRUE(sharded->ApplyTrafficBatch(update).ok());
  ASSERT_TRUE(plain->ApplyTrafficBatch(noop).ok());
  ASSERT_TRUE(plain->ApplyTrafficBatch(update).ok());
  Result<RouteBatchResponse> after = sharded->QueryBatch(requests);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after.value().num_ok, requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<RouteResponse> want = plain->Query(requests[i]);
    ASSERT_TRUE(want.ok());
    ExpectIdenticalPaths(after.value().items[i].response.paths,
                         want.value().paths,
                         "post-update item " + std::to_string(i));
  }
}

}  // namespace
}  // namespace kspdg

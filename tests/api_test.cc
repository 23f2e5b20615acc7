// Tests for the RoutingService facade (src/api): backend parity, layered
// option validation, the solver registry, and snapshot-safe query/update
// interleaving with epoch monotonicity.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/ksp_solver.h"
#include "api/routing_options.h"
#include "api/routing_service.h"
#include "graph/generators.h"
#include "graph/traffic_model.h"
#include "ksp/path.h"

namespace kspdg {
namespace {

std::unique_ptr<RoutingService> MustCreate(Graph g, uint32_t z = 0,
                                           RoutingOptions defaults = {},
                                           unsigned batch_threads = 0,
                                           unsigned build_threads = 1) {
  RoutingServiceOptions options;
  options.defaults = std::move(defaults);
  options.batch_threads = batch_threads;
  options.dtlp.build_threads = build_threads;
  if (z != 0) options.dtlp.partition.max_vertices = z;
  Result<std::unique_ptr<RoutingService>> service =
      RoutingService::Create(std::move(g), std::move(options));
  if (!service.ok()) {
    ADD_FAILURE() << service.status().ToString();
    return nullptr;
  }
  return std::move(service).value();
}

RouteRequest MakeRequest(VertexId s, VertexId t, const std::string& backend,
                       uint32_t k) {
  RouteRequest request;
  request.source = s;
  request.target = t;
  request.options.backend = backend;
  request.options.k = k;
  return request;
}

std::vector<Path> MustSolve(const RoutingService& service, VertexId s,
                            VertexId t, const std::string& backend,
                            uint32_t k) {
  Result<RouteResponse> response =
      service.Query(MakeRequest(s, t, backend, k));
  if (!response.ok()) {
    ADD_FAILURE() << response.status().ToString();
    return {};
  }
  EXPECT_EQ(response.value().backend, backend);
  EXPECT_EQ(response.value().k, k);
  return std::move(response).value().paths;
}

void ExpectSameDistances(const std::vector<Path>& got,
                         const std::vector<Path>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].distance, want[i].distance, 1e-7)
        << label << " rank " << i;
  }
}

TEST(RoutingServiceTest, BackendParityOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Graph g = MakeRandomConnected(26, 30, 1, 9, seed * 13 + 1);
    std::unique_ptr<RoutingService> service =
        MustCreate(std::move(g), /*z=*/8);
    ASSERT_TRUE(service != nullptr);
    VertexId s = 0, t = 25;
    std::vector<Path> yen = MustSolve(*service, s, t, kBackendYen, 6);
    std::vector<Path> kspdg = MustSolve(*service, s, t, kBackendKspDg, 6);
    std::vector<Path> findksp = MustSolve(*service, s, t, kBackendFindKsp, 6);
    ASSERT_FALSE(yen.empty());
    ExpectSameDistances(kspdg, yen, "kspdg vs yen seed " +
                                        std::to_string(seed));
    ExpectSameDistances(findksp, yen, "findksp vs yen seed " +
                                          std::to_string(seed));
    std::vector<Path> dijkstra =
        MustSolve(*service, s, t, kBackendDijkstra, 1);
    ASSERT_EQ(dijkstra.size(), 1u);
    EXPECT_NEAR(dijkstra[0].distance, yen[0].distance, 1e-9);
  }
}

TEST(RoutingServiceTest, BackendParityAfterTrafficBatches) {
  Graph g = MakeRandomConnected(30, 36, 2, 12, 99);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g), /*z=*/10);
  ASSERT_TRUE(service != nullptr);
  TrafficModelOptions traffic_options;
  traffic_options.alpha = 0.5;
  traffic_options.seed = 5;
  TrafficModel traffic(service->graph(), traffic_options);
  for (int step = 0; step < 4; ++step) {
    std::vector<WeightUpdate> batch = traffic.NextBatch();
    Result<TrafficBatchResult> applied = service->ApplyTrafficBatch(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(applied.value().epoch, static_cast<uint64_t>(step + 1));
    std::vector<Path> yen = MustSolve(*service, 1, 28, kBackendYen, 5);
    std::vector<Path> kspdg = MustSolve(*service, 1, 28, kBackendKspDg, 5);
    ExpectSameDistances(kspdg, yen, "step " + std::to_string(step));
    // Distances must reflect the *current* snapshot exactly.
    for (const Path& p : yen) {
      EXPECT_NEAR(RouteDistance(service->graph(), p.vertices), p.distance,
                  1e-9);
    }
  }
  EXPECT_EQ(service->CurrentEpoch(), 4u);
}

TEST(RoutingServiceTest, InvalidRequestsAreRejected) {
  Graph g = MakeRandomConnected(12, 10, 1, 9, 3);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g));
  ASSERT_TRUE(service != nullptr);

  EXPECT_EQ(service->Query(MakeRequest(0, 5, kBackendYen, 0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service->Query(MakeRequest(0, 99, kBackendYen, 2)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service->Query(MakeRequest(99, 0, kBackendYen, 2)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service->Query(MakeRequest(4, 4, kBackendYen, 2)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service->Query(MakeRequest(0, 5, "no-such-backend", 2))
                .status()
                .code(),
            StatusCode::kNotFound);
  // The dijkstra backend serves only the k=1 degenerate case.
  EXPECT_EQ(
      service->Query(MakeRequest(0, 5, kBackendDijkstra, 3)).status().code(),
      StatusCode::kInvalidArgument);
  RouteRequest bad_iters = MakeRequest(0, 5, kBackendKspDg, 2);
  bad_iters.options.max_iterations = 0;
  EXPECT_EQ(service->Query(bad_iters).status().code(),
            StatusCode::kInvalidArgument);

  ServiceCounters counters = service->counters();
  EXPECT_EQ(counters.queries_ok, 0u);
  EXPECT_EQ(counters.queries_rejected, 7u);
}

// The registry behind counters(): every Query lands in exactly one of
// queries_ok_total / queries_rejected_total, the per-(kind, backend)
// queries_total split sums to the same total, and every accepted query
// observed one solve-latency sample.
TEST(RoutingServiceTest, MetricsRegistryAccountsForEveryQuery) {
  Graph g = MakeRandomConnected(20, 24, 1, 9, 17);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g), /*z=*/8);
  ASSERT_TRUE(service != nullptr);

  for (VertexId s = 0; s < 4; ++s) {
    ASSERT_TRUE(service->Query(MakeRequest(s, 19 - s, kBackendYen, 3)).ok());
  }
  ASSERT_TRUE(service->Query(MakeRequest(0, 19, kBackendKspDg, 3)).ok());
  EXPECT_FALSE(service->Query(MakeRequest(0, 5, kBackendYen, 0)).ok());
  EXPECT_FALSE(service->Query(MakeRequest(0, 99, kBackendYen, 2)).ok());

  MetricsSnapshot snapshot = service->Metrics();
  EXPECT_EQ(snapshot.CounterTotal("queries_ok_total"), 5u);
  EXPECT_EQ(snapshot.CounterTotal("queries_rejected_total"), 2u);
  EXPECT_EQ(snapshot.CounterTotal("queries_total"), 5u);
  uint64_t yen_total = 0;
  for (const CounterSample& counter : snapshot.counters) {
    if (counter.name != "queries_total") continue;
    for (const auto& [key, value] : counter.labels) {
      if (key == "backend" && value == kBackendYen) yen_total += counter.value;
    }
  }
  EXPECT_EQ(yen_total, 4u);
  uint64_t latency_samples = 0;
  for (const HistogramSample& histogram : snapshot.histograms) {
    if (histogram.name == "solve_latency_micros") {
      latency_samples += histogram.count;
    }
  }
  EXPECT_EQ(latency_samples, 5u);

  // The legacy counters() struct is a view over the same registry.
  ServiceCounters counters = service->counters();
  EXPECT_EQ(counters.queries_ok, 5u);
  EXPECT_EQ(counters.queries_rejected, 2u);

  // Traffic-path accounting rides in the same snapshot.
  std::vector<WeightUpdate> update = {{0, 4.0, 4.0}};
  ASSERT_TRUE(service->ApplyTrafficBatch(update).ok());
  snapshot = service->Metrics();
  EXPECT_EQ(snapshot.CounterTotal("traffic_batches_total"), 1u);
  EXPECT_EQ(snapshot.CounterTotal("weight_updates_total"), 1u);
}

TEST(RoutingServiceTest, TrafficBatchValidationIsAtomic) {
  Graph g = MakeRandomConnected(12, 10, 2, 9, 4);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g));
  ASSERT_TRUE(service != nullptr);
  Weight before = service->graph().ForwardWeight(0);

  std::vector<WeightUpdate> bad_edge = {{0, 5.0, 5.0},
                                        {kInvalidEdge, 5.0, 5.0}};
  EXPECT_EQ(service->ApplyTrafficBatch(bad_edge).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<WeightUpdate> bad_weight = {{0, -1.0, 5.0}};
  EXPECT_EQ(service->ApplyTrafficBatch(bad_weight).status().code(),
            StatusCode::kInvalidArgument);

  // Nothing was applied: weights and epoch are untouched.
  EXPECT_DOUBLE_EQ(service->graph().ForwardWeight(0), before);
  EXPECT_EQ(service->CurrentEpoch(), 0u);
}

TEST(RoutingServiceTest, DefaultsAndOverridesLayer) {
  Graph g = MakeRandomConnected(20, 24, 1, 9, 7);
  RoutingOptions defaults;
  defaults.k = 3;
  defaults.backend = kBackendYen;
  std::unique_ptr<RoutingService> service =
      MustCreate(std::move(g), /*z=*/0, defaults);
  ASSERT_TRUE(service != nullptr);

  // No overrides: service defaults apply.
  RouteRequest plain;
  plain.source = 0;
  plain.target = 19;
  Result<RouteResponse> response = service->Query(plain);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().backend, kBackendYen);
  EXPECT_EQ(response.value().k, 3u);
  EXPECT_LE(response.value().paths.size(), 3u);

  // Per-request override wins without disturbing the defaults.
  RouteRequest override_request = plain;
  override_request.options.k = 1;
  override_request.options.backend = kBackendDijkstra;
  Result<RouteResponse> overridden = service->Query(override_request);
  ASSERT_TRUE(overridden.ok()) << overridden.status().ToString();
  EXPECT_EQ(overridden.value().backend, kBackendDijkstra);
  EXPECT_EQ(overridden.value().k, 1u);
  EXPECT_EQ(service->defaults().k, 3u);
}

TEST(RoutingServiceTest, ResponsesAreSortedSimpleValidPaths) {
  Graph g = MakeRandomConnected(24, 30, 1, 9, 17);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g), /*z=*/8);
  ASSERT_TRUE(service != nullptr);
  for (const char* backend : {kBackendKspDg, kBackendYen, kBackendFindKsp}) {
    std::vector<Path> paths = MustSolve(*service, 2, 21, backend, 8);
    for (size_t i = 0; i < paths.size(); ++i) {
      EXPECT_TRUE(IsSimpleRoute(paths[i].vertices)) << backend;
      EXPECT_TRUE(IsValidRoute(service->graph(), paths[i].vertices))
          << backend;
      if (i > 0) {
        EXPECT_GE(paths[i].distance, paths[i - 1].distance - 1e-9) << backend;
      }
    }
  }
}

// A trivial backend that returns no paths, to exercise registration.
class NullSolver : public KspSolver {
 public:
  std::string_view name() const override { return "null"; }
  Result<KspQueryResult> Solve(const SolverInput&,
                               SolverScratch*) const override {
    return KspQueryResult{};
  }
};

TEST(SolverRegistryTest, RegistrationRules) {
  SolverRegistry registry = SolverRegistry::Default();
  EXPECT_EQ(registry.size(), 5u);
  EXPECT_NE(registry.Find(kBackendKspDg), nullptr);
  EXPECT_NE(registry.Find(kBackendCands), nullptr);
  EXPECT_EQ(registry.Find("nope"), nullptr);
  EXPECT_TRUE(registry.Register(std::make_unique<NullSolver>()).ok());
  // Duplicate names are rejected.
  EXPECT_EQ(registry.Register(std::make_unique<NullSolver>()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.Register(nullptr).code(), StatusCode::kInvalidArgument);
  std::vector<std::string> names = registry.Names();
  EXPECT_EQ(names.size(), 6u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

// RegisterSolver is documented "before serving traffic"; the serving-started
// flag turns that from a comment into an enforced precondition.
TEST(RoutingServiceTest, RegisterSolverAfterServingIsRejected) {
  Graph g = MakeRandomConnected(12, 14, 1, 9, 61);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g));
  ASSERT_TRUE(service != nullptr);
  // Before any query: registration is open.
  ASSERT_TRUE(service->RegisterSolver(std::make_unique<NullSolver>()).ok());
  ASSERT_TRUE(service->Query(MakeRequest(0, 11, kBackendYen, 2)).ok());
  // After the first served query the registry is frozen — even a rejected
  // request counts as serving.
  Status frozen =
      service->RegisterSolver(std::make_unique<NullSolver>());
  EXPECT_EQ(frozen.code(), StatusCode::kFailedPrecondition);

  // The same contract holds when the first touch is a batch.
  Graph g2 = MakeRandomConnected(12, 14, 1, 9, 62);
  std::unique_ptr<RoutingService> batch_service = MustCreate(std::move(g2));
  ASSERT_TRUE(batch_service != nullptr);
  std::vector<RouteRequest> requests = {MakeRequest(0, 11, kBackendYen, 2)};
  ASSERT_TRUE(batch_service->QueryBatch(requests).ok());
  EXPECT_EQ(
      batch_service->RegisterSolver(std::make_unique<NullSolver>()).code(),
      StatusCode::kFailedPrecondition);
}

TEST(RoutingServiceTest, CustomSolverServesQueries) {
  Graph g = MakeRandomConnected(10, 8, 1, 9, 23);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g));
  ASSERT_TRUE(service != nullptr);
  ASSERT_TRUE(service->RegisterSolver(std::make_unique<NullSolver>()).ok());
  Result<RouteResponse> response = service->Query(MakeRequest(0, 9, "null", 2));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response.value().paths.empty());
  EXPECT_EQ(response.value().backend, "null");
}

// The enforced-invariant test: queries run concurrently with traffic batches
// and must never observe a half-applied batch. Every edge starts at weight 1
// and batch b sets *all* edges to 1 + b/4, so any path of L edges answered
// at epoch e must have distance exactly L * (1 + e/4); a torn read would mix
// two uniform levels and break the identity. Also asserts per-thread epoch
// monotonicity.
TEST(RoutingServiceTest, ConcurrentQueriesAndUpdatesSeeConsistentEpochs) {
  Graph g = MakeRandomConnected(40, 50, 1, 1, 31);  // all weights 1
  const size_t num_edges = g.NumEdges();
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g), /*z=*/12);
  ASSERT_TRUE(service != nullptr);

  constexpr uint64_t kBatches = 12;
  auto level = [](uint64_t epoch) {
    return 1.0 + 0.25 * static_cast<double>(epoch);
  };

  std::atomic<bool> done{false};
  std::atomic<size_t> checks{0};
  std::atomic<size_t> failures{0};

  auto reader = [&](unsigned thread_seed) {
    const char* backends[] = {kBackendKspDg, kBackendYen, kBackendFindKsp};
    uint64_t last_epoch = 0;
    size_t i = thread_seed;
    while (!done.load(std::memory_order_acquire)) {
      VertexId s = static_cast<VertexId>(i * 7 % 40);
      VertexId t = static_cast<VertexId>((i * 13 + 19) % 40);
      ++i;
      if (s == t) continue;
      Result<RouteResponse> response =
          service->Query(MakeRequest(s, t, backends[i % 3], 4));
      if (!response.ok()) {
        failures.fetch_add(1);
        continue;
      }
      const RouteResponse& r = response.value();
      if (r.epoch < last_epoch) failures.fetch_add(1);  // must be monotone
      last_epoch = r.epoch;
      if (r.epoch > kBatches) failures.fetch_add(1);
      const double w = level(r.epoch);
      for (const Path& p : r.paths) {
        const double want = w * static_cast<double>(p.NumEdges());
        if (std::abs(p.distance - want) > 1e-6 * (1.0 + want)) {
          failures.fetch_add(1);
        }
        checks.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> readers;
  for (unsigned r = 0; r < 3; ++r) readers.emplace_back(reader, r + 1);

  for (uint64_t batch = 1; batch <= kBatches; ++batch) {
    std::vector<WeightUpdate> updates;
    updates.reserve(num_edges);
    const double w = level(batch);
    for (EdgeId e = 0; e < num_edges; ++e) updates.push_back({e, w, w});
    Result<TrafficBatchResult> applied = service->ApplyTrafficBatch(updates);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(applied.value().epoch, batch);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(checks.load(), 0u) << "readers never overlapped the updates";
  EXPECT_EQ(service->CurrentEpoch(), kBatches);
  ServiceCounters counters = service->counters();
  EXPECT_EQ(counters.batches_applied, kBatches);
  EXPECT_EQ(counters.updates_applied, kBatches * num_edges);
}

// ---------------------------------------------------------------------------
// QueryBatch: snapshot-shared parallel execution.
// ---------------------------------------------------------------------------

TEST(QueryBatchTest, MatchesSequentialAcrossAllBackends) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Graph g = MakeRandomConnected(26, 30, 1, 9, seed * 17 + 3);
    std::unique_ptr<RoutingService> service =
        MustCreate(std::move(g), /*z=*/8);
    ASSERT_TRUE(service != nullptr);

    // All four backends over several endpoint pairs in one batch.
    const std::pair<VertexId, VertexId> endpoints[] = {
        {0, 25}, {3, 21}, {7, 14}, {1, 24}};
    std::vector<RouteRequest> requests;
    for (const auto& [s, t] : endpoints) {
      for (const char* backend :
           {kBackendKspDg, kBackendYen, kBackendFindKsp, kBackendDijkstra}) {
        uint32_t k = backend == kBackendDijkstra ? 1 : 5;
        requests.push_back(MakeRequest(s, t, backend, k));
      }
    }
    Result<RouteBatchResponse> batched = service->QueryBatch(requests);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    const RouteBatchResponse& b = batched.value();
    ASSERT_EQ(b.items.size(), requests.size());
    EXPECT_EQ(b.num_ok, requests.size());
    EXPECT_EQ(b.num_rejected, 0u);

    for (size_t i = 0; i < requests.size(); ++i) {
      const RouteBatchItem& item = b.items[i];
      ASSERT_TRUE(item.status.ok()) << i << ": " << item.status.ToString();
      Result<RouteResponse> sequential = service->Query(requests[i]);
      ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
      EXPECT_EQ(item.response.backend, sequential.value().backend);
      ExpectSameDistances(item.response.paths, sequential.value().paths,
                          "batch vs sequential item " + std::to_string(i) +
                              " seed " + std::to_string(seed));
    }
  }
}

TEST(QueryBatchTest, MixedValidAndInvalidRequestsInOneBatch) {
  Graph g = MakeRandomConnected(20, 24, 1, 9, 11);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g), /*z=*/8);
  ASSERT_TRUE(service != nullptr);

  std::vector<RouteRequest> requests;
  requests.push_back(MakeRequest(0, 19, kBackendYen, 3));           // ok
  requests.push_back(MakeRequest(0, 19, kBackendYen, 0));           // k = 0
  requests.push_back(MakeRequest(0, 99, kBackendYen, 2));           // range
  requests.push_back(MakeRequest(0, 19, "no-such-backend", 2));     // name
  requests.push_back(MakeRequest(4, 4, kBackendYen, 2));            // s == t
  requests.push_back(MakeRequest(0, 19, kBackendDijkstra, 3));      // k != 1
  requests.push_back(MakeRequest(2, 17, kBackendKspDg, 4));         // ok

  Result<RouteBatchResponse> batched = service->QueryBatch(requests);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  const RouteBatchResponse& b = batched.value();
  ASSERT_EQ(b.items.size(), 7u);
  EXPECT_EQ(b.num_ok, 2u);
  EXPECT_EQ(b.num_rejected, 5u);

  EXPECT_TRUE(b.items[0].status.ok());
  EXPECT_FALSE(b.items[0].response.paths.empty());
  EXPECT_EQ(b.items[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(b.items[2].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(b.items[3].status.code(), StatusCode::kNotFound);
  EXPECT_EQ(b.items[4].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(b.items[5].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(b.items[6].status.ok());
  EXPECT_FALSE(b.items[6].response.paths.empty());

  ServiceCounters counters = service->counters();
  EXPECT_EQ(counters.queries_ok, 2u);
  EXPECT_EQ(counters.queries_rejected, 5u);
}

TEST(QueryBatchTest, EveryItemAnsweredAtOneEpoch) {
  Graph g = MakeRandomConnected(24, 30, 1, 9, 13);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g), /*z=*/8);
  ASSERT_TRUE(service != nullptr);
  TrafficModelOptions traffic_options;
  traffic_options.alpha = 0.4;
  traffic_options.seed = 9;
  TrafficModel traffic(service->graph(), traffic_options);
  for (int step = 0; step < 3; ++step) {
    std::vector<WeightUpdate> updates = traffic.NextBatch();
    ASSERT_TRUE(service->ApplyTrafficBatch(updates).ok());
  }

  std::vector<RouteRequest> requests;
  for (VertexId s = 0; s < 8; ++s) {
    requests.push_back(MakeRequest(s, 23 - s, kBackendYen, 3));
    requests.push_back(MakeRequest(s, 23 - s, kBackendKspDg, 3));
  }
  Result<RouteBatchResponse> batched = service->QueryBatch(requests);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  const RouteBatchResponse& b = batched.value();
  EXPECT_EQ(b.epoch, 3u);
  EXPECT_EQ(b.num_ok, requests.size());
  for (const RouteBatchItem& item : b.items) {
    ASSERT_TRUE(item.status.ok()) << item.status.ToString();
    EXPECT_EQ(item.response.epoch, b.epoch);
  }
}

TEST(QueryBatchTest, EmptyBatchIsOk) {
  Graph g = MakeRandomConnected(12, 12, 1, 9, 21);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g));
  ASSERT_TRUE(service != nullptr);
  Result<RouteBatchResponse> batched = service->QueryBatch({});
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  EXPECT_TRUE(batched.value().items.empty());
  EXPECT_EQ(batched.value().num_ok, 0u);
  EXPECT_EQ(batched.value().epoch, service->CurrentEpoch());
}

// With one worker, the whole batch shares one KSP-DG scratch, so a repeated
// identical query must be served from the warm partial cache: its solve
// performs zero fresh partial-KSP computations.
TEST(QueryBatchTest, SharedScratchReusesPartialsAcrossBatchItems) {
  Graph g = MakeRandomConnected(26, 32, 1, 9, 29);
  std::unique_ptr<RoutingService> service =
      MustCreate(std::move(g), /*z=*/8, RoutingOptions{}, /*batch_threads=*/1);
  ASSERT_TRUE(service != nullptr);

  std::vector<RouteRequest> requests = {MakeRequest(0, 25, kBackendKspDg, 5),
                                      MakeRequest(0, 25, kBackendKspDg, 5)};
  Result<RouteBatchResponse> batched = service->QueryBatch(requests);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  const RouteBatchResponse& b = batched.value();
  ASSERT_EQ(b.num_ok, 2u);
  ASSERT_FALSE(b.items[0].response.paths.empty());
  ExpectSameDistances(b.items[1].response.paths, b.items[0].response.paths,
                      "duplicate query in one batch");
  const KspDgQueryStats& first = b.items[0].response.stats.engine;
  const KspDgQueryStats& second = b.items[1].response.stats.engine;
  ASSERT_GT(first.partial_ksp_computations, 0u);
  EXPECT_EQ(second.partial_ksp_computations, 0u)
      << "second identical query should be fully served from the shared "
         "partial cache";
  EXPECT_GT(second.partial_cache_hits, 0u);

  // The arena persists across batches while the epoch holds still: a later
  // batch repeating the query is served from the still-warm cache.
  Result<RouteBatchResponse> later = service->QueryBatch(
      std::span<const RouteRequest>(requests.data(), 1));
  ASSERT_TRUE(later.ok()) << later.status().ToString();
  ASSERT_EQ(later.value().num_ok, 1u);
  EXPECT_EQ(
      later.value().items[0].response.stats.engine.partial_ksp_computations,
      0u);
}

// A traffic batch must flush the warm partial caches: a stale cache would
// answer the second batch with the old epoch's distances.
TEST(QueryBatchTest, ArenaCachesAreInvalidatedWhenTheEpochMoves) {
  Graph g = MakeRandomConnected(26, 32, 1, 1, 41);  // all weights 1
  const size_t num_edges = g.NumEdges();
  std::unique_ptr<RoutingService> service =
      MustCreate(std::move(g), /*z=*/8, RoutingOptions{}, /*batch_threads=*/1);
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
    const std::vector<Path>& old_paths = before.value().items[i].response.paths;
    const std::vector<Path>& new_paths = after.value().items[i].response.paths;
    ASSERT_EQ(new_paths.size(), old_paths.size()) << i;
    for (size_t p = 0; p < new_paths.size(); ++p) {
      EXPECT_NEAR(new_paths[p].distance, 2.0 * old_paths[p].distance, 1e-7)
          << "item " << i << " rank " << p;
    }
  }
}

// The batch analogue of the torn-read test: batches run concurrently with
// uniform-weight traffic batches. Every response in a batch must carry the
// batch's single epoch, and every distance must match that epoch's uniform
// weight level exactly.
TEST(QueryBatchTest, ConcurrentBatchesAndUpdatesStayUniform) {
  Graph g = MakeRandomConnected(40, 50, 1, 1, 37);  // all weights 1
  const size_t num_edges = g.NumEdges();
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g), /*z=*/12);
  ASSERT_TRUE(service != nullptr);

  constexpr uint64_t kBatches = 10;
  auto level = [](uint64_t epoch) {
    return 1.0 + 0.25 * static_cast<double>(epoch);
  };

  std::atomic<bool> done{false};
  std::atomic<size_t> checks{0};
  std::atomic<size_t> failures{0};

  auto reader = [&](unsigned thread_seed) {
    const char* backends[] = {kBackendKspDg, kBackendYen, kBackendFindKsp};
    uint64_t last_epoch = 0;
    size_t i = thread_seed;
    while (!done.load(std::memory_order_acquire)) {
      std::vector<RouteRequest> requests;
      for (size_t r = 0; r < 8; ++r) {
        VertexId s = static_cast<VertexId>((i * 7 + r * 11) % 40);
        VertexId t = static_cast<VertexId>((i * 13 + r * 17 + 19) % 40);
        if (s == t) continue;
        requests.push_back(MakeRequest(s, t, backends[(i + r) % 3], 4));
      }
      ++i;
      Result<RouteBatchResponse> batched = service->QueryBatch(requests);
      if (!batched.ok()) {
        failures.fetch_add(1);
        continue;
      }
      const RouteBatchResponse& b = batched.value();
      if (b.epoch < last_epoch) failures.fetch_add(1);  // must be monotone
      last_epoch = b.epoch;
      const double w = level(b.epoch);
      for (const RouteBatchItem& item : b.items) {
        if (!item.status.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (item.response.epoch != b.epoch) failures.fetch_add(1);
        for (const Path& p : item.response.paths) {
          const double want = w * static_cast<double>(p.NumEdges());
          if (std::abs(p.distance - want) > 1e-6 * (1.0 + want)) {
            failures.fetch_add(1);
          }
          checks.fetch_add(1);
        }
      }
    }
  };

  std::vector<std::thread> readers;
  for (unsigned r = 0; r < 2; ++r) readers.emplace_back(reader, r + 1);

  for (uint64_t batch = 1; batch <= kBatches; ++batch) {
    std::vector<WeightUpdate> updates;
    updates.reserve(num_edges);
    const double w = level(batch);
    for (EdgeId e = 0; e < num_edges; ++e) updates.push_back({e, w, w});
    Result<TrafficBatchResult> applied = service->ApplyTrafficBatch(updates);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(checks.load(), 0u) << "batches never overlapped the updates";
  EXPECT_EQ(service->CurrentEpoch(), kBatches);
}

// ---------------------------------------------------------------------------
// Async submission (SubmitBatch / BatchTicket).
// ---------------------------------------------------------------------------

TEST(SubmitBatchTest, TicketMatchesSynchronousQueryBatch) {
  Graph g = MakeRandomConnected(24, 30, 1, 9, 51);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g), /*z=*/8);
  ASSERT_TRUE(service != nullptr);

  std::vector<RouteRequest> requests = {MakeRequest(0, 23, kBackendKspDg, 4),
                                      MakeRequest(2, 19, kBackendYen, 3),
                                      MakeRequest(0, 23, kBackendYen, 0)};
  Result<RouteBatchResponse> sync = service->QueryBatch(requests);
  ASSERT_TRUE(sync.ok());

  std::atomic<int> callbacks{0};
  BatchTicket ticket = service->SubmitBatch(
      requests, [&](const Result<RouteBatchResponse>& outcome) {
        EXPECT_TRUE(outcome.ok());
        callbacks.fetch_add(1);
      });
  ASSERT_TRUE(ticket.valid());
  const Result<RouteBatchResponse>& outcome = ticket.Wait();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(ticket.Ready());
  // The callback fires after the ticket is fulfilled, so Wait() returning
  // does not imply it ran yet; poll briefly.
  while (callbacks.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(callbacks.load(), 1);
  const RouteBatchResponse& b = outcome.value();
  ASSERT_EQ(b.items.size(), 3u);
  EXPECT_EQ(b.num_ok, 2u);
  EXPECT_EQ(b.num_rejected, 1u);  // the k = 0 item, as in the sync batch
  for (size_t i = 0; i < b.items.size(); ++i) {
    ASSERT_EQ(b.items[i].status.ok(), sync.value().items[i].status.ok()) << i;
    if (!b.items[i].status.ok()) continue;
    ExpectSameDistances(b.items[i].response.paths,
                        sync.value().items[i].response.paths,
                        "async vs sync item " + std::to_string(i));
  }
}

TEST(SubmitBatchTest, TicketsCompleteInSubmissionOrderWithMonotoneEpochs) {
  Graph g = MakeRandomConnected(24, 30, 1, 9, 53);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g), /*z=*/8);
  ASSERT_TRUE(service != nullptr);

  std::vector<BatchTicket> tickets;
  for (int round = 0; round < 6; ++round) {
    std::vector<RouteRequest> requests = {
        MakeRequest(0, 23, kBackendYen, 3),
        MakeRequest(3, 20, kBackendFindKsp, 3)};
    tickets.push_back(service->SubmitBatch(std::move(requests)));
  }
  uint64_t last_epoch = 0;
  for (const BatchTicket& ticket : tickets) {
    const Result<RouteBatchResponse>& outcome = ticket.Wait();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome.value().num_ok, 2u);
    EXPECT_GE(outcome.value().epoch, last_epoch);  // FIFO execution
    last_epoch = outcome.value().epoch;
  }
}

// The async analogue of the torn-read test: tickets submitted while
// uniform-weight traffic batches land must each observe one snapshot (the
// tsan job repeats all *Concurrent* tests).
TEST(SubmitBatchTest, ConcurrentSubmitAndUpdatesStayUniform) {
  Graph g = MakeRandomConnected(32, 40, 1, 1, 57);  // all weights 1
  const size_t num_edges = g.NumEdges();
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g), /*z=*/10);
  ASSERT_TRUE(service != nullptr);

  constexpr uint64_t kBatches = 6;
  auto level = [](uint64_t epoch) {
    return 1.0 + 0.25 * static_cast<double>(epoch);
  };
  std::atomic<size_t> failures{0};
  std::atomic<size_t> checks{0};
  std::atomic<bool> done{false};

  std::thread producer([&] {
    std::vector<BatchTicket> inflight;
    size_t i = 1;
    while (!done.load(std::memory_order_acquire)) {
      std::vector<RouteRequest> requests;
      for (size_t r = 0; r < 4; ++r) {
        VertexId s = static_cast<VertexId>((i * 5 + r * 9) % 32);
        VertexId t = static_cast<VertexId>((i * 11 + r * 13 + 7) % 32);
        if (s == t) continue;
        requests.push_back(
            MakeRequest(s, t, r % 2 == 0 ? kBackendKspDg : kBackendYen, 3));
      }
      ++i;
      inflight.push_back(service->SubmitBatch(std::move(requests)));
      if (inflight.size() < 3) continue;
      const Result<RouteBatchResponse>& outcome = inflight.front().Wait();
      if (!outcome.ok()) {
        failures.fetch_add(1);
      } else {
        const double w = level(outcome.value().epoch);
        for (const RouteBatchItem& item : outcome.value().items) {
          if (!item.status.ok() ||
              item.response.epoch != outcome.value().epoch) {
            failures.fetch_add(1);
            continue;
          }
          for (const Path& p : item.response.paths) {
            const double want = w * static_cast<double>(p.NumEdges());
            if (std::abs(p.distance - want) > 1e-6 * (1.0 + want)) {
              failures.fetch_add(1);
            }
            checks.fetch_add(1);
          }
        }
      }
      inflight.erase(inflight.begin());
    }
    for (const BatchTicket& ticket : inflight) ticket.Wait();
  });

  for (uint64_t batch = 1; batch <= kBatches; ++batch) {
    std::vector<WeightUpdate> updates;
    updates.reserve(num_edges);
    const double w = level(batch);
    for (EdgeId e = 0; e < num_edges; ++e) updates.push_back({e, w, w});
    ASSERT_TRUE(service->ApplyTrafficBatch(updates).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_release);
  producer.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(checks.load(), 0u) << "producer never overlapped the updates";
}

// Destroying the service with accepted batches still queued must drain
// them: every ticket is fulfilled, none hangs.
TEST(SubmitBatchTest, DestructionDrainsAcceptedBatches) {
  Graph g = MakeRandomConnected(20, 26, 1, 9, 59);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g), /*z=*/8);
  ASSERT_TRUE(service != nullptr);

  std::vector<BatchTicket> tickets;
  for (int round = 0; round < 4; ++round) {
    tickets.push_back(service->SubmitBatch(
        {MakeRequest(0, 19, kBackendYen, 3)}));
  }
  service.reset();  // drains the submission queue before tearing down
  for (const BatchTicket& ticket : tickets) {
    const Result<RouteBatchResponse>& outcome = ticket.Wait();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome.value().num_ok, 1u);
  }
}

// ---------------------------------------------------------------------------
// Admission control (RequestContext: priority / deadline / tenant quota).
// ---------------------------------------------------------------------------

TEST(AdmissionTest, ExpiredDeadlineQueryIsShedNotSolved) {
  Graph g = MakeRandomConnected(20, 26, 1, 9, 61);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g), /*z=*/8);
  ASSERT_TRUE(service != nullptr);

  RouteRequest expired = MakeRequest(0, 19, kBackendYen, 3);
  expired.context.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  Result<RouteResponse> response = service->Query(expired);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);

  AdmissionCounters counters = AdmissionCountersFrom(service->Metrics());
  EXPECT_EQ(counters.admitted, 0u);
  EXPECT_EQ(counters.shed_deadline, 1u);
  EXPECT_EQ(counters.shed_quota, 0u);

  // A still-live deadline solves normally and counts as admitted.
  RouteRequest live = MakeRequest(0, 19, kBackendYen, 3);
  live.context.deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(5);
  ASSERT_TRUE(service->Query(live).ok());
  counters = AdmissionCountersFrom(service->Metrics());
  EXPECT_EQ(counters.admitted, 1u);
  EXPECT_EQ(counters.shed_deadline, 1u);
}

TEST(AdmissionTest, ExpiredEnvelopeSubmitIsAnsweredWithoutSolving) {
  Graph g = MakeRandomConnected(20, 26, 1, 9, 63);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g), /*z=*/8);
  ASSERT_TRUE(service != nullptr);

  std::vector<RouteRequest> requests = {MakeRequest(0, 19, kBackendYen, 3),
                                        MakeRequest(2, 17, kBackendYen, 3)};
  requests.front().context.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  BatchTicket ticket = service->SubmitBatch(requests);
  const Result<RouteBatchResponse>& outcome = ticket.Wait();
  // Shedding never fails the surrounding batch: the ticket carries an OK
  // envelope whose items hold the shed status + outcome, and no item was
  // ever solved (epoch 0 — no snapshot was read).
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const RouteBatchResponse& batch = outcome.value();
  ASSERT_EQ(batch.items.size(), 2u);
  EXPECT_EQ(batch.num_shed, 2u);
  EXPECT_EQ(batch.num_ok, 0u);
  EXPECT_EQ(batch.epoch, 0u);
  for (const RouteBatchItem& item : batch.items) {
    EXPECT_EQ(item.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(item.admission, AdmissionOutcome::kShedDeadline);
    EXPECT_TRUE(item.response.paths.empty());
  }
  AdmissionCounters counters = AdmissionCountersFrom(service->Metrics());
  EXPECT_EQ(counters.admitted, 0u);
  EXPECT_EQ(counters.shed_deadline, 2u);
}

TEST(AdmissionTest, TenantOverQuotaSubmitIsShed) {
  Graph g = MakeRandomConnected(20, 26, 1, 9, 65);
  RoutingServiceOptions options;
  options.per_tenant_quota = 1;
  Result<std::unique_ptr<RoutingService>> service_or =
      RoutingService::Create(std::move(g), std::move(options));
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  std::unique_ptr<RoutingService> service = std::move(service_or).value();

  // Park the submission worker inside the first batch's callback so the
  // tenant's next envelope stays pending deterministically.
  std::mutex gate;
  gate.lock();
  std::atomic<bool> parked{false};
  BatchTicket first = service->SubmitBatch(
      {MakeRequest(0, 19, kBackendYen, 3)},
      [&](const Result<RouteBatchResponse>&) {
        parked.store(true, std::memory_order_release);
        std::lock_guard<std::mutex> guard(gate);
      });
  while (!parked.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<RouteRequest> pending = {MakeRequest(2, 17, kBackendYen, 3)};
  pending.front().context.tenant_id = "acme";
  BatchTicket second = service->SubmitBatch(pending);

  std::vector<RouteRequest> over = {MakeRequest(3, 16, kBackendYen, 3)};
  over.front().context.tenant_id = "acme";
  BatchTicket third = service->SubmitBatch(over);
  // Over quota: answered immediately (no blocking), OK envelope, item shed
  // with kResourceExhausted.
  const Result<RouteBatchResponse>& shed = third.Wait();
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  ASSERT_EQ(shed.value().items.size(), 1u);
  EXPECT_EQ(shed.value().items.front().status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(shed.value().items.front().admission,
            AdmissionOutcome::kShedQuota);

  gate.unlock();
  ASSERT_TRUE(first.Wait().ok());
  const Result<RouteBatchResponse>& served = second.Wait();
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.value().num_ok, 1u);

  AdmissionCounters counters = AdmissionCountersFrom(service->Metrics());
  EXPECT_EQ(counters.admitted, 2u);  // first + second batches, one item each
  EXPECT_EQ(counters.shed_quota, 1u);
  EXPECT_EQ(counters.shed_deadline, 0u);

  // Pressure sheds work but never changes an answer: the item admitted at
  // the tenant's quota matches the same request answered with no queue.
  const std::vector<Path>& admitted =
      served.value().items.front().response.paths;
  const std::vector<Path> unpressured =
      MustSolve(*service, 2, 17, kBackendYen, 3);
  ASSERT_EQ(admitted.size(), unpressured.size());
  for (size_t i = 0; i < admitted.size(); ++i) {
    EXPECT_EQ(admitted[i].vertices, unpressured[i].vertices) << "rank " << i;
    EXPECT_EQ(admitted[i].distance, unpressured[i].distance) << "rank " << i;
  }
}

// QoS submits racing traffic batches (the tsan job repeats all *Concurrent*
// tests): every ticket must be fulfilled with an exact admission outcome,
// and the service registry must tell the same story as the tickets.
TEST(AdmissionTest, ConcurrentQosOverloadAndTrafficAccountExactly) {
  Graph g = MakeRandomConnected(28, 36, 1, 9, 67);
  const size_t num_edges = g.NumEdges();
  RoutingServiceOptions options;
  options.submit_queue_capacity = 4;
  options.per_tenant_quota = 2;
  Result<std::unique_ptr<RoutingService>> service_or =
      RoutingService::Create(std::move(g), std::move(options));
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  std::unique_ptr<RoutingService> service = std::move(service_or).value();

  constexpr size_t kSubmits = 48;
  std::atomic<size_t> served{0};
  std::atomic<size_t> shed_deadline{0};
  std::atomic<size_t> shed_quota{0};
  std::atomic<size_t> errors{0};

  std::thread producer([&] {
    std::vector<BatchTicket> tickets;
    for (size_t i = 0; i < kSubmits; ++i) {
      RouteRequest request = MakeRequest(
          static_cast<VertexId>(i % 28),
          static_cast<VertexId>((i * 7 + 11) % 28),
          i % 2 == 0 ? kBackendKspDg : kBackendYen, 3);
      if (request.source == request.target) request.target = 27;
      request.context.priority = static_cast<RequestPriority>(i % 3);
      request.context.tenant_id = i % 2 == 0 ? "even" : "odd";
      if (i % 4 == 0) {
        // A quarter of the load runs on a tight deadline: some of these
        // expire in the queue under contention, exercising both deadline
        // checks concurrently with the traffic writer.
        request.context.deadline = std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(2);
      }
      std::vector<RouteRequest> one;
      one.push_back(std::move(request));
      tickets.push_back(service->SubmitBatch(std::move(one)));
    }
    for (const BatchTicket& ticket : tickets) {
      const Result<RouteBatchResponse>& outcome = ticket.Wait();
      if (!outcome.ok() || outcome.value().items.size() != 1) {
        errors.fetch_add(1);
        continue;
      }
      const RouteBatchItem& item = outcome.value().items.front();
      switch (item.admission) {
        case AdmissionOutcome::kServed:
          item.status.ok() ? served.fetch_add(1) : errors.fetch_add(1);
          break;
        case AdmissionOutcome::kShedDeadline:
          shed_deadline.fetch_add(1);
          break;
        case AdmissionOutcome::kShedQuota:
          shed_quota.fetch_add(1);
          break;
        case AdmissionOutcome::kRejected:
          errors.fetch_add(1);
          break;
      }
    }
  });

  for (int batch = 0; batch < 5; ++batch) {
    std::vector<WeightUpdate> updates;
    for (EdgeId e = 0; e < num_edges; e += 3) {
      updates.push_back({e, 2.0 + batch, 2.0 + batch});
    }
    ASSERT_TRUE(service->ApplyTrafficBatch(updates).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  producer.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(served.load() + shed_deadline.load() + shed_quota.load(),
            kSubmits)
      << "every QoS submit must be accounted exactly once";
  AdmissionCounters counters = AdmissionCountersFrom(service->Metrics());
  EXPECT_EQ(counters.admitted, served.load());
  EXPECT_EQ(counters.shed_deadline, shed_deadline.load());
  EXPECT_EQ(counters.shed_quota, shed_quota.load());
}

// ---------------------------------------------------------------------------
// Multi-kind query surface (RouteRequest / RouteResponse).
// ---------------------------------------------------------------------------

RouteRequest MakeKindRequest(QueryKind kind, VertexId s, VertexId t) {
  RouteRequest request;
  request.kind = kind;
  request.source = s;
  request.target = t;
  return request;
}

TEST(MultiKindQueryTest, ShortestPathKindRoutesToCandsAndMatchesDijkstra) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Graph g = MakeRandomConnected(30, 40, 1, 9, seed * 19 + 3);
    // Odd seeds build the DTLP and CANDS on a 3-thread pool, which CANDS
    // keeps for its rebuilds inside every traffic batch.
    const unsigned build_threads = seed % 2 == 0 ? 1 : 3;
    std::unique_ptr<RoutingService> service =
        MustCreate(std::move(g), /*z=*/10, /*defaults=*/{},
                   /*batch_threads=*/0, build_threads);
    ASSERT_TRUE(service != nullptr);

    TrafficModelOptions traffic_options;
    traffic_options.alpha = 0.5;
    traffic_options.seed = seed + 11;
    TrafficModel traffic(service->graph(), traffic_options);

    // Exact shortest paths before AND after traffic batches: the cands
    // index must survive rebuild-on-update with exact answers.
    for (int step = 0; step < 3; ++step) {
      if (step > 0) {
        ASSERT_TRUE(service->ApplyTrafficBatch(traffic.NextBatch()).ok());
      }
      for (const auto& [s, t] : std::vector<std::pair<VertexId, VertexId>>{
               {0, 29}, {4, 17}, {9, 23}}) {
        Result<RouteResponse> cands =
            service->Query(MakeKindRequest(QueryKind::kShortestPath, s, t));
        ASSERT_TRUE(cands.ok()) << cands.status().ToString();
        EXPECT_EQ(cands.value().kind, QueryKind::kShortestPath);
        EXPECT_EQ(cands.value().backend, kBackendCands);
        EXPECT_EQ(cands.value().k, 1u);
        ASSERT_EQ(cands.value().paths.size(), 1u);

        std::vector<Path> dijkstra =
            MustSolve(*service, s, t, kBackendDijkstra, 1);
        ASSERT_EQ(dijkstra.size(), 1u);
        // The CANDS overlay runs on exact distances; only the summation
        // order differs from flat Dijkstra, so the distances agree to
        // floating-point noise and the route must be real and consistent
        // with the current snapshot.
        EXPECT_NEAR(cands.value().paths[0].distance, dijkstra[0].distance,
                    1e-9 * (1.0 + dijkstra[0].distance))
            << "seed " << seed << " step " << step << " q " << s << "->" << t;
        EXPECT_TRUE(
            IsValidRoute(service->graph(), cands.value().paths[0].vertices));
        EXPECT_NEAR(
            RouteDistance(service->graph(), cands.value().paths[0].vertices),
            cands.value().paths[0].distance, 1e-9);
      }
    }
    // The maintenance stats must show the rebuild work actually happened.
    std::vector<WeightUpdate> one = {{0, 3.5, 3.5}};
    Result<TrafficBatchResult> applied = service->ApplyTrafficBatch(one);
    ASSERT_TRUE(applied.ok());
    EXPECT_GE(applied.value().cands.subgraphs_rebuilt, 1u);
    EXPECT_GT(applied.value().cands.pair_paths_recomputed, 0u);
  }
}

TEST(MultiKindQueryTest, ShortestPathKindValidatesAndHonoursOverrides) {
  Graph g = MakeRandomConnected(16, 20, 1, 9, 71);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g));
  ASSERT_TRUE(service != nullptr);

  // An explicit k != 1 contradicts the kind.
  RouteRequest bad_k = MakeKindRequest(QueryKind::kShortestPath, 0, 15);
  bad_k.options.k = 3;
  EXPECT_EQ(service->Query(bad_k).status().code(),
            StatusCode::kInvalidArgument);
  // k = 1 explicitly is fine, and the backend override is respected.
  RouteRequest via_dijkstra = MakeKindRequest(QueryKind::kShortestPath, 0, 15);
  via_dijkstra.options.k = 1;
  via_dijkstra.options.backend = kBackendDijkstra;
  Result<RouteResponse> overridden = service->Query(via_dijkstra);
  ASSERT_TRUE(overridden.ok()) << overridden.status().ToString();
  EXPECT_EQ(overridden.value().backend, kBackendDijkstra);
  EXPECT_EQ(overridden.value().kind, QueryKind::kShortestPath);
}

TEST(MultiKindQueryTest, CandsBackendFailsCleanlyWhenDisabled) {
  Graph g = MakeRandomConnected(16, 20, 1, 9, 73);
  RoutingServiceOptions options;
  options.enable_cands = false;
  Result<std::unique_ptr<RoutingService>> service =
      RoutingService::Create(std::move(g), std::move(options));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  Result<RouteResponse> response = service.value()->Query(
      MakeKindRequest(QueryKind::kShortestPath, 0, 15));
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
  // The kind itself stays answerable through an overriding backend.
  RouteRequest via_dijkstra = MakeKindRequest(QueryKind::kShortestPath, 0, 15);
  via_dijkstra.options.backend = kBackendDijkstra;
  EXPECT_TRUE(service.value()->Query(via_dijkstra).ok());
}

TEST(MultiKindQueryTest, DiverseKindIsDeterministicSubsetWithBoundedTheta) {
  for (const char* backend : {kBackendKspDg, kBackendYen}) {
    Graph g = MakeRandomConnected(30, 44, 1, 9, 83);
    std::unique_ptr<RoutingService> service =
        MustCreate(std::move(g), /*z=*/10);
    ASSERT_TRUE(service != nullptr);
    const uint32_t k = 3;
    const uint32_t overfetch = 4;
    const double theta = 0.6;

    RouteRequest diverse = MakeKindRequest(QueryKind::kDiverseKsp, 1, 28);
    diverse.options.backend = backend;
    diverse.options.k = k;
    diverse.options.diversity_theta = theta;
    diverse.options.diversity_overfetch = overfetch;
    Result<RouteResponse> response = service->Query(diverse);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const RouteResponse& r = response.value();
    EXPECT_EQ(r.kind, QueryKind::kDiverseKsp);
    EXPECT_EQ(r.k, k);
    ASSERT_TRUE(r.diverse.has_value());
    // This graph offers k' candidates dissimilar enough to fill every one
    // of the k slots under θ.
    EXPECT_EQ(r.paths.size(), k);
    EXPECT_EQ(r.diverse->kept, k);

    // The kept set is a subset (in order) of the k' = k * overfetch KSP
    // answer the same backend gives.
    std::vector<Path> candidates =
        MustSolve(*service, 1, 28, backend, k * overfetch);
    EXPECT_EQ(r.diverse->candidates, candidates.size());
    EXPECT_EQ(r.diverse->kept + r.diverse->filtered, r.diverse->candidates);
    size_t cursor = 0;
    for (const Path& p : r.paths) {
      while (cursor < candidates.size() &&
             candidates[cursor].vertices != p.vertices) {
        ++cursor;
      }
      ASSERT_LT(cursor, candidates.size())
          << backend << ": kept route is not a k' candidate";
      EXPECT_EQ(candidates[cursor].distance, p.distance);
      ++cursor;
    }
    // All pairwise similarities obey θ — recomputed here independently.
    for (size_t i = 0; i < r.paths.size(); ++i) {
      for (size_t j = i + 1; j < r.paths.size(); ++j) {
        EXPECT_LE(RouteEdgeJaccard(r.paths[i], r.paths[j],
                                   service->graph().directed()),
                  theta)
            << backend << " pair " << i << "," << j;
      }
    }
    EXPECT_LE(r.diverse->max_pairwise_similarity, theta);
    EXPECT_LE(r.diverse->ep_path_nodes, r.diverse->ep_raw_entries);

    // Determinism: asking again yields byte-identical routes and stats.
    Result<RouteResponse> again = service->Query(diverse);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again.value().paths.size(), r.paths.size());
    for (size_t i = 0; i < r.paths.size(); ++i) {
      EXPECT_EQ(again.value().paths[i].vertices, r.paths[i].vertices);
      EXPECT_EQ(again.value().paths[i].distance, r.paths[i].distance);
    }
    EXPECT_EQ(again.value().diverse->kept, r.diverse->kept);
    EXPECT_EQ(again.value().diverse->ep_path_nodes, r.diverse->ep_path_nodes);
  }
}

TEST(MultiKindQueryTest, DiverseKindValidation) {
  Graph g = MakeRandomConnected(16, 20, 1, 9, 89);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g));
  ASSERT_TRUE(service != nullptr);

  RouteRequest bad_theta = MakeKindRequest(QueryKind::kDiverseKsp, 0, 15);
  bad_theta.options.diversity_theta = 1.5;
  EXPECT_EQ(service->Query(bad_theta).status().code(),
            StatusCode::kInvalidArgument);
  RouteRequest bad_overfetch = MakeKindRequest(QueryKind::kDiverseKsp, 0, 15);
  bad_overfetch.options.diversity_overfetch = 0;
  EXPECT_EQ(service->Query(bad_overfetch).status().code(),
            StatusCode::kInvalidArgument);
  // The dijkstra backend cannot serve a k' > 1 over-fetch.
  RouteRequest via_dijkstra = MakeKindRequest(QueryKind::kDiverseKsp, 0, 15);
  via_dijkstra.options.backend = kBackendDijkstra;
  EXPECT_EQ(service->Query(via_dijkstra).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MultiKindQueryTest, MixedKindsInOneBatchMatchSequentialQueries) {
  Graph g = MakeRandomConnected(26, 34, 1, 9, 97);
  std::unique_ptr<RoutingService> service = MustCreate(std::move(g), /*z=*/8);
  ASSERT_TRUE(service != nullptr);

  std::vector<RouteRequest> requests;
  requests.push_back(MakeRequest(0, 25, kBackendKspDg, 4));  // kKsp
  requests.push_back(MakeKindRequest(QueryKind::kShortestPath, 2, 21));
  RouteRequest diverse = MakeKindRequest(QueryKind::kDiverseKsp, 3, 19);
  diverse.options.backend = kBackendYen;
  diverse.options.k = 3;
  requests.push_back(diverse);
  RouteRequest bad = MakeKindRequest(QueryKind::kShortestPath, 5, 5);
  requests.push_back(bad);  // s == t: per-item rejection

  Result<RouteBatchResponse> batched = service->QueryBatch(requests);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  const RouteBatchResponse& b = batched.value();
  ASSERT_EQ(b.items.size(), 4u);
  EXPECT_EQ(b.num_ok, 3u);
  EXPECT_EQ(b.num_rejected, 1u);
  EXPECT_EQ(b.items[3].status.code(), StatusCode::kInvalidArgument);

  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(b.items[i].status.ok()) << i;
    Result<RouteResponse> sequential = service->Query(requests[i]);
    ASSERT_TRUE(sequential.ok());
    EXPECT_EQ(b.items[i].response.kind, requests[i].kind);
    ASSERT_EQ(b.items[i].response.paths.size(),
              sequential.value().paths.size())
        << i;
    for (size_t p = 0; p < b.items[i].response.paths.size(); ++p) {
      EXPECT_EQ(b.items[i].response.paths[p].vertices,
                sequential.value().paths[p].vertices);
      EXPECT_EQ(b.items[i].response.paths[p].distance,
                sequential.value().paths[p].distance);
    }
  }
  // The diverse item carries its kind-tagged payload through the batch.
  ASSERT_TRUE(b.items[2].response.diverse.has_value());
  EXPECT_EQ(b.items[2].response.diverse->kept, b.items[2].response.paths.size());
}

}  // namespace
}  // namespace kspdg

// Tests for the kspdg_bench harness (src/workload/bench_runner): the exact
// BENCH JSON format BenchReport::ToJson emits, and the two phases whose
// gates would otherwise only run in the CI bench smoke — the open-loop
// overload phase's admission accounting and the replicated remote phase's
// failover drill.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "workload/bench_runner.h"

#ifndef KSPDG_SOURCE_DIR
#error "CMake must define KSPDG_SOURCE_DIR for bench_runner_test"
#endif

namespace kspdg {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

// A report with a distinct value in every field, so a dropped, renamed,
// reordered or misformatted key changes the output.
BenchReport MakeDistinctReport() {
  uint64_t n = 0;
  auto i = [&n]() { return ++n; };
  // The fractional part exercises the three-decimal fixed format.
  auto d = [&n]() { return static_cast<double>(++n) + 0.4567; };

  BenchReport r;
  r.dataset = "NY-S";
  r.num_vertices = i();
  r.num_edges = i();
  r.num_subgraphs = i();
  r.k = static_cast<uint32_t>(i());
  r.index_build_micros = d();
  r.batches_applied = i();
  r.batch_errors = i();
  r.updates_applied = i();
  r.update_total_micros = d();
  r.update_p50_micros = d();
  r.update_p95_micros = d();
  r.update_p99_micros = d();
  r.cands_subgraphs_rebuilt = i();
  r.cands_pair_paths_recomputed = i();
  r.cands_rebuild_micros = d();
  r.final_epoch = i();

  for (const char* name : {"kspdg", "yen", "findksp"}) {
    BackendBenchStats b;
    b.backend = name;
    b.queries = i();
    b.errors = i();
    b.paths_returned = i();
    b.total_micros = d();
    b.mean_micros = d();
    b.max_micros = d();
    b.p50_micros = d();
    b.p95_micros = d();
    b.p99_micros = d();
    b.min_epoch = i();
    b.max_epoch = i();
    b.engine_iterations = i();
    r.backends.push_back(b);
  }

  BatchPhaseStats& batch = r.batch;
  batch.batch_size = i();
  batch.requests = i();
  batch.errors = i();
  batch.non_uniform_batches = i();
  batch.sequential_micros = d();
  batch.batch_micros = d();
  batch.sequential_qps = d();
  batch.batch_qps = d();
  batch.speedup = d();

  DiversePhaseStats& diverse = r.diverse;
  diverse.requests = i();
  diverse.errors = i();
  diverse.k = static_cast<uint32_t>(i());
  diverse.overfetch = static_cast<uint32_t>(i());
  diverse.theta = d();
  diverse.candidates_total = i();
  diverse.kept_total = i();
  diverse.filtered_total = i();
  diverse.kept_min = i();
  diverse.kept_max = i();
  diverse.mean_pairwise_similarity = d();
  diverse.max_pairwise_similarity = d();
  diverse.ep_raw_entries = i();
  diverse.ep_path_nodes = i();
  diverse.mfp_compression_ratio = d();
  diverse.p50_micros = d();
  diverse.p95_micros = d();
  diverse.p99_micros = d();
  diverse.plain_micros = d();
  diverse.diverse_micros = d();
  diverse.plain_qps = d();
  diverse.diverse_qps = d();
  diverse.overhead = d();

  ShardPhaseStats& shard = r.shard;
  shard.num_shards = i();
  shard.requests = i();
  shard.diverse_requests = i();
  shard.errors = i();
  shard.mismatches = i();
  shard.batches_applied = i();
  shard.final_epoch = i();
  shard.direct_partials = i();
  shard.scattered_partials = i();
  shard.single_shard_queries = i();
  shard.cross_shard_queries = i();
  shard.min_subgraphs_per_shard = i();
  shard.max_subgraphs_per_shard = i();
  shard.sharded_micros = d();
  shard.unsharded_micros = d();
  shard.sharded_qps = d();
  shard.unsharded_qps = d();

  ShardBatchPhaseStats& shard_batch = r.shard_batch;
  shard_batch.num_shards = i();
  shard_batch.batch_size = i();
  shard_batch.requests = i();
  shard_batch.batches_submitted = i();
  shard_batch.errors = i();
  shard_batch.mismatches = i();
  shard_batch.non_uniform_batches = i();
  shard_batch.partial_cache_hits = i();
  shard_batch.direct_partials = i();
  shard_batch.scattered_partials = i();
  shard_batch.p50_micros = d();
  shard_batch.p95_micros = d();
  shard_batch.p99_micros = d();
  shard_batch.sharded_batch_micros = d();
  shard_batch.unsharded_sequential_micros = d();
  shard_batch.sharded_batch_qps = d();
  shard_batch.unsharded_sequential_qps = d();
  shard_batch.speedup = d();

  RemoteShardPhaseStats& remote = r.remote_shard;
  remote.num_shards = i();
  remote.num_replicas = i();
  remote.requests = i();
  remote.diverse_requests = i();
  remote.batch_size = i();
  remote.batches_submitted = i();
  remote.errors = i();
  remote.mismatches = i();
  remote.batches_applied = i();
  remote.final_epoch = i();
  remote.rpc_calls = i();
  remote.rpc_retries = i();
  remote.rpc_deadline_expired = i();
  remote.worker_restarts = i();
  remote.replica_catchups = i();
  for (int replica = 0; replica < 4; ++replica) {
    remote.reads_by_replica.push_back(i());
  }
  remote.baseline_r1_qps = d();
  remote.failover_requests = i();
  remote.failover_errors = i();
  remote.failover_mismatches = i();
  remote.partial_cache_hits = i();
  remote.partial_cache_skips = i();
  remote.direct_partials = i();
  remote.scattered_partials = i();
  remote.remote_micros = d();
  remote.remote_batch_micros = d();
  remote.inprocess_micros = d();
  remote.remote_qps = d();
  remote.remote_batch_qps = d();
  remote.inprocess_qps = d();

  OverloadPhaseStats& overload = r.overload;
  overload.factor = d();
  overload.requests = i();
  overload.queue_capacity = i();
  overload.per_tenant_quota = i();
  overload.num_tenants = i();
  overload.capacity_qps = d();
  overload.offered_qps = d();
  overload.admitted = i();
  overload.shed_deadline = i();
  overload.shed_quota = i();
  overload.accounted = i();
  overload.errors = i();
  overload.mismatches = i();
  overload.registry_admitted = i();
  overload.registry_shed_deadline = i();
  overload.registry_shed_quota = i();
  overload.elapsed_micros = d();
  overload.goodput_qps = d();
  for (OverloadPriorityStats& slice : overload.per_priority) {
    slice.issued = i();
    slice.served = i();
    slice.shed_deadline = i();
    slice.shed_quota = i();
    slice.errors = i();
    slice.goodput_qps = d();
    slice.p50_micros = d();
    slice.p99_micros = d();
  }

  r.metrics.mixed.issued_requests = i();
  r.metrics.mixed.queries_total = i();
  r.metrics.mixed.queries_rejected_total = i();
  for (PhaseMetricsSummary* phase :
       {&r.metrics.shard_batch, &r.metrics.remote_shard}) {
    phase->issued_requests = i();
    phase->queries_total = i();
    phase->queries_rejected_total = i();
    phase->partial_cache_hits = i();
  }
  r.metrics.worker_snapshots = i();
  // Not part of ToJson (written by --metrics-out instead).
  r.metrics_export = "{\"must\": \"not appear\"}";
  return r;
}

TEST(BenchRunnerTest, ToJsonMatchesGoldenFile) {
  const std::string golden_path = std::string(KSPDG_SOURCE_DIR) +
                                  "/tests/fixtures/bench_report.golden.json";
  const std::string golden = ReadFile(golden_path);
  ASSERT_FALSE(golden.empty()) << "missing fixture " << golden_path;
  EXPECT_EQ(MakeDistinctReport().ToJson(), golden);
}

TEST(BenchRunnerTest, ToJsonOfAnEmptyReportKeepsEveryKey) {
  const std::string json = BenchReport().ToJson();
  EXPECT_EQ(json.substr(0, 2), "{\n");
  EXPECT_NE(json.find("\"reads_by_replica\": [],\n"), std::string::npos);
  EXPECT_NE(json.find("\"backends\": [\n  ]\n}\n"), std::string::npos);
  EXPECT_NE(json.find("\"worker_snapshots\": 0\n"), std::string::npos);
}

TEST(BenchRunnerTest, OverloadPhaseAccountsForEveryRequest) {
  BenchOptions options;
  options.dataset = "NY-S";
  options.target_vertices = 256;
  options.queries_per_backend = 4;
  options.num_batches = 2;
  options.query_threads = 2;
  options.k = 3;
  options.z = 32;
  options.overload_factor = 2;
  Result<BenchReport> report = RunMixedBench(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const OverloadPhaseStats& phase = report.value().overload;
  EXPECT_EQ(phase.factor, 2.0);
  // Every distinct request (4 queries x 3 default backends) offered four
  // times over.
  EXPECT_EQ(phase.requests, 48u);
  EXPECT_EQ(phase.accounted, phase.requests);
  EXPECT_EQ(phase.errors, 0u);
  EXPECT_EQ(phase.mismatches, 0u);
  EXPECT_EQ(phase.registry_admitted, phase.admitted);
  EXPECT_EQ(phase.registry_shed_deadline, phase.shed_deadline);
  EXPECT_EQ(phase.registry_shed_quota, phase.shed_quota);
  size_t issued = 0;
  for (const OverloadPriorityStats& slice : phase.per_priority) {
    issued += slice.issued;
    EXPECT_EQ(slice.served + slice.shed_deadline + slice.shed_quota +
                  slice.errors,
              slice.issued);
  }
  EXPECT_EQ(issued, phase.requests);
}

TEST(BenchRunnerTest, ReplicatedRemotePhaseRunsFailoverDrill) {
  BenchOptions options;
  options.dataset = "NY-S";
  options.target_vertices = 256;
  options.queries_per_backend = 3;
  options.num_batches = 2;
  options.query_threads = 2;
  options.k = 3;
  options.z = 32;
  options.remote_shards = 2;
  options.replicas = 2;
  Result<BenchReport> report = RunMixedBench(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const RemoteShardPhaseStats& phase = report.value().remote_shard;
  EXPECT_EQ(phase.num_shards, 2u);
  EXPECT_EQ(phase.num_replicas, 2u);
  EXPECT_EQ(phase.requests, 9u);  // 3 queries x 3 default backends
  EXPECT_EQ(phase.errors, 0u);
  EXPECT_EQ(phase.mismatches, 0u);
  // The drill's extra batch lands on both services.
  EXPECT_EQ(phase.batches_applied, 3u);
  EXPECT_EQ(phase.final_epoch, 3u);
  EXPECT_EQ(phase.worker_restarts, 1u);
  EXPECT_GE(phase.replica_catchups, 1u);
  EXPECT_EQ(phase.failover_requests, 2 * phase.requests);
  EXPECT_EQ(phase.failover_errors, 0u);
  EXPECT_EQ(phase.failover_mismatches, 0u);
  EXPECT_GT(phase.baseline_r1_qps, 0.0);
  ASSERT_EQ(phase.reads_by_replica.size(), 4u);
  for (size_t i = 0; i < phase.reads_by_replica.size(); ++i) {
    EXPECT_GT(phase.reads_by_replica[i], 0u) << "replica slot " << i;
  }
  const BenchMetricsSummary& metrics = report.value().metrics;
  EXPECT_EQ(metrics.worker_snapshots, 4u);
  EXPECT_EQ(metrics.remote_shard.queries_total,
            metrics.remote_shard.issued_requests);
}

}  // namespace
}  // namespace kspdg

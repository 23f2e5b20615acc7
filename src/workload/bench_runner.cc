#include "workload/bench_runner.h"

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>
#include <thread>
#include <utility>

#include "api/routing_service.h"
#include "api/routing_service_interface.h"
#include "core/mutex.h"
#include "core/strings.h"
#include "core/timer.h"
#include "graph/traffic_model.h"
#include "ksp/path.h"
#include "obs/metrics.h"
#include "remote/remote_sharded_routing_service.h"
#include "shard/sharded_routing_service.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"

namespace kspdg {
namespace {

// ---------------------------------------------------------------------------
// BENCH JSON.
// ---------------------------------------------------------------------------

/// Pretty-printer behind BenchReport::ToJson. It owns the layout (two spaces
/// of indentation per level, one field per line, commas between siblings)
/// and the number format (std::fixed, three decimals), so the writers below
/// list only keys and values.
class JsonWriter {
 public:
  JsonWriter() {
    out_.precision(3);
    out_ << std::fixed;
    Open('{', '}');
  }

  template <typename T>
  void Field(const char* key, const T& value) {
    Key(key);
    out_ << value;
  }
  void Field(const char* key, const std::string& value) {
    Key(key);
    out_ << '"' << value << '"';
  }
  /// A number list on one line: "key": [1, 2, 3].
  void Field(const char* key, const std::vector<uint64_t>& values) {
    Key(key);
    out_ << '[';
    for (size_t i = 0; i < values.size(); ++i) {
      out_ << (i > 0 ? ", " : "") << values[i];
    }
    out_ << ']';
  }

  void BeginObject(const char* key) {
    Key(key);
    Open('{', '}');
  }
  /// An object element of the enclosing array.
  void BeginObject() {
    NextLine();
    Open('{', '}');
  }
  void BeginArray(const char* key) {
    Key(key);
    Open('[', ']');
  }
  /// Closes the innermost object or array.
  void End() {
    const char closer = closers_.back();
    closers_.pop_back();
    out_ << '\n' << std::string(2 * closers_.size(), ' ') << closer;
    first_ = false;
  }
  /// Closes the top-level object and returns the document.
  std::string Finish() {
    End();
    out_ << '\n';
    return out_.str();
  }

 private:
  void Open(char opener, char closer) {
    out_ << opener;
    closers_.push_back(closer);
    first_ = true;
  }
  void NextLine() {
    out_ << (first_ ? "\n" : ",\n") << std::string(2 * closers_.size(), ' ');
    first_ = false;
  }
  void Key(const char* key) {
    NextLine();
    out_ << '"' << key << "\": ";
  }

  std::ostringstream out_;
  std::vector<char> closers_;
  bool first_ = true;
};

void WriteFields(JsonWriter& w, const BackendBenchStats& s) {
  w.Field("backend", s.backend);
  w.Field("queries", s.queries);
  w.Field("errors", s.errors);
  w.Field("paths_returned", s.paths_returned);
  w.Field("total_micros", s.total_micros);
  w.Field("mean_micros", s.mean_micros);
  w.Field("max_micros", s.max_micros);
  w.Field("p50_micros", s.p50_micros);
  w.Field("p95_micros", s.p95_micros);
  w.Field("p99_micros", s.p99_micros);
  w.Field("min_epoch", s.min_epoch);
  w.Field("max_epoch", s.max_epoch);
  w.Field("engine_iterations", s.engine_iterations);
}

void WriteFields(JsonWriter& w, const BatchPhaseStats& s) {
  w.Field("batch_size", s.batch_size);
  w.Field("requests", s.requests);
  w.Field("errors", s.errors);
  w.Field("non_uniform_batches", s.non_uniform_batches);
  w.Field("sequential_micros", s.sequential_micros);
  w.Field("batch_micros", s.batch_micros);
  w.Field("sequential_qps", s.sequential_qps);
  w.Field("batch_qps", s.batch_qps);
  w.Field("speedup", s.speedup);
}

void WriteFields(JsonWriter& w, const DiversePhaseStats& s) {
  w.Field("requests", s.requests);
  w.Field("errors", s.errors);
  w.Field("k", s.k);
  w.Field("overfetch", s.overfetch);
  w.Field("theta", s.theta);
  w.Field("candidates_total", s.candidates_total);
  w.Field("kept_total", s.kept_total);
  w.Field("filtered_total", s.filtered_total);
  w.Field("kept_min", s.kept_min);
  w.Field("kept_max", s.kept_max);
  w.Field("mean_pairwise_similarity", s.mean_pairwise_similarity);
  w.Field("max_pairwise_similarity", s.max_pairwise_similarity);
  w.Field("ep_raw_entries", s.ep_raw_entries);
  w.Field("ep_path_nodes", s.ep_path_nodes);
  w.Field("mfp_compression_ratio", s.mfp_compression_ratio);
  w.Field("p50_micros", s.p50_micros);
  w.Field("p95_micros", s.p95_micros);
  w.Field("p99_micros", s.p99_micros);
  w.Field("plain_micros", s.plain_micros);
  w.Field("diverse_micros", s.diverse_micros);
  w.Field("plain_qps", s.plain_qps);
  w.Field("diverse_qps", s.diverse_qps);
  w.Field("overhead", s.overhead);
}

void WriteFields(JsonWriter& w, const ShardPhaseStats& s) {
  w.Field("num_shards", s.num_shards);
  w.Field("requests", s.requests);
  w.Field("diverse_requests", s.diverse_requests);
  w.Field("errors", s.errors);
  w.Field("mismatches", s.mismatches);
  w.Field("batches_applied", s.batches_applied);
  w.Field("final_epoch", s.final_epoch);
  w.Field("direct_partials", s.direct_partials);
  w.Field("scattered_partials", s.scattered_partials);
  w.Field("single_shard_queries", s.single_shard_queries);
  w.Field("cross_shard_queries", s.cross_shard_queries);
  w.Field("min_subgraphs_per_shard", s.min_subgraphs_per_shard);
  w.Field("max_subgraphs_per_shard", s.max_subgraphs_per_shard);
  w.Field("sharded_micros", s.sharded_micros);
  w.Field("unsharded_micros", s.unsharded_micros);
  w.Field("sharded_qps", s.sharded_qps);
  w.Field("unsharded_qps", s.unsharded_qps);
}

void WriteFields(JsonWriter& w, const ShardBatchPhaseStats& s) {
  w.Field("num_shards", s.num_shards);
  w.Field("batch_size", s.batch_size);
  w.Field("requests", s.requests);
  w.Field("batches_submitted", s.batches_submitted);
  w.Field("errors", s.errors);
  w.Field("mismatches", s.mismatches);
  w.Field("non_uniform_batches", s.non_uniform_batches);
  w.Field("partial_cache_hits", s.partial_cache_hits);
  w.Field("direct_partials", s.direct_partials);
  w.Field("scattered_partials", s.scattered_partials);
  w.Field("p50_micros", s.p50_micros);
  w.Field("p95_micros", s.p95_micros);
  w.Field("p99_micros", s.p99_micros);
  w.Field("sharded_batch_micros", s.sharded_batch_micros);
  w.Field("unsharded_sequential_micros", s.unsharded_sequential_micros);
  w.Field("sharded_batch_qps", s.sharded_batch_qps);
  w.Field("unsharded_sequential_qps", s.unsharded_sequential_qps);
  w.Field("speedup", s.speedup);
}

void WriteFields(JsonWriter& w, const RemoteShardPhaseStats& s) {
  w.Field("num_shards", s.num_shards);
  w.Field("num_replicas", s.num_replicas);
  w.Field("requests", s.requests);
  w.Field("diverse_requests", s.diverse_requests);
  w.Field("batch_size", s.batch_size);
  w.Field("batches_submitted", s.batches_submitted);
  w.Field("errors", s.errors);
  w.Field("mismatches", s.mismatches);
  w.Field("batches_applied", s.batches_applied);
  w.Field("final_epoch", s.final_epoch);
  w.Field("rpc_calls", s.rpc_calls);
  w.Field("rpc_retries", s.rpc_retries);
  w.Field("rpc_deadline_expired", s.rpc_deadline_expired);
  w.Field("worker_restarts", s.worker_restarts);
  w.Field("replica_catchups", s.replica_catchups);
  w.Field("reads_by_replica", s.reads_by_replica);
  w.Field("baseline_r1_qps", s.baseline_r1_qps);
  w.Field("failover_requests", s.failover_requests);
  w.Field("failover_errors", s.failover_errors);
  w.Field("failover_mismatches", s.failover_mismatches);
  w.Field("partial_cache_hits", s.partial_cache_hits);
  w.Field("partial_cache_skips", s.partial_cache_skips);
  w.Field("direct_partials", s.direct_partials);
  w.Field("scattered_partials", s.scattered_partials);
  w.Field("remote_micros", s.remote_micros);
  w.Field("remote_batch_micros", s.remote_batch_micros);
  w.Field("inprocess_micros", s.inprocess_micros);
  w.Field("remote_qps", s.remote_qps);
  w.Field("remote_batch_qps", s.remote_batch_qps);
  w.Field("inprocess_qps", s.inprocess_qps);
}

void WriteFields(JsonWriter& w, const OverloadPriorityStats& s) {
  w.Field("issued", s.issued);
  w.Field("served", s.served);
  w.Field("shed_deadline", s.shed_deadline);
  w.Field("shed_quota", s.shed_quota);
  w.Field("errors", s.errors);
  w.Field("goodput_qps", s.goodput_qps);
  w.Field("p50_micros", s.p50_micros);
  w.Field("p99_micros", s.p99_micros);
}

template <typename Stats>
void WriteObject(JsonWriter& w, const char* key, const Stats& stats) {
  w.BeginObject(key);
  WriteFields(w, stats);
  w.End();
}

void WriteFields(JsonWriter& w, const OverloadPhaseStats& s) {
  w.Field("factor", s.factor);
  w.Field("requests", s.requests);
  w.Field("queue_capacity", s.queue_capacity);
  w.Field("per_tenant_quota", s.per_tenant_quota);
  w.Field("num_tenants", s.num_tenants);
  w.Field("capacity_qps", s.capacity_qps);
  w.Field("offered_qps", s.offered_qps);
  w.Field("admitted", s.admitted);
  w.Field("shed_deadline", s.shed_deadline);
  w.Field("shed_quota", s.shed_quota);
  w.Field("accounted", s.accounted);
  w.Field("errors", s.errors);
  w.Field("mismatches", s.mismatches);
  w.Field("registry_admitted", s.registry_admitted);
  w.Field("registry_shed_deadline", s.registry_shed_deadline);
  w.Field("registry_shed_quota", s.registry_shed_quota);
  w.Field("elapsed_micros", s.elapsed_micros);
  w.Field("goodput_qps", s.goodput_qps);
  // Flattened copies of the headline per-priority numbers so single --check
  // lines can compare them (the checker dereferences paths, it does not
  // compute across objects).
  w.Field("interactive_goodput_qps", s.per_priority[0].goodput_qps);
  w.Field("batch_goodput_qps", s.per_priority[2].goodput_qps);
  w.Field("interactive_p99_micros", s.per_priority[0].p99_micros);
  w.Field("batch_p99_micros", s.per_priority[2].p99_micros);
  w.BeginObject("per_priority");
  for (size_t p = 0; p < kNumPriorities; ++p) {
    WriteObject(w, PriorityName(static_cast<RequestPriority>(p)),
                s.per_priority[p]);
  }
  w.End();
}

void WriteFields(JsonWriter& w, const PhaseMetricsSummary& s) {
  w.Field("issued_requests", s.issued_requests);
  w.Field("queries_total", s.queries_total);
  w.Field("queries_rejected_total", s.queries_rejected_total);
}

void WriteFields(JsonWriter& w, const BenchMetricsSummary& s) {
  WriteObject(w, "mixed", s.mixed);
  w.BeginObject("shard_batch");
  WriteFields(w, s.shard_batch);
  w.Field("partial_cache_hits", s.shard_batch.partial_cache_hits);
  w.End();
  w.BeginObject("remote_shard");
  WriteFields(w, s.remote_shard);
  w.Field("partial_cache_hits", s.remote_shard.partial_cache_hits);
  w.Field("worker_snapshots", s.worker_snapshots);
  w.End();
}

// ---------------------------------------------------------------------------
// Helpers shared by the phases.
// ---------------------------------------------------------------------------

/// Traffic seed offsets from BenchOptions::seed: the mixed phase's live
/// writer, and the replay histories of the shard and remote phases.
constexpr uint64_t kMixedTrafficSeed = 1;
constexpr uint64_t kShardReplaySeed = 2;
constexpr uint64_t kRemoteReplaySeed = 3;

/// What every phase reads: the options, the pristine graph each service is
/// built over (copied per service), the shared service options, and the
/// mixed request list — every endpoint pair once per backend, backends
/// interleaved, so request i goes to backend i % backends.size().
struct BenchContext {
  const BenchOptions& options;
  const Graph& pristine;
  RoutingServiceOptions service_options;
  std::vector<RouteRequest> requests;
};

std::vector<RouteRequest> MakeRequests(const BenchOptions& options,
                                       const Graph& graph) {
  std::vector<std::pair<VertexId, VertexId>> endpoints = MakeRandomQueries(
      graph, options.queries_per_backend, options.seed);
  std::vector<RouteRequest> requests;
  requests.reserve(endpoints.size() * options.backends.size());
  for (const auto& [s, t] : endpoints) {
    for (const std::string& backend : options.backends) {
      RouteRequest request;
      request.source = s;
      request.target = t;
      request.options.backend = backend;
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

std::vector<RouteRequest> AsDiverse(std::vector<RouteRequest> requests) {
  for (RouteRequest& request : requests) request.kind = QueryKind::kDiverseKsp;
  return requests;
}

/// The shard and remote phases' parity workload: the mixed request list,
/// plus a kDiverseKsp copy under --diverse (diverse answers must be as
/// shard-invisible as plain ones).
std::vector<RouteRequest> ParityRequests(const BenchContext& ctx) {
  std::vector<RouteRequest> requests = ctx.requests;
  if (ctx.options.diverse) {
    std::vector<RouteRequest> diverse = AsDiverse(ctx.requests);
    requests.insert(requests.end(), diverse.begin(), diverse.end());
  }
  return requests;
}

/// A deployment's options: the shared serving options, assigned through
/// the ServingOptions base, with the deployment's own fields at defaults.
template <typename DeploymentOptions>
DeploymentOptions Derive(const ServingOptions& shared) {
  DeploymentOptions derived;
  static_cast<ServingOptions&>(derived) = shared;
  return derived;
}

RemoteShardedRoutingServiceOptions RemoteOptions(const BenchContext& ctx,
                                                 size_t replicas) {
  auto remote =
      Derive<RemoteShardedRoutingServiceOptions>(ctx.service_options);
  remote.num_shards = static_cast<uint32_t>(ctx.options.remote_shards);
  remote.num_replicas = static_cast<uint32_t>(replicas);
  remote.remote.worker_binary = ctx.options.worker_binary;
  return remote;
}

TrafficModel Traffic(const BenchContext& ctx, uint64_t seed_offset) {
  TrafficModelOptions traffic;
  traffic.alpha = ctx.options.alpha;
  traffic.tau = ctx.options.tau;
  traffic.seed = ctx.options.seed + seed_offset;
  // Batches are anchored to the immutable initial weights, so a model over
  // the pristine graph generates the same history as one over any copy.
  return TrafficModel(ctx.pristine, traffic);
}

/// Applies the next `count` batches of `replay` to the reference and then
/// to the service under test, so both see the identical traffic history.
/// Returns the batches both accepted; appends each batch to `history` when
/// given.
size_t ApplyReplay(TrafficModel& replay, size_t count,
                   RoutingServiceInterface& reference,
                   RoutingServiceInterface& tested,
                   std::vector<std::vector<WeightUpdate>>* history = nullptr) {
  size_t applied = 0;
  for (size_t b = 0; b < count; ++b) {
    std::vector<WeightUpdate> batch = replay.NextBatch();
    bool ok = reference.ApplyTrafficBatch(batch).ok();
    ok = tested.ApplyTrafficBatch(batch).ok() && ok;
    if (ok) ++applied;
    if (history != nullptr) history->push_back(std::move(batch));
  }
  return applied;
}

double Qps(size_t requests, double micros) {
  return micros > 0 ? static_cast<double>(requests) / (micros / 1e6) : 0;
}

struct Percentiles {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Nearest-rank percentiles over an unsorted sample set (sorted in place;
/// all 0 for an empty sample).
Percentiles ComputePercentiles(std::vector<double>& samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  auto rank = [&samples](double q) {
    size_t index =
        static_cast<size_t>(std::ceil(q / 100.0 * samples.size()));
    if (index > 0) --index;
    return samples[std::min(index, samples.size() - 1)];
  };
  return {rank(50), rank(95), rank(99)};
}

template <typename Stats>
void SetPercentiles(std::vector<double>& samples, Stats& stats) {
  Percentiles p = ComputePercentiles(samples);
  stats.p50_micros = p.p50;
  stats.p95_micros = p.p95;
  stats.p99_micros = p.p99;
}

/// Registry counter deltas of one service between two scrapes, next to the
/// requests the harness issued to it in between.
PhaseMetricsSummary MetricsDelta(const MetricsSnapshot& before,
                                 const MetricsSnapshot& after,
                                 size_t issued) {
  auto delta = [&](const char* name) {
    return after.CounterTotal(name) - before.CounterTotal(name);
  };
  PhaseMetricsSummary summary;
  summary.issued_requests = issued;
  summary.queries_rejected_total = delta("queries_rejected_total");
  summary.queries_total =
      delta("queries_ok_total") + summary.queries_rejected_total;
  summary.partial_cache_hits = delta("partial_cache_hits_total");
  return summary;
}

/// Adds a service's registry snapshot, tagged service=`name`, to the
/// --metrics-out export.
void ExportMetrics(MetricsSnapshot snapshot, const char* name,
                   MetricsSnapshot& fleet_export) {
  snapshot.AddLabel("service", name);
  fleet_export.Merge(snapshot);
}

/// One timed pass over a request list: sequential Query calls when
/// batch_size is 0, otherwise QueryBatch calls of batch_size requests. The
/// service only has to speak RoutingServiceInterface, so plain, sharded and
/// remote services share the identical harness code.
struct QueryPassResult {
  std::vector<std::vector<Path>> paths;
  std::vector<char> answered;
  size_t errors = 0;
  /// Requests the service accounted for: every Query call, plus every item
  /// of a batch call that returned a response.
  size_t issued = 0;
  /// QueryBatch calls made, and those whose items disagreed on the epoch.
  size_t batches = 0;
  size_t non_uniform_batches = 0;
  double elapsed_micros = 0;
};

QueryPassResult RunQueryPass(RoutingServiceInterface& service,
                             const std::vector<RouteRequest>& requests,
                             size_t batch_size = 0) {
  QueryPassResult result;
  result.paths.resize(requests.size());
  result.answered.assign(requests.size(), 0);
  WallTimer timer;
  if (batch_size == 0) {
    for (size_t i = 0; i < requests.size(); ++i) {
      Result<RouteResponse> response = service.Query(requests[i]);
      if (!response.ok()) {
        ++result.errors;
        continue;
      }
      result.answered[i] = 1;
      result.paths[i] = std::move(response).value().paths;
    }
    result.issued = requests.size();
  } else {
    for (size_t begin = 0; begin < requests.size(); begin += batch_size) {
      const size_t count = std::min(batch_size, requests.size() - begin);
      Result<RouteBatchResponse> batched = service.QueryBatch(
          std::span<const RouteRequest>(requests.data() + begin, count));
      ++result.batches;
      if (!batched.ok()) {
        result.errors += count;
        continue;
      }
      RouteBatchResponse& b = batched.value();
      result.issued += b.items.size();
      bool uniform = true;
      for (size_t j = 0; j < b.items.size(); ++j) {
        if (!b.items[j].status.ok()) {
          ++result.errors;
          continue;
        }
        if (b.items[j].response.epoch != b.epoch) uniform = false;
        result.answered[begin + j] = 1;
        result.paths[begin + j] = std::move(b.items[j].response.paths);
      }
      if (!uniform) ++result.non_uniform_batches;
    }
  }
  result.elapsed_micros = timer.ElapsedMicros();
  return result;
}

bool SamePaths(const std::vector<Path>& got, const std::vector<Path>& want) {
  if (got.size() != want.size()) return false;
  for (size_t p = 0; p < got.size(); ++p) {
    if (got[p].vertices != want[p].vertices ||
        got[p].distance != want[p].distance) {
      return false;
    }
  }
  return true;
}

/// Requests answered by both passes whose path sets differ in route or
/// distance. Failed queries are already counted in `errors`.
size_t CountMismatches(const QueryPassResult& expected,
                       const QueryPassResult& actual) {
  size_t mismatches = 0;
  for (size_t i = 0; i < expected.paths.size(); ++i) {
    if (!expected.answered[i] || !actual.answered[i]) continue;
    if (!SamePaths(actual.paths[i], expected.paths[i])) ++mismatches;
  }
  return mismatches;
}

// ---------------------------------------------------------------------------
// Phases, in the order RunMixedBench runs them.
// ---------------------------------------------------------------------------

/// Mixed phase: --threads readers drain the request list through Query
/// while one writer spreads --batches traffic batches across the run, so
/// early and late queries land on different epochs. Fills the report's
/// top-level update fields and per-backend stats; returns the requests
/// issued.
size_t RunMixedPhase(const BenchContext& ctx, RoutingService& service,
                     BenchReport& report) {
  const BenchOptions& options = ctx.options;
  const std::vector<RouteRequest>& requests = ctx.requests;
  const size_t num_backends = options.backends.size();
  std::vector<BackendBenchStats> stats(num_backends);
  std::vector<std::vector<double>> latency_samples(num_backends);
  for (size_t b = 0; b < num_backends; ++b) {
    stats[b].backend = options.backends[b];
    stats[b].min_epoch = std::numeric_limits<uint64_t>::max();
    latency_samples[b].reserve(options.queries_per_backend);
  }
  Mutex stats_mu{"bench_runner::stats_mu"};
  std::atomic<size_t> next_item{0};

  auto reader = [&]() {
    for (;;) {
      size_t i = next_item.fetch_add(1, std::memory_order_relaxed);
      if (i >= requests.size()) return;
      Result<RouteResponse> response = service.Query(requests[i]);
      MutexLock guard(stats_mu);
      BackendBenchStats& s = stats[i % num_backends];
      ++s.queries;
      if (!response.ok()) {
        ++s.errors;
        continue;
      }
      const RouteResponse& r = response.value();
      s.paths_returned += r.paths.size();
      latency_samples[i % num_backends].push_back(r.stats.solve_micros);
      s.total_micros += r.stats.solve_micros;
      s.max_micros = std::max(s.max_micros, r.stats.solve_micros);
      s.min_epoch = std::min(s.min_epoch, r.epoch);
      s.max_epoch = std::max(s.max_epoch, r.epoch);
      s.engine_iterations += r.stats.engine.iterations;
    }
  };

  // The writer owns the report's update fields until it is joined.
  TrafficModel traffic = Traffic(ctx, kMixedTrafficSeed);
  std::vector<double> update_samples;
  // kspdg-lint: allow(raw-thread) — bench load generators, joined below.
  std::thread writer([&]() {
    for (size_t batch = 0; batch < options.num_batches; ++batch) {
      while (next_item.load(std::memory_order_relaxed) <
             (batch + 1) * requests.size() / (options.num_batches + 1)) {
        // Coarse pacing only: sleep rather than spin so the waiting writer
        // does not steal cycles from the reader latencies being measured.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::vector<WeightUpdate> updates = traffic.NextBatch();
      WallTimer timer;
      Result<TrafficBatchResult> applied = service.ApplyTrafficBatch(updates);
      if (!applied.ok()) {
        ++report.batch_errors;
        continue;
      }
      const double micros = timer.ElapsedMicros();
      report.update_total_micros += micros;
      update_samples.push_back(micros);
      ++report.batches_applied;
      report.updates_applied += applied.value().dtlp.updates_applied;
      report.cands_subgraphs_rebuilt += applied.value().cands.subgraphs_rebuilt;
      report.cands_pair_paths_recomputed +=
          applied.value().cands.pair_paths_recomputed;
      report.cands_rebuild_micros += applied.value().cands_micros;
    }
  });

  std::vector<std::thread> readers;  // kspdg-lint: allow(raw-thread)
  size_t num_threads = std::max<size_t>(1, options.query_threads);
  readers.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) readers.emplace_back(reader);
  for (std::thread& t : readers) t.join();  // kspdg-lint: allow(raw-thread)
  writer.join();

  Percentiles update = ComputePercentiles(update_samples);
  report.update_p50_micros = update.p50;
  report.update_p95_micros = update.p95;
  report.update_p99_micros = update.p99;
  report.final_epoch = service.CurrentEpoch();
  for (size_t b = 0; b < num_backends; ++b) {
    BackendBenchStats& s = stats[b];
    if (s.queries > s.errors) {
      s.mean_micros =
          s.total_micros / static_cast<double>(s.queries - s.errors);
    }
    SetPercentiles(latency_samples[b], s);
    if (s.min_epoch == std::numeric_limits<uint64_t>::max()) s.min_epoch = 0;
  }
  report.backends = std::move(stats);
  return requests.size();
}

/// Batch phase: the request list answered twice with no concurrent writer —
/// sequential Query calls vs QueryBatch — so the wall-clock difference
/// isolates what batching buys (single lock acquisition, pooled worker
/// scratch, parallel execution).
BatchPhaseStats RunBatchPhase(const BenchContext& ctx, RoutingService& service,
                              size_t& issued) {
  BatchPhaseStats phase;
  phase.batch_size = ctx.options.batch_size;
  phase.requests = ctx.requests.size();
  QueryPassResult sequential = RunQueryPass(service, ctx.requests);
  QueryPassResult batched =
      RunQueryPass(service, ctx.requests, phase.batch_size);
  issued += sequential.issued + batched.issued;
  phase.errors = sequential.errors + batched.errors;
  phase.non_uniform_batches = batched.non_uniform_batches;
  phase.sequential_micros = sequential.elapsed_micros;
  phase.batch_micros = batched.elapsed_micros;
  phase.sequential_qps = Qps(phase.requests, phase.sequential_micros);
  phase.batch_qps = Qps(phase.requests, phase.batch_micros);
  if (phase.batch_micros > 0) {
    phase.speedup = phase.sequential_micros / phase.batch_micros;
  }
  return phase;
}

/// Diverse phase: the request list answered once as plain kKsp and once as
/// kDiverseKsp, with no concurrent writer, so `overhead` isolates the
/// query-path cost of the §4 pipeline (over-fetch, per-query EP-Index/MFP
/// build, MinHash filter) against plain KSP.
DiversePhaseStats RunDiversePhase(const BenchContext& ctx,
                                  RoutingService& service, size_t& issued) {
  DiversePhaseStats phase;
  phase.k = ctx.options.k;
  phase.overfetch = ctx.options.diverse_overfetch;
  phase.theta = ctx.options.diverse_theta;
  phase.requests = ctx.requests.size();

  QueryPassResult plain = RunQueryPass(service, ctx.requests);
  phase.errors = plain.errors;
  phase.plain_micros = plain.elapsed_micros;

  const std::vector<RouteRequest> diverse_requests = AsDiverse(ctx.requests);
  std::vector<double> samples;
  samples.reserve(diverse_requests.size());
  phase.kept_min = std::numeric_limits<size_t>::max();
  double mean_sum = 0;
  WallTimer diverse_timer;
  for (const RouteRequest& request : diverse_requests) {
    Result<RouteResponse> response = service.Query(request);
    if (!response.ok() || !response.value().diverse.has_value()) {
      ++phase.errors;
      continue;
    }
    const DiverseStats& d = *response.value().diverse;
    phase.candidates_total += d.candidates;
    phase.kept_total += d.kept;
    phase.filtered_total += d.filtered;
    phase.kept_min = std::min<size_t>(phase.kept_min, d.kept);
    phase.kept_max = std::max<size_t>(phase.kept_max, d.kept);
    mean_sum += d.mean_pairwise_similarity;
    phase.max_pairwise_similarity =
        std::max(phase.max_pairwise_similarity, d.max_pairwise_similarity);
    phase.ep_raw_entries += d.ep_raw_entries;
    phase.ep_path_nodes += d.ep_path_nodes;
    samples.push_back(response.value().stats.solve_micros);
  }
  phase.diverse_micros = diverse_timer.ElapsedMicros();
  issued += plain.issued + diverse_requests.size();

  if (samples.empty()) {
    phase.kept_min = 0;
  } else {
    phase.mean_pairwise_similarity =
        mean_sum / static_cast<double>(samples.size());
  }
  if (phase.ep_raw_entries > 0) {
    phase.mfp_compression_ratio = static_cast<double>(phase.ep_path_nodes) /
                                  static_cast<double>(phase.ep_raw_entries);
  }
  SetPercentiles(samples, phase);
  phase.plain_qps = Qps(phase.requests, phase.plain_micros);
  phase.diverse_qps = Qps(phase.requests, phase.diverse_micros);
  if (phase.plain_micros > 0) {
    phase.overhead = phase.diverse_micros / phase.plain_micros;
  }
  return phase;
}

/// Shard-batch phase: the shard phase's request list goes to the sharded
/// service asynchronously — every batch_size requests become one
/// SubmitBatch ticket, issued back-to-back so request production overlaps
/// solving — and every answer is checked against the unsharded sequential
/// reference. The reference timing is that sequential pass, so the speedup
/// reads "sharded async batches vs one thread asking one unsharded service
/// politely". `metrics` receives the sharded registry's delta.
ShardBatchPhaseStats RunShardBatchPhase(
    const BenchContext& ctx, ShardedRoutingService& sharded,
    const std::vector<RouteRequest>& requests, const QueryPassResult& expected,
    PhaseMetricsSummary& metrics) {
  const size_t batch_size = ctx.options.batch_size;
  ShardBatchPhaseStats phase;
  phase.num_shards = ctx.options.shards;
  phase.batch_size = batch_size;
  phase.requests = requests.size();
  phase.unsharded_sequential_micros = expected.elapsed_micros;
  ShardedServiceCounters before = sharded.counters();
  MetricsSnapshot registry_before = sharded.Metrics();
  size_t issued = 0;

  std::vector<BatchTicket> tickets;
  tickets.reserve(requests.size() / batch_size + 1);
  WallTimer batch_timer;
  for (size_t begin = 0; begin < requests.size(); begin += batch_size) {
    size_t count = std::min(batch_size, requests.size() - begin);
    tickets.push_back(sharded.SubmitBatch(std::vector<RouteRequest>(
        requests.begin() + begin, requests.begin() + begin + count)));
  }
  phase.batches_submitted = tickets.size();
  std::vector<double> item_samples;
  item_samples.reserve(requests.size());
  size_t next = 0;
  for (const BatchTicket& ticket : tickets) {
    const Result<RouteBatchResponse>& outcome = ticket.Wait();
    size_t count = std::min(batch_size, requests.size() - next);
    if (!outcome.ok()) {
      phase.errors += count;
      next += count;
      continue;
    }
    const RouteBatchResponse& b = outcome.value();
    issued += b.items.size();
    bool uniform = true;
    for (const RouteBatchItem& item : b.items) {
      size_t i = next++;
      if (!item.status.ok() || i >= requests.size()) {
        ++phase.errors;
        continue;
      }
      if (item.response.epoch != b.epoch) uniform = false;
      item_samples.push_back(item.response.stats.solve_micros);
      if (!expected.answered[i]) {
        ++phase.errors;  // async side answered, reference side failed
        continue;
      }
      if (!SamePaths(item.response.paths, expected.paths[i])) {
        ++phase.mismatches;
      }
    }
    if (!uniform) ++phase.non_uniform_batches;
  }
  phase.sharded_batch_micros = batch_timer.ElapsedMicros();
  SetPercentiles(item_samples, phase);

  ShardedServiceCounters after = sharded.counters();
  // Registry cross-check: counter deltas between the two scrapes must match
  // what the tickets delivered.
  metrics = MetricsDelta(registry_before, sharded.Metrics(), issued);
  phase.partial_cache_hits =
      after.partial_cache_hits - before.partial_cache_hits;
  phase.direct_partials =
      after.direct_partial_requests - before.direct_partial_requests;
  phase.scattered_partials =
      after.scattered_partial_requests - before.scattered_partial_requests;
  phase.unsharded_sequential_qps =
      Qps(phase.requests, phase.unsharded_sequential_micros);
  phase.sharded_batch_qps = Qps(phase.requests, phase.sharded_batch_micros);
  if (phase.sharded_batch_micros > 0) {
    phase.speedup =
        phase.unsharded_sequential_micros / phase.sharded_batch_micros;
  }
  return phase;
}

/// Shard phase: a sharded and an unsharded service over the pristine graph
/// receive the identical traffic history, then answer the same request
/// list; sharding may move work, never change answers. With --batch-size
/// the shard-batch phase follows on the same sharded service.
Status RunShardPhases(const BenchContext& ctx, BenchReport& report,
                      MetricsSnapshot& fleet_export) {
  const BenchOptions& options = ctx.options;
  Result<std::unique_ptr<RoutingService>> plain_or =
      RoutingService::Create(Graph(ctx.pristine), ctx.service_options);
  if (!plain_or.ok()) return plain_or.status();
  std::unique_ptr<RoutingService> plain = std::move(plain_or).value();

  auto sharded_options =
      Derive<ShardedRoutingServiceOptions>(ctx.service_options);
  sharded_options.num_shards = static_cast<uint32_t>(options.shards);
  Result<std::unique_ptr<ShardedRoutingService>> sharded_or =
      ShardedRoutingService::Create(Graph(ctx.pristine), sharded_options);
  if (!sharded_or.ok()) return sharded_or.status();
  std::unique_ptr<ShardedRoutingService> sharded =
      std::move(sharded_or).value();

  ShardPhaseStats& phase = report.shard;
  phase.num_shards = options.shards;
  TrafficModel replay = Traffic(ctx, kShardReplaySeed);
  phase.batches_applied =
      ApplyReplay(replay, options.num_batches, *plain, *sharded);

  const std::vector<RouteRequest> requests = ParityRequests(ctx);
  phase.requests = requests.size();
  if (options.diverse) phase.diverse_requests = ctx.requests.size();
  // Both passes run the identical interface-typed harness, so the qps
  // comparison is symmetric; the path-by-path check runs after the timers.
  QueryPassResult expected = RunQueryPass(*plain, requests);
  QueryPassResult actual = RunQueryPass(*sharded, requests);
  phase.errors = expected.errors + actual.errors;
  phase.mismatches = CountMismatches(expected, actual);
  phase.unsharded_micros = expected.elapsed_micros;
  phase.sharded_micros = actual.elapsed_micros;
  phase.unsharded_qps = Qps(phase.requests, phase.unsharded_micros);
  phase.sharded_qps = Qps(phase.requests, phase.sharded_micros);

  phase.final_epoch = sharded->CurrentEpoch();
  if (plain->CurrentEpoch() != phase.final_epoch) ++phase.errors;
  ShardedServiceCounters counters = sharded->counters();
  phase.direct_partials = counters.direct_partial_requests;
  phase.scattered_partials = counters.scattered_partial_requests;
  phase.single_shard_queries = counters.single_shard_queries;
  phase.cross_shard_queries = counters.cross_shard_queries;
  std::vector<ShardInfo> infos = sharded->ShardInfos();
  if (!infos.empty()) {
    phase.min_subgraphs_per_shard = infos[0].subgraphs;
    for (const ShardInfo& info : infos) {
      phase.min_subgraphs_per_shard =
          std::min(phase.min_subgraphs_per_shard, info.subgraphs);
      phase.max_subgraphs_per_shard =
          std::max(phase.max_subgraphs_per_shard, info.subgraphs);
    }
  }

  if (options.batch_size > 0) {
    report.shard_batch = RunShardBatchPhase(ctx, *sharded, requests, expected,
                                            report.metrics.shard_batch);
  }
  ExportMetrics(sharded->Metrics(), "sharded", fleet_export);
  return Status::OK();
}

/// Read-scaling baseline of a replicated fleet: the sequential throughput
/// of an identical R=1 fleet over the same traffic history and request
/// list (0 when a batch or a query fails; an error when the fleet cannot be
/// created).
Result<double> BaselineR1Qps(
    const BenchContext& ctx,
    const std::vector<std::vector<WeightUpdate>>& history,
    const std::vector<RouteRequest>& requests) {
  Result<std::unique_ptr<RemoteShardedRoutingService>> r1_or =
      RemoteShardedRoutingService::Create(Graph(ctx.pristine),
                                          RemoteOptions(ctx, 1));
  if (!r1_or.ok()) return r1_or.status();
  std::unique_ptr<RemoteShardedRoutingService> r1 = std::move(r1_or).value();
  for (const std::vector<WeightUpdate>& batch : history) {
    if (!r1->ApplyTrafficBatch(batch).ok()) return 0.0;
  }
  QueryPassResult pass = RunQueryPass(*r1, requests);
  return pass.errors == 0 ? Qps(requests.size(), pass.elapsed_micros) : 0.0;
}

/// Failover drill of a replicated fleet. Part one kills the last replica of
/// shard 0 and answers the whole list again: sibling failover must be
/// error- and mismatch-free. Part two applies one more traffic batch, which
/// auto-restarts the victim (respawn + load of the committed graph), and
/// answers the list a third time against a freshly computed reference at
/// the new epoch. Returns the requests issued to the remote service.
size_t RunFailoverDrill(ShardedRoutingService& reference,
                        RemoteShardedRoutingService& remote,
                        TrafficModel& replay,
                        const std::vector<RouteRequest>& requests,
                        const QueryPassResult& expected,
                        RemoteShardPhaseStats& phase) {
  for (const RemoteWorkerInfo& info : remote.WorkerInfos()) {
    if (info.shard == 0 && info.replica == phase.num_replicas - 1 &&
        info.pid > 0) {
      kill(info.pid, SIGKILL);
    }
  }
  QueryPassResult failover = RunQueryPass(remote, requests);
  phase.failover_errors += failover.errors;
  phase.failover_mismatches += CountMismatches(expected, failover);

  phase.batches_applied += ApplyReplay(replay, 1, reference, remote);
  QueryPassResult healed_expected = RunQueryPass(reference, requests);
  QueryPassResult healed = RunQueryPass(remote, requests);
  phase.failover_errors += healed_expected.errors + healed.errors;
  phase.failover_mismatches += CountMismatches(healed_expected, healed);
  phase.failover_requests = 2 * requests.size();
  return failover.issued + healed.issued;
}

/// Remote phase: the shard phase's drill with the shards in worker
/// processes — a RemoteShardedRoutingService against an in-process
/// ShardedRoutingService reference, identical traffic history (epoch
/// prepares across the worker fleet on the remote side), identical request
/// list, path-by-path parity. A batched leg answers the list again through
/// the remote QueryBatch; replicated fleets add the R=1 baseline and the
/// failover drill. `metrics` receives the remote registry's delta over all
/// legs.
Result<RemoteShardPhaseStats> RunRemotePhase(const BenchContext& ctx,
                                             BenchMetricsSummary& metrics,
                                             MetricsSnapshot& fleet_export) {
  const BenchOptions& options = ctx.options;
  RemoteShardPhaseStats phase;
  phase.num_shards = options.remote_shards;
  phase.num_replicas = options.replicas > 0 ? options.replicas : 1;

  auto reference_options =
      Derive<ShardedRoutingServiceOptions>(ctx.service_options);
  reference_options.num_shards = static_cast<uint32_t>(options.remote_shards);
  Result<std::unique_ptr<ShardedRoutingService>> reference_or =
      ShardedRoutingService::Create(Graph(ctx.pristine), reference_options);
  if (!reference_or.ok()) return reference_or.status();
  std::unique_ptr<ShardedRoutingService> reference =
      std::move(reference_or).value();
  Result<std::unique_ptr<RemoteShardedRoutingService>> remote_or =
      RemoteShardedRoutingService::Create(
          Graph(ctx.pristine), RemoteOptions(ctx, phase.num_replicas));
  if (!remote_or.ok()) return remote_or.status();
  std::unique_ptr<RemoteShardedRoutingService> remote =
      std::move(remote_or).value();

  TrafficModel replay = Traffic(ctx, kRemoteReplaySeed);
  // Kept so the R=1 baseline fleet can replay the identical history.
  std::vector<std::vector<WeightUpdate>> history;
  phase.batches_applied =
      ApplyReplay(replay, options.num_batches, *reference, *remote, &history);

  const std::vector<RouteRequest> requests = ParityRequests(ctx);
  phase.requests = requests.size();
  if (options.diverse) phase.diverse_requests = ctx.requests.size();
  QueryPassResult expected = RunQueryPass(*reference, requests);

  MetricsSnapshot registry_before = remote->Metrics();
  QueryPassResult sequential = RunQueryPass(*remote, requests);
  phase.batch_size = options.batch_size > 0 ? options.batch_size : 8;
  QueryPassResult batched = RunQueryPass(*remote, requests, phase.batch_size);
  size_t issued = sequential.issued + batched.issued;
  phase.batches_submitted = batched.batches;
  phase.errors = expected.errors + sequential.errors + batched.errors;
  phase.mismatches = CountMismatches(expected, sequential) +
                     CountMismatches(expected, batched);
  phase.inprocess_micros = expected.elapsed_micros;
  phase.remote_micros = sequential.elapsed_micros;
  phase.remote_batch_micros = batched.elapsed_micros;
  phase.inprocess_qps = Qps(phase.requests, phase.inprocess_micros);
  phase.remote_qps = Qps(phase.requests, phase.remote_micros);
  phase.remote_batch_qps = Qps(phase.requests, phase.remote_batch_micros);

  if (phase.num_replicas > 1) {
    Result<double> baseline = BaselineR1Qps(ctx, history, requests);
    if (baseline.ok()) {
      phase.baseline_r1_qps = baseline.value();
    } else {
      ++phase.errors;
    }
    issued += RunFailoverDrill(*reference, *remote, replay, requests,
                               expected, phase);
  }
  phase.final_epoch = remote->CurrentEpoch();
  if (reference->CurrentEpoch() != phase.final_epoch) ++phase.errors;

  // Metrics() pings every live worker, so the snapshot carries each
  // worker's own registry tagged with its shard label.
  MetricsSnapshot registry_after = remote->Metrics();
  metrics.remote_shard = MetricsDelta(registry_before, registry_after, issued);
  metrics.worker_snapshots = registry_after.GaugeSampleCount("worker_epoch");
  ExportMetrics(std::move(registry_after), "remote", fleet_export);

  RemoteServiceCounters counters = remote->counters();
  phase.rpc_calls = counters.rpc_calls;
  phase.rpc_retries = counters.rpc_retries;
  phase.rpc_deadline_expired = counters.rpc_deadline_expired;
  phase.worker_restarts = counters.worker_restarts;
  phase.replica_catchups = counters.replica_catchups;
  for (const RemoteWorkerInfo& info : remote->WorkerInfos()) {
    phase.reads_by_replica.push_back(info.reads);
  }
  phase.partial_cache_hits = counters.sharded.partial_cache_hits;
  phase.partial_cache_skips = counters.sharded.partial_cache_skips;
  phase.direct_partials = counters.sharded.direct_partial_requests;
  phase.scattered_partials = counters.sharded.scattered_partial_requests;
  return phase;
}

// Offered load of the overload phase: every distinct request four times
// over, priorities drawn from a repeating interactive-light / batch-heavy
// pattern (3 : 1 : 6 per ten requests). Under strict priority a uniform mix
// at sustained overload starves the batch class completely (every batch
// entry is displaced before the queue ever drains down to it); with this
// mix interactive + normal under-fill capacity, so the leftover trickle
// serves batch work late — which is exactly the contrast the phase exists
// to measure (interactive p99 far below batch p99, both real). Tenants
// rotate so each one sees the same mix.
constexpr RequestPriority kPriorityPattern[] = {
    RequestPriority::kInteractive, RequestPriority::kInteractive,
    RequestPriority::kInteractive, RequestPriority::kNormal,
    RequestPriority::kBatch,       RequestPriority::kBatch,
    RequestPriority::kBatch,       RequestPriority::kBatch,
    RequestPriority::kBatch,       RequestPriority::kBatch};
constexpr size_t kPatternSize = std::size(kPriorityPattern);
constexpr size_t kOverloadRepeats = 4;
constexpr size_t kOverloadTenants = 4;

struct OverloadOutcome {
  AdmissionOutcome admission = AdmissionOutcome::kRejected;
  bool ok = false;
  bool mismatch = false;
  double latency_micros = 0;
};

/// Paces single-request SubmitBatch envelopes every `interval_micros`
/// without waiting for completions, and returns each request's outcome
/// once every callback has run. Deadlines scale with the measured mean
/// solve time — generous for interactive (it jumps the queue, so it should
/// nearly always make it), tight for normal, none for batch (batch is
/// displaced or quota-shed, never deadline-shed).
std::vector<OverloadOutcome> OfferOpenLoop(
    RoutingService& service, const std::vector<RouteRequest>& distinct,
    const QueryPassResult& reference, double interval_micros,
    double mean_micros) {
  const size_t total = distinct.size() * kOverloadRepeats;
  const auto interactive_budget =
      std::chrono::microseconds(static_cast<int64_t>(mean_micros * 64));
  const auto normal_budget =
      std::chrono::microseconds(static_cast<int64_t>(mean_micros * 16));
  std::vector<OverloadOutcome> outcomes(total);
  std::vector<BatchTicket> tickets;
  tickets.reserve(total);
  // Tickets are fulfilled BEFORE their callbacks run, so Wait() alone does
  // not order the slot writes below against the reads after the loop; this
  // counter does.
  std::atomic<size_t> callbacks_done{0};

  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < total; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::microseconds(
                    static_cast<int64_t>(interval_micros * i)));
    const size_t distinct_index = i % distinct.size();
    RouteRequest request = distinct[distinct_index];
    request.context.priority = kPriorityPattern[i % kPatternSize];
    request.context.tenant_id = "t" + std::to_string(i % kOverloadTenants);
    const auto now = std::chrono::steady_clock::now();
    if (request.context.priority == RequestPriority::kInteractive) {
      request.context.deadline = now + interactive_budget;
    } else if (request.context.priority == RequestPriority::kNormal) {
      request.context.deadline = now + normal_budget;
    }
    OverloadOutcome* slot = &outcomes[i];
    const std::vector<Path>* want = reference.answered[distinct_index]
                                        ? &reference.paths[distinct_index]
                                        : nullptr;
    std::vector<RouteRequest> one;
    one.push_back(std::move(request));
    tickets.push_back(service.SubmitBatch(
        std::move(one),
        [slot, want, now,
         &callbacks_done](const Result<RouteBatchResponse>& result) {
          slot->latency_micros = std::chrono::duration<double, std::micro>(
                                     std::chrono::steady_clock::now() - now)
                                     .count();
          if (result.ok() && result.value().items.size() == 1) {
            const RouteBatchItem& item = result.value().items.front();
            slot->admission = item.admission;
            slot->ok = item.status.ok();
            if (slot->ok && want != nullptr &&
                !SamePaths(item.response.paths, *want)) {
              slot->mismatch = true;
            }
          }
          callbacks_done.fetch_add(1, std::memory_order_release);
        }));
  }
  for (const BatchTicket& ticket : tickets) ticket.Wait();
  while (callbacks_done.load(std::memory_order_acquire) < total) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return outcomes;
}

/// Partitions the outcomes exactly into admitted / shed-on-deadline /
/// shed-on-quota / error, in total and per priority.
void TallyOverload(const std::vector<OverloadOutcome>& outcomes,
                   OverloadPhaseStats& phase) {
  std::vector<std::vector<double>> latency_by_priority(kNumPriorities);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const OverloadOutcome& got = outcomes[i];
    const size_t priority =
        static_cast<size_t>(kPriorityPattern[i % kPatternSize]);
    OverloadPriorityStats& slice = phase.per_priority[priority];
    ++slice.issued;
    switch (got.admission) {
      case AdmissionOutcome::kServed:
        if (got.ok) {
          ++phase.admitted;
          ++slice.served;
          latency_by_priority[priority].push_back(got.latency_micros);
          if (got.mismatch) ++phase.mismatches;
        } else {
          // Admitted but failed to solve: not an admission outcome at all —
          // a real error.
          ++phase.errors;
          ++slice.errors;
        }
        break;
      case AdmissionOutcome::kShedDeadline:
        ++phase.shed_deadline;
        ++slice.shed_deadline;
        break;
      case AdmissionOutcome::kShedQuota:
        ++phase.shed_quota;
        ++slice.shed_quota;
        break;
      case AdmissionOutcome::kRejected:
        ++phase.errors;
        ++slice.errors;
        break;
    }
  }
  phase.accounted = phase.admitted + phase.shed_deadline + phase.shed_quota;
  phase.goodput_qps = Qps(phase.admitted, phase.elapsed_micros);
  for (size_t p = 0; p < kNumPriorities; ++p) {
    OverloadPriorityStats& slice = phase.per_priority[p];
    slice.goodput_qps = Qps(slice.served, phase.elapsed_micros);
    Percentiles latency = ComputePercentiles(latency_by_priority[p]);
    slice.p50_micros = latency.p50;
    slice.p99_micros = latency.p99;
  }
}

/// Overload phase: make admission control choose. A fresh service first
/// answers the request list sequentially — that pass measures its capacity
/// AND records the no-pressure reference answers — then the same requests,
/// dressed with rotating priorities / tenants / per-priority deadlines, are
/// offered open-loop at factor x capacity through SubmitBatch. The pacer
/// never blocks (QoS submits shed instead), so the offered rate really is
/// open-loop; the accounting must be exact (served + shed_deadline +
/// shed_quota == offered) and every served answer must match the reference
/// path-for-path.
Result<OverloadPhaseStats> RunOverloadPhase(const BenchContext& ctx,
                                            MetricsSnapshot& fleet_export) {
  OverloadPhaseStats phase;
  phase.factor = ctx.options.overload_factor;
  RoutingServiceOptions overload_options = ctx.service_options;
  // Small queue + per-tenant quota so both shed reasons and the
  // priority-eviction path engage at modest offered loads.
  overload_options.submit_queue_capacity = 8;
  overload_options.per_tenant_quota = 4;
  phase.queue_capacity = overload_options.submit_queue_capacity;
  phase.per_tenant_quota = overload_options.per_tenant_quota;
  phase.num_tenants = kOverloadTenants;
  Result<std::unique_ptr<RoutingService>> service_or =
      RoutingService::Create(Graph(ctx.pristine), overload_options);
  if (!service_or.ok()) return service_or.status();
  std::unique_ptr<RoutingService> service = std::move(service_or).value();

  // Capacity pass (no pressure, no QoS): reference answers + the rate the
  // offered load is a multiple of.
  const std::vector<RouteRequest>& distinct = ctx.requests;
  QueryPassResult reference = RunQueryPass(*service, distinct);
  phase.errors += reference.errors;
  double mean_micros =
      reference.elapsed_micros / static_cast<double>(distinct.size());
  if (mean_micros <= 0) mean_micros = 1;
  phase.capacity_qps =
      Qps(distinct.size(),
          reference.elapsed_micros > 0 ? reference.elapsed_micros : 1);
  AdmissionCounters admission_before =
      AdmissionCountersFrom(service->Metrics());

  phase.requests = distinct.size() * kOverloadRepeats;
  WallTimer overload_timer;
  std::vector<OverloadOutcome> outcomes =
      OfferOpenLoop(*service, distinct, reference,
                    1e6 / (phase.factor * phase.capacity_qps), mean_micros);
  phase.elapsed_micros = overload_timer.ElapsedMicros();
  phase.offered_qps = Qps(phase.requests, phase.elapsed_micros);
  TallyOverload(outcomes, phase);

  // The service's own registry must tell the same story as the harness
  // tallies (delta over the overload window; the capacity pass already
  // bumped admitted once per reference answer).
  MetricsSnapshot snapshot = service->Metrics();
  AdmissionCounters admission_after = AdmissionCountersFrom(snapshot);
  phase.registry_admitted =
      admission_after.admitted - admission_before.admitted;
  phase.registry_shed_deadline =
      admission_after.shed_deadline - admission_before.shed_deadline;
  phase.registry_shed_quota =
      admission_after.shed_quota - admission_before.shed_quota;
  ExportMetrics(std::move(snapshot), "overload", fleet_export);
  return phase;
}

/// Rejects options no phase can run with, and resolves the dataset name.
Result<const DatasetSpec*> ValidateOptions(const BenchOptions& options) {
  if (options.backends.empty()) {
    return Status::InvalidArgument("at least one backend required");
  }
  if (options.queries_per_backend == 0) {
    return Status::InvalidArgument("queries_per_backend must be >= 1");
  }
  const DatasetSpec* spec = FindDataset(options.dataset);
  if (spec == nullptr) {
    std::vector<std::string> known;
    for (const DatasetSpec& s : StandardDatasets()) known.push_back(s.name);
    return Status::NotFound("unknown dataset '" + options.dataset +
                            "' (known: " + JoinNames(known) + ")");
  }
  return spec;
}

/// The serving options every service of the bench shares.
RoutingServiceOptions ServiceOptions(const BenchOptions& options,
                                     const DatasetSpec& spec) {
  RoutingServiceOptions service_options;
  service_options.defaults.k = options.k;
  service_options.defaults.diversity.theta = options.diverse_theta;
  service_options.defaults.diversity.overfetch = options.diverse_overfetch;
  service_options.dtlp.partition.max_vertices =
      options.z != 0 ? options.z : spec.default_z;
  service_options.batch_threads = options.batch_threads;
  return service_options;
}

/// Fails fast on typoed backend names instead of producing a report whose
/// stats are all errors.
Status CheckBackends(const BenchOptions& options,
                     const RoutingService& service) {
  std::vector<std::string> registered = service.BackendNames();
  for (const std::string& backend : options.backends) {
    if (std::find(registered.begin(), registered.end(), backend) ==
        registered.end()) {
      return Status::NotFound("unknown backend '" + backend +
                              "' (registered: " + JoinNames(registered) + ")");
    }
  }
  return Status::OK();
}

}  // namespace

std::string BenchReport::ToJson() const {
  JsonWriter w;
  w.Field("dataset", dataset);
  w.Field("num_vertices", num_vertices);
  w.Field("num_edges", num_edges);
  w.Field("num_subgraphs", num_subgraphs);
  w.Field("k", k);
  w.Field("index_build_micros", index_build_micros);
  w.Field("batches_applied", batches_applied);
  w.Field("batch_errors", batch_errors);
  w.Field("updates_applied", updates_applied);
  w.Field("update_total_micros", update_total_micros);
  w.Field("update_p50_micros", update_p50_micros);
  w.Field("update_p95_micros", update_p95_micros);
  w.Field("update_p99_micros", update_p99_micros);
  w.Field("cands_subgraphs_rebuilt", cands_subgraphs_rebuilt);
  w.Field("cands_pair_paths_recomputed", cands_pair_paths_recomputed);
  w.Field("cands_rebuild_micros", cands_rebuild_micros);
  w.Field("final_epoch", final_epoch);
  WriteObject(w, "batch", batch);
  WriteObject(w, "diverse", diverse);
  WriteObject(w, "shard", shard);
  WriteObject(w, "shard_batch", shard_batch);
  WriteObject(w, "remote_shard", remote_shard);
  WriteObject(w, "overload", overload);
  WriteObject(w, "metrics", metrics);
  w.BeginArray("backends");
  for (const BackendBenchStats& backend : backends) {
    w.BeginObject();
    WriteFields(w, backend);
    w.End();
  }
  w.End();
  return w.Finish();
}

Result<BenchReport> RunMixedBench(const BenchOptions& options) {
  Result<const DatasetSpec*> spec = ValidateOptions(options);
  if (!spec.ok()) return spec.status();
  // Every service below is built over its own copy of this graph.
  const Graph pristine =
      options.target_vertices == 0
          ? LoadDataset(*spec.value())
          : LoadScaledDataset(*spec.value(), options.target_vertices);
  const BenchContext ctx{options, pristine,
                         ServiceOptions(options, *spec.value()),
                         MakeRequests(options, pristine)};

  BenchReport report;
  report.dataset = options.dataset;
  report.num_vertices = pristine.NumVertices();
  report.num_edges = pristine.NumEdges();
  report.k = options.k;
  Graph mixed_graph = pristine;
  WallTimer build_timer;
  Result<std::unique_ptr<RoutingService>> service_or =
      RoutingService::Create(std::move(mixed_graph), ctx.service_options);
  if (!service_or.ok()) return service_or.status();
  std::unique_ptr<RoutingService> service = std::move(service_or).value();
  report.index_build_micros = build_timer.ElapsedMicros();
  report.num_subgraphs = service->dtlp().NumSubgraphs();
  KSPDG_RETURN_NOT_OK(CheckBackends(options, *service));

  // The mixed service's registry must account for every request the
  // mixed, batch and diverse phases issued to it.
  size_t mixed_issued = RunMixedPhase(ctx, *service, report);
  if (options.batch_size > 0) {
    report.batch = RunBatchPhase(ctx, *service, mixed_issued);
  }
  if (options.diverse) {
    report.diverse = RunDiversePhase(ctx, *service, mixed_issued);
  }
  MetricsSnapshot fleet_export;
  MetricsSnapshot mixed_snapshot = service->Metrics();
  report.metrics.mixed = MetricsDelta({}, mixed_snapshot, mixed_issued);
  ExportMetrics(std::move(mixed_snapshot), "mixed", fleet_export);

  if (options.shards > 0) {
    KSPDG_RETURN_NOT_OK(RunShardPhases(ctx, report, fleet_export));
  }
  if (options.remote_shards > 0) {
    Result<RemoteShardPhaseStats> remote =
        RunRemotePhase(ctx, report.metrics, fleet_export);
    if (!remote.ok()) return remote.status();
    report.remote_shard = std::move(remote).value();
  }
  if (options.overload_factor > 0) {
    Result<OverloadPhaseStats> overload = RunOverloadPhase(ctx, fleet_export);
    if (!overload.ok()) return overload.status();
    report.overload = std::move(overload).value();
  }
  report.metrics_export = fleet_export.ToJson();
  return report;
}

}  // namespace kspdg

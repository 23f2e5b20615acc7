#include "replay.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "api/ksp_solver.h"
#include "cands/cands.h"
#include "dtlp/dtlp.h"
#include "ksp/findksp.h"
#include "ksp/yen.h"
#include "kspdg/partial_provider.h"
#include "kspdg/query_context.h"
#include "partition/partitioner.h"

namespace kspbench {

namespace {

constexpr double kDistanceTolerance = 1e-6;
/// Threads checking one epoch's answers (outside the timed phase).
constexpr unsigned kReplayThreads = 3;
/// Per-layer replays are sampled evenly over the run's answers; the oracle
/// itself checks every answer.
constexpr size_t kMaxKspDgReplays = 48;
constexpr size_t kMaxBaselineReplays = 400;
/// Epochs at which DTLP bound health is measured (evenly spaced, always
/// including the last).
constexpr size_t kHealthEpochs = 4;

/// LocalPartialProvider with a span and a call count around each fetch.
class TimingPartialProvider : public kspdg::PartialProvider {
 public:
  TimingPartialProvider(const kspdg::Dtlp& dtlp, Tracer* tracer)
      : inner_(dtlp), tracer_(tracer) {}
  kspdg::PartialResult ComputePartials(kspdg::VertexId x, kspdg::VertexId y,
                                       size_t depth) override {
    ScopedSpan span(tracer_, "kspdg.ComputePartials");
    ++calls_;
    return inner_.ComputePartials(x, y, depth);
  }
  size_t calls() const { return calls_; }

 private:
  kspdg::LocalPartialProvider inner_;
  Tracer* tracer_;
  size_t calls_ = 0;
};

struct BoundHealth {
  size_t pairs = 0;
  size_t inexact = 0;
  size_t violations = 0;
  double tightness_sum = 0;
  size_t tightness_n = 0;
};

/// Compares every boundary pair's LBD with its true in-subgraph distance
/// (depth-1 PartialsInSubgraph). A violation is an LBD above the truth —
/// the Theorem 1 invariant broken.
void MeasureBoundHealth(const kspdg::Dtlp& dtlp, BoundHealth* health) {
  for (kspdg::SubgraphId sg = 0; sg < dtlp.NumSubgraphs(); ++sg) {
    const kspdg::SubgraphIndex& index = dtlp.index(sg);
    const kspdg::Subgraph& sub = index.subgraph();
    for (const kspdg::BoundaryPairEntry& pair : index.pairs()) {
      std::vector<Path> best = kspdg::LocalPartialProvider::PartialsInSubgraph(
          sub, sub.GlobalOf(pair.src), sub.GlobalOf(pair.dst), 1);
      ++health->pairs;
      if (!pair.exact) ++health->inexact;
      if (best.empty() || !std::isfinite(pair.lbd)) continue;
      double truth = best.front().distance;
      if (pair.lbd > truth + kDistanceTolerance) ++health->violations;
      if (truth > 0) {
        health->tightness_sum += pair.lbd / truth;
        ++health->tightness_n;
      }
    }
  }
}

/// Per-query outputs of the layer replay, merged after each epoch.
struct LayerSamples {
  size_t cache_hits = 0;
  size_t provider_calls = 0;
};

bool DistancesMatch(const std::vector<double>& got,
                    const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::fabs(got[i] - want[i]) > kDistanceTolerance) return false;
  }
  return true;
}

/// Indices of `pool` spaced evenly, at most `cap` of them.
std::vector<size_t> EvenSample(const std::vector<size_t>& pool, size_t cap) {
  if (pool.size() <= cap) return pool;
  std::vector<size_t> out;
  for (size_t i = 0; i < cap; ++i) out.push_back(pool[i * pool.size() / cap]);
  return out;
}

void AddMedian(MetricMap* m, const std::string& name,
               const std::vector<double>& samples, const std::string& unit) {
  (*m)[name] = Metric{Median(samples), unit, samples.size()};
}

}  // namespace

OracleReport ReplayEpochs(const Config& config, const Inputs& inputs,
                          const std::vector<Answer>& answers,
                          uint64_t final_epoch, Tracer* tracer,
                          MetricMap* layers) {
  OracleReport report;
  std::map<uint64_t, std::vector<size_t>> by_epoch;
  std::vector<size_t> ksp_answers;
  std::vector<size_t> all_answers;
  for (size_t i = 0; i < answers.size(); ++i) {
    if (!answers[i].ok) continue;
    if (answers[i].epoch > final_epoch) {
      ++report.unreplayed;
      continue;
    }
    by_epoch[answers[i].epoch].push_back(i);
    all_answers.push_back(i);
    if (answers[i].request.kind == kspdg::QueryKind::kKsp) {
      ksp_answers.push_back(i);
    }
  }
  std::vector<char> replay_kspdg(answers.size(), 0);
  std::vector<char> replay_baselines(answers.size(), 0);
  if (layers != nullptr) {
    for (size_t i : EvenSample(ksp_answers, kMaxKspDgReplays)) {
      replay_kspdg[i] = 1;
    }
    for (size_t i : EvenSample(all_answers, kMaxBaselineReplays)) {
      replay_baselines[i] = 1;
    }
  }

  Graph graph = inputs.graph;
  const kspdg::DtlpOptions dtlp_options = DtlpOptionsFor(config);
  std::unique_ptr<kspdg::Dtlp> dtlp;
  std::unique_ptr<kspdg::CandsIndex> cands;
  if (layers != nullptr) {
    {
      ScopedSpan span(tracer, "partition.PartitionGraph");
      kspdg::Result<kspdg::Partition> partition =
          kspdg::PartitionGraph(graph, dtlp_options.partition);
      (*layers)["partition.build_ms"] = Metric{span.ElapsedMs(), "ms", 1};
      if (!partition.ok()) return report;
    }
    {
      ScopedSpan span(tracer, "dtlp.Build");
      auto built = kspdg::Dtlp::Build(graph, dtlp_options);
      (*layers)["dtlp.build_ms"] = Metric{span.ElapsedMs(), "ms", 1};
      if (!built.ok()) return report;
      dtlp = std::move(built).value();
    }
    {
      ScopedSpan span(tracer, "cands.Build");
      auto built = kspdg::BuildCandsIndex(graph, dtlp_options);
      (*layers)["cands.build_ms"] = Metric{span.ElapsedMs(), "ms", 1};
      if (!built.ok()) return report;
      cands = std::move(built).value();
    }
    (*layers)["dtlp.index_mib"] =
        Metric{static_cast<double>(dtlp->EpIndexMemoryBytes() +
                                   dtlp->SkeletonMemoryBytes()) /
                   (1024.0 * 1024.0),
               "MiB", 0};
  }

  std::vector<uint64_t> health_epochs;
  if (layers != nullptr) {
    for (size_t h = 1; h <= kHealthEpochs; ++h) {
      uint64_t e = final_epoch * h / kHealthEpochs;
      if (health_epochs.empty() || health_epochs.back() != e) {
        health_epochs.push_back(e);
      }
    }
  }

  BoundHealth health;
  std::vector<double> touched, refreshed, cands_update_ms;
  LayerSamples samples;
  std::mutex mu;  // guards report and samples across checking threads
  const kspdg::KspDgOptions engine_options =
      RoutingDefaultsFor(config).ToEngineOptions();

  for (uint64_t epoch = 0; epoch <= final_epoch; ++epoch) {
    if (epoch > 0) {
      const std::vector<WeightUpdate>& batch = inputs.batches[epoch - 1];
      for (const WeightUpdate& u : batch) graph.SetWeight(u);
      if (layers != nullptr) {
        ScopedSpan span(tracer, "dtlp.ApplyUpdates");
        kspdg::DtlpUpdateStats stats = dtlp->ApplyUpdates(batch);
        report.dtlp_update_ms.push_back(span.ElapsedMs());
        touched.push_back(static_cast<double>(stats.subgraphs_touched));
        refreshed.push_back(
            static_cast<double>(stats.skeleton_pairs_refreshed));
        ScopedSpan cands_span(tracer, "cands.ApplyUpdates");
        cands->ApplyUpdates(batch);
        cands_update_ms.push_back(cands_span.ElapsedMs());
      }
    }
    if (layers != nullptr &&
        std::find(health_epochs.begin(), health_epochs.end(), epoch) !=
            health_epochs.end()) {
      ScopedSpan span(tracer, "dtlp.BoundHealth");
      MeasureBoundHealth(*dtlp, &health);
    }
    auto found = by_epoch.find(epoch);
    if (found == by_epoch.end()) continue;
    const std::vector<size_t>& items = found->second;

    std::atomic<size_t> next{0};
    auto check = [&] {
      kspdg::YenScratch scratch;
      LayerSamples local;
      for (size_t n = next.fetch_add(1); n < items.size();
           n = next.fetch_add(1)) {
        const Answer& answer = answers[items[n]];
        const RouteRequest& request = answer.request;
        const bool ksp = request.kind == kspdg::QueryKind::kKsp;
        const size_t k = ksp ? config.k : 1;
        std::vector<Path> expected;
        {
          ScopedSpan span(tracer, "ksp.YenKspInGraph", answer.index + 1);
          expected = kspdg::YenKspInGraph(graph, request.source,
                                          request.target, k, &scratch);
        }
        std::vector<double> got = Distances(answer.paths);
        std::vector<double> want = Distances(expected);
        bool match = DistancesMatch(got, want);
        if (replay_baselines[items[n]]) {
          if (ksp) {
            ScopedSpan span(tracer, "ksp.FindKsp", answer.index + 1);
            kspdg::FindKsp(graph, request.source, request.target, k,
                           &scratch);
          }
          ScopedSpan span(tracer, "cands.ShortestPath", answer.index + 1);
          cands->ShortestPath(request.source, request.target);
        }
        bool replay_differs = false;
        if (replay_kspdg[items[n]]) {
          TimingPartialProvider provider(*dtlp, tracer);
          {
            ScopedSpan span(tracer, "kspdg.BuildOverlay", answer.index + 1);
            kspdg::QueryContext context(*dtlp, &provider, request.source,
                                        request.target, engine_options);
            context.BuildOverlay();
          }
          kspdg::KspQueryResult replayed;
          {
            ScopedSpan span(tracer, "kspdg.RunKspDgQuery", answer.index + 1);
            replayed = kspdg::RunKspDgQuery(*dtlp, &provider, request.source,
                                            request.target, engine_options);
          }
          replay_differs = !SameRoutes(replayed.paths, answer.paths);
          local.cache_hits += replayed.stats.partial_cache_hits;
          local.provider_calls += provider.calls();
        }
        std::lock_guard<std::mutex> guard(mu);
        ++report.checked;
        if (replay_differs) ++report.replay_mismatches;
        if (!match) {
          ++report.mismatches;
          if (answer.injected) ++report.injected_caught;
          std::fprintf(stderr,
                       "oracle mismatch: s=%u t=%u epoch=%llu kind=%s "
                       "service=%s oracle=%s\n",
                       request.source, request.target,
                       static_cast<unsigned long long>(answer.epoch),
                       kspdg::QueryKindName(request.kind),
                       FormatDistances(got).c_str(),
                       FormatDistances(want).c_str());
        }
      }
      std::lock_guard<std::mutex> guard(mu);
      samples.cache_hits += local.cache_hits;
      samples.provider_calls += local.provider_calls;
    };
    std::vector<std::thread> threads;
    unsigned n_threads = static_cast<unsigned>(
        std::min<size_t>(kReplayThreads, items.size()));
    for (unsigned i = 1; i < n_threads; ++i) threads.emplace_back(check);
    check();
    for (std::thread& t : threads) t.join();
  }

  if (layers == nullptr) return report;
  MetricMap& m = *layers;
  AddMedian(&m, "dtlp.update_ms", report.dtlp_update_ms, "ms");
  m["dtlp.subgraphs_touched"] = Metric{Mean(touched), "count", touched.size()};
  m["dtlp.skeleton_pairs_refreshed"] =
      Metric{Mean(refreshed), "count", refreshed.size()};
  m["dtlp.inexact_pair_share"] =
      Metric{health.pairs == 0 ? 0.0
                               : static_cast<double>(health.inexact) /
                                     static_cast<double>(health.pairs),
             "ratio", health.pairs};
  m["dtlp.lbd_tightness"] =
      Metric{health.tightness_n == 0
                 ? 0.0
                 : health.tightness_sum /
                       static_cast<double>(health.tightness_n),
             "ratio", health.tightness_n};
  m["dtlp.lbd_violations"] =
      Metric{static_cast<double>(health.violations), "count", health.pairs};
  AddMedian(&m, "cands.update_ms", cands_update_ms, "ms");
  AddMedian(&m, "cands.query_ms", tracer->DurationsMs("cands.ShortestPath"),
            "ms");
  std::vector<double> query_ms = tracer->DurationsMs("kspdg.RunKspDgQuery");
  std::vector<double> partials_ms =
      tracer->ChildSumMs("kspdg.RunKspDgQuery", "kspdg.ComputePartials");
  std::vector<double> overlay_ms = tracer->DurationsMs("kspdg.BuildOverlay");
  AddMedian(&m, "kspdg.query_ms", query_ms, "ms");
  AddMedian(&m, "kspdg.partials_ms", partials_ms, "ms");
  AddMedian(&m, "kspdg.overlay_ms", overlay_ms, "ms");
  // Self time: the query span minus its partial fetches minus the overlay
  // build it performs first (timed on its own just before).
  std::vector<double> self_ms;
  double overlay_median = Median(overlay_ms);
  for (size_t i = 0; i < query_ms.size(); ++i) {
    self_ms.push_back(query_ms[i] - partials_ms[i] - overlay_median);
  }
  AddMedian(&m, "kspdg.self_ms", self_ms, "ms");
  // Engine counters come from every KSP-DG answer the service gave (the
  // whole population, not the timed sample).
  std::vector<double> iterations, yen_runs, candidates_per_path;
  size_t cap_hits = 0;
  for (size_t i : ksp_answers) {
    const kspdg::KspDgQueryStats& stats = answers[i].engine;
    iterations.push_back(stats.iterations);
    yen_runs.push_back(static_cast<double>(stats.partial_ksp_computations));
    if (!answers[i].paths.empty()) {
      candidates_per_path.push_back(
          static_cast<double>(stats.candidates_generated) /
          static_cast<double>(answers[i].paths.size()));
    }
    if (stats.iterations >= engine_options.max_iterations) ++cap_hits;
  }
  m["kspdg.iterations"] = Metric{Mean(iterations), "count", iterations.size()};
  m["kspdg.cap_hits"] =
      Metric{static_cast<double>(cap_hits), "count", iterations.size()};
  m["kspdg.yen_runs"] = Metric{Mean(yen_runs), "count", yen_runs.size()};
  m["kspdg.candidates_per_path"] = Metric{Mean(candidates_per_path), "count",
                                          candidates_per_path.size()};
  size_t fetches = samples.cache_hits + samples.provider_calls;
  m["kspdg.partial_cache_hit_ratio"] =
      Metric{fetches == 0 ? 0.0
                          : static_cast<double>(samples.cache_hits) /
                                static_cast<double>(fetches),
             "ratio", fetches};
  AddMedian(&m, "ksp.yen_query_ms", tracer->DurationsMs("ksp.YenKspInGraph"),
            "ms");
  AddMedian(&m, "ksp.findksp_query_ms", tracer->DurationsMs("ksp.FindKsp"),
            "ms");
  return report;
}

}  // namespace kspbench

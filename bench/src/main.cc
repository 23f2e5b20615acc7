// Entry point of the repository benchmark. Usage:
//
//   kspdg_repo_bench --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out FILE] [--tiny] [--inject-wrong-distance]
//
// Prints one report line (run shape, every metric with its unit and sample
// count, the failure breakdown) and, last, the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. Exit code 0 iff the run completed and printed a result.
#include <cstdio>
#include <sstream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

std::string MetricsJson(const kspbench::MetricMap& metrics,
                        bool with_samples) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << kspbench::JsonString(name)
        << ": {\"value\": " << kspbench::JsonNumber(metric.value)
        << ", \"unit\": " << kspbench::JsonString(metric.unit);
    if (with_samples) out << ", \"samples\": " << metric.samples;
    out << "}";
    first = false;
  }
  out << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  kspbench::Config config;
  std::string error;
  if (!kspbench::ParseConfig(argc, argv, &config, &error)) {
    std::fprintf(stderr, "kspdg_repo_bench: %s\n", error.c_str());
    return 2;
  }
  kspbench::RunOutcome outcome = kspbench::RunWorkload(config);
  for (const std::string& problem : outcome.problems) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  if (outcome.attempted == 0 || outcome.metrics.empty()) {
    std::fprintf(stderr, "kspdg_repo_bench: no requests were answered\n");
    return 1;
  }

  std::ostringstream report;
  report << "{\"report\": {\"shape\": {";
  for (size_t i = 0; i < outcome.shape.size(); ++i) {
    report << (i == 0 ? "" : ", ") << kspbench::JsonString(outcome.shape[i].first)
           << ": " << kspbench::JsonString(outcome.shape[i].second);
  }
  report << "}, \"metrics\": " << MetricsJson(outcome.metrics, true)
         << ", \"extra\": " << MetricsJson(outcome.extra, true) << "}}";
  std::printf("%s\n", report.str().c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              MetricsJson(outcome.metrics, false).c_str());
  std::fflush(stdout);
  return 0;
}

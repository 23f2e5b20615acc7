// The benchmark's three workloads; workloads.cc says why each was chosen.
// Each drives the public serving API (RoutingService /
// RemoteShardedRoutingService), records every request it issued, checks
// every answer against the exact oracle at its epoch, and cross-checks its
// request count against the service's own accounting.
#ifndef KSPDG_BENCH_WORKLOADS_H_
#define KSPDG_BENCH_WORKLOADS_H_

#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace kspbench {

struct RunOutcome {
  /// False when a check could not run or failed outright: the accounting
  /// cross-check, an answer the oracle never replayed, or (traced runs)
  /// traced answers that differ from untraced ones.
  bool correct = true;
  std::vector<std::string> problems;
  /// Requests issued, and those that failed: error or refused statuses
  /// plus answers whose distances differ from the oracle's.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  MetricMap metrics;
  /// Figures reported beside the metrics but not bounded: workload-specific
  /// percentiles, failure breakdown, tracing overhead.
  MetricMap extra;
  /// The run's shape: thread counts, graph size, seed, build type.
  std::vector<std::pair<std::string, std::string>> shape;
};

RunOutcome RunWorkload(const Config& config);

}  // namespace kspbench

#endif  // KSPDG_BENCH_WORKLOADS_H_

// The exact oracle and the per-layer replay.
//
// After the timed phase, ReplayEpochs walks the run's epochs in order over
// a private copy of the pristine graph, applying the same traffic batches
// the service applied. At each epoch it checks every answer the service
// gave at that epoch against Yen's algorithm on the flat graph (kKsp: equal
// path count and distances within 1e-6; kShortestPath: the exact shortest
// distance). With a layer sink it also rebuilds the index layers
// standalone and times calls into each layer's public functions on the
// same inputs: partition / DTLP / CANDS build, Algorithm 2 and the CANDS
// rebuild per batch, DTLP bound health, KSP-DG (with a timing
// PartialProvider), Yen, FindKSP and the CANDS query.
#ifndef KSPDG_BENCH_REPLAY_H_
#define KSPDG_BENCH_REPLAY_H_

#include <string>
#include <vector>

#include "harness.h"

namespace kspbench {

struct OracleReport {
  size_t checked = 0;
  size_t mismatches = 0;
  /// Mismatches on answers perturbed by --inject-wrong-distance.
  size_t injected_caught = 0;
  /// Answers whose epoch the replay never reached (a harness bug).
  size_t unreplayed = 0;
  /// KSP-DG replays whose routes differ from the service's answer.
  size_t replay_mismatches = 0;
  /// Algorithm 2 time of the standalone DTLP per batch (traced runs),
  /// indexed by epoch - 1.
  std::vector<double> dtlp_update_ms;
};

/// Checks `answers` (epochs 0..final_epoch, batches from `inputs`) and, when
/// `layers` is non-null, adds the per-layer replay metrics to it. Mismatches
/// are printed to stderr with (s, t, epoch, both distance lists).
OracleReport ReplayEpochs(const Config& config, const Inputs& inputs,
                          const std::vector<Answer>& answers,
                          uint64_t final_epoch, Tracer* tracer,
                          MetricMap* layers);

}  // namespace kspbench

#endif  // KSPDG_BENCH_REPLAY_H_

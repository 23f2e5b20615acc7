// Shared pieces of the repository benchmark: run configuration, generated
// inputs, latency samples, the in-memory span tracer, and the record of
// every request a workload issued (what the oracle later checks).
#ifndef KSPDG_BENCH_HARNESS_H_
#define KSPDG_BENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/routing_options.h"
#include "api/routing_service_interface.h"
#include "dtlp/dtlp.h"
#include "graph/graph.h"
#include "ksp/path.h"
#include "kspdg/ksp_dg_options.h"
#include "obs/metrics.h"

namespace kspbench {

using kspdg::Graph;
using kspdg::Path;
using kspdg::RouteRequest;
using kspdg::WeightUpdate;
using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) {
  return MsBetween(a, Clock::now());
}

/// Command-line configuration plus the workload shape derived from it.
/// Every size is fixed by the workload name, --seconds and --tiny; the
/// seed only drives the generated traffic and endpoints.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test sizes: a small graph and short phases, same code paths.
  bool tiny = false;
  /// Self-test hook: perturbs one answered distance before the oracle
  /// check, which must then report a mismatch.
  bool inject_wrong_distance = false;
  /// Where the traced run writes its spans (empty = not written).
  std::string trace_out;
  /// Directory (relative to the working directory) for fleet sockets.
  std::string socket_dir = ".bench_build/sock";

  size_t vertices = 1024;
  uint32_t z = 64;
  uint32_t k = 4;
  double alpha = 0.35;
  double tau = 0.30;
  /// Closed-loop query threads of the in-process workloads.
  unsigned clients = 3;
  /// DTLP / CANDS build threads inside service Create.
  unsigned build_threads = 1;
  /// Service-created set-ups whose median is setup_s.
  unsigned setup_repeats = 5;
  /// Endpoint distance of the local workloads, in grid hops.
  size_t local_hops = 8;
  /// post-traffic-long: minimum hop distance between the endpoints, and
  /// the traffic batches / queries of one round. Short rounds spread the
  /// batches, whose latency is update_p50_ms, over the whole run.
  size_t long_min_hops = 30;
  size_t round_batches = 2;
  size_t round_queries = 6;
  /// post-traffic-local: the traffic batches / queries of one round.
  size_t local_round_batches = 1;
  size_t local_round_queries = 96;
  /// The round-based workloads do a fixed amount of work, not whatever
  /// fits in --seconds: one round per this many seconds of --seconds. A
  /// seed then always issues the same requests at the same epochs, so a
  /// defect that returns wrong answers fails the same requests on every
  /// run. Sized so a round takes about this long on a 4-core x86 host
  /// (post-traffic-long: 6 queries at ~4 qps; post-traffic-local: one batch
  /// and 96 queries at ~1000 qps; remote-batch: 96 requests at ~450 qps).
  double post_seconds_per_round = 1.5;
  double local_seconds_per_round = 0.1;
  double remote_seconds_per_round = 0.25;
  /// live-local: open-loop writer rate and the kShortestPath share.
  double writer_batches_per_s = 8;
  double shortest_path_share = 0.2;
  /// remote-batch: fleet shape and async batch pipeline.
  uint32_t shards = 2;
  unsigned remote_batch_threads = 2;
  size_t batch_size = 8;
  size_t batches_per_round = 12;
  size_t batches_in_flight = 3;
};

/// DTLP knobs every service and the standalone replay are built with.
kspdg::DtlpOptions DtlpOptionsFor(const Config& config);
/// Service-wide query defaults (k; everything else the library default).
kspdg::RoutingOptions RoutingDefaultsFor(const Config& config);

/// Rounds of a fixed-work pass of `seconds` (at least one).
size_t RoundsFor(double seconds, double seconds_per_round);

/// Parses argv; on error fills `error` and returns false.
bool ParseConfig(int argc, char** argv, Config* config, std::string* error);

/// Inputs of one run, all derived from the seed.
struct Inputs {
  Graph graph;  // pristine weights (epoch 0)
  /// Traffic batches in application order: batches[e - 1] moves a service
  /// from epoch e - 1 to epoch e.
  std::vector<std::vector<WeightUpdate>> batches;
  /// Requests in issue order; clients claim indices from a shared counter
  /// and wrap around the list.
  std::vector<RouteRequest> requests;
};

/// Loads NY-S scaled to config.vertices, draws `num_batches` traffic
/// batches (α, τ) and `num_requests` endpoints. `local` picks
/// MakeLocalQueries (config.local_hops apart) over uniform random pairs at
/// least config.long_min_hops apart;
/// `shortest_path_share` of the requests become kShortestPath.
Inputs MakeInputs(const Config& config, size_t num_batches,
                  size_t num_requests, bool local, double shortest_path_share);

/// One issued request and what came back.
struct Answer {
  size_t index = 0;  // position in Inputs::requests (after wrap-around)
  RouteRequest request;
  bool ok = false;
  std::string error;
  uint64_t epoch = 0;
  std::vector<Path> paths;
  /// Answered through SubmitBatch (latency is its batch's) rather than a
  /// synchronous Query.
  bool async = false;
  /// Perturbed by --inject-wrong-distance; the oracle must flag it.
  bool injected = false;
  double latency_ms = 0;  // timed from outside the service
  double solve_ms = 0;    // the response's own solve time
  kspdg::KspDgQueryStats engine;
};

/// One applied traffic batch as the harness saw it.
struct UpdateSample {
  uint64_t epoch = 0;        // epoch the batch moved the service to
  double latency_ms = 0;     // from due (open loop) or call (closed loop)
  double call_ms = 0;        // ApplyTrafficBatch call to return
  double lag_ms = 0;         // how late the call started after it was due
  double drain_ms = -1;      // writer reader-drain wait (traced runs only)
  double cands_ms = 0;       // CANDS rebuild inside the batch
};

// ---------------------------------------------------------------------------
// Tracing: spans with name, start, end and parent, kept in memory and
// written out at the end of the run. Untraced passes hold no Tracer at all
// (a null Tracer* turns every span into a no-op).
// ---------------------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // request id shared by one request's spans
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double ms() const { return (end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(Span span);
  /// Records a span whose start and end were taken by the caller (an async
  /// call that completes on another thread).
  void RecordInterval(const char* name, Clock::time_point start,
                      Clock::time_point end, uint64_t request);
  /// Spans recorded so far (call after every traced thread has joined).
  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ms) of every span with this name.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Per span of `name`: summed duration of its direct children named
  /// `child`.
  std::vector<double> ChildSumMs(const std::string& name,
                                 const std::string& child) const;
  /// Writes one JSON object per span; returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer. The parent is the innermost
/// open span on this thread; `request` defaults to the parent's. A null
/// tracer makes this a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  /// Duration so far, in ms (valid even without a tracer).
  double ElapsedMs() const { return MsSince(start_); }

 private:
  Tracer* tracer_;
  const Span* outer_ = nullptr;
  Span span_;
  Clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

/// Linear-interpolated percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

struct Metric {
  double value = 0;
  std::string unit;
  /// Samples behind the value (0 = a single measurement or a count).
  size_t samples = 0;
};
using MetricMap = std::map<std::string, Metric>;

/// Peak resident set (VmHWM) of `pid` in MiB, or -1 if unreadable
/// (pid 0 = this process).
double PeakRssMib(int pid = 0);

/// Sum of a histogram's `sum` over every label set (0 when absent).
double HistogramSum(const kspdg::MetricsSnapshot& snapshot,
                    const std::string& name);
/// queries_ok_total + queries_rejected_total: one event per issued request.
uint64_t QueriesAccounted(const kspdg::MetricsSnapshot& snapshot);

/// JSON string literal with escapes.
std::string JsonString(const std::string& s);
/// Full-precision JSON number.
std::string JsonNumber(double v);

/// Distances of `paths`, in order.
std::vector<double> Distances(const std::vector<Path>& paths);
/// "[d0, d1, ...]" for mismatch messages.
std::string FormatDistances(const std::vector<double>& distances);
bool SameRoutes(const std::vector<Path>& a, const std::vector<Path>& b);

}  // namespace kspbench

#endif  // KSPDG_BENCH_HARNESS_H_

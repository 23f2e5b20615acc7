#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/rng.h"
#include "graph/traffic_model.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"

namespace kspbench {

namespace {

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

/// Hop distance from `s` to `t` (BFS over the topology; UINT32_MAX if
/// unreachable).
uint32_t Hops(const Graph& g, kspdg::VertexId s, kspdg::VertexId t) {
  std::vector<uint32_t> hops(g.NumVertices(), UINT32_MAX);
  std::vector<kspdg::VertexId> frontier = {s};
  hops[s] = 0;
  for (size_t head = 0; head < frontier.size() && hops[t] == UINT32_MAX;
       ++head) {
    kspdg::VertexId u = frontier[head];
    for (const kspdg::Arc& a : g.Neighbors(u)) {
      if (hops[a.to] == UINT32_MAX) {
        hops[a.to] = hops[u] + 1;
        frontier.push_back(a.to);
      }
    }
  }
  return hops[t];
}

/// `count` uniform random endpoint pairs at least `min_hops` apart: the
/// uniform pairs of MakeRandomQueries, kept when long enough.
std::vector<std::pair<kspdg::VertexId, kspdg::VertexId>> LongQueries(
    const Graph& g, size_t count, size_t min_hops, uint64_t seed) {
  std::vector<std::pair<kspdg::VertexId, kspdg::VertexId>> out;
  for (uint64_t draw = 0; out.size() < count; ++draw) {
    for (const auto& pair :
         kspdg::MakeRandomQueries(g, count, seed + 1000003 * draw)) {
      uint32_t hops = Hops(g, pair.first, pair.second);
      if (hops != UINT32_MAX && hops >= min_hops) out.push_back(pair);
      if (out.size() == count) break;
    }
  }
  return out;
}

}  // namespace

bool ParseConfig(int argc, char** argv, Config* config, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) {
        *error = flag + " needs a value";
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string v;
    uint64_t n = 0;
    if (flag == "--workload") {
      if (!value(&config->workload)) return false;
    } else if (flag == "--seed") {
      if (!value(&v) || !ParseUnsigned(v, &config->seed)) {
        *error = "--seed needs a whole number";
        return false;
      }
    } else if (flag == "--seconds") {
      if (!value(&v) || !ParseUnsigned(v, &n) || n == 0 || n > 600) {
        *error = "--seconds needs a whole number in [1, 600]";
        return false;
      }
      config->seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!value(&v) || (v != "0" && v != "1")) {
        *error = "--trace needs 0 or 1";
        return false;
      }
      config->trace = v == "1";
    } else if (flag == "--trace-out") {
      if (!value(&config->trace_out)) return false;
    } else if (flag == "--tiny") {
      config->tiny = true;
    } else if (flag == "--inject-wrong-distance") {
      config->inject_wrong_distance = true;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (config->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  if (config->tiny) {
    config->vertices = 196;
    config->z = 24;
    config->setup_repeats = 2;
    config->round_queries = 3;
    config->post_seconds_per_round = 0.25;
    config->local_round_queries = 24;
    config->long_min_hops = 12;
    config->local_hops = 5;
    config->batches_per_round = 3;
  }
  return true;
}

size_t RoundsFor(double seconds, double seconds_per_round) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds / seconds_per_round)));
}

kspdg::DtlpOptions DtlpOptionsFor(const Config& config) {
  kspdg::DtlpOptions options;
  options.partition.max_vertices = config.z;
  options.build_threads = config.build_threads;
  return options;
}

kspdg::RoutingOptions RoutingDefaultsFor(const Config& config) {
  kspdg::RoutingOptions options;
  options.k = config.k;
  return options;
}

Inputs MakeInputs(const Config& config, size_t num_batches,
                  size_t num_requests, bool local,
                  double shortest_path_share) {
  Inputs inputs;
  inputs.graph = kspdg::LoadScaledDataset(kspdg::DatasetByName("NY-S"),
                                          config.vertices);
  kspdg::TrafficModelOptions traffic;
  traffic.alpha = config.alpha;
  traffic.tau = config.tau;
  traffic.seed = config.seed * 2 + 1;
  kspdg::TrafficModel model(inputs.graph, traffic);
  inputs.batches.reserve(num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    inputs.batches.push_back(model.NextBatch());
  }
  const uint64_t query_seed = config.seed * 2 + 2;
  std::vector<std::pair<kspdg::VertexId, kspdg::VertexId>> endpoints =
      local ? kspdg::MakeLocalQueries(inputs.graph, num_requests,
                                      config.local_hops, query_seed)
            : LongQueries(inputs.graph, num_requests, config.long_min_hops,
                          query_seed);
  kspdg::Rng kind_rng(config.seed * 2 + 3);
  inputs.requests.reserve(endpoints.size());
  for (const auto& [s, t] : endpoints) {
    RouteRequest request;
    request.source = s;
    request.target = t;
    request.options.k = config.k;
    if (kind_rng.NextDouble() < shortest_path_share) {
      request.kind = kspdg::QueryKind::kShortestPath;
      request.options.k.reset();
    }
    inputs.requests.push_back(std::move(request));
  }
  return inputs;
}

// --- Tracing ----------------------------------------------------------------

namespace {
/// Innermost open span on this thread (the parent of the next one).
thread_local const Span* tls_open_span = nullptr;

int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
}  // namespace

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> guard(mu_);
  spans_.push_back(std::move(span));
}

void Tracer::RecordInterval(const char* name, Clock::time_point start,
                            Clock::time_point end, uint64_t request) {
  Span span;
  span.id = NextId();
  span.request = request;
  span.name = name;
  span.start_ns = ToNs(start);
  span.end_ns = ToNs(end);
  Record(std::move(span));
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.ms());
  }
  return out;
}

std::vector<double> Tracer::ChildSumMs(const std::string& name,
                                       const std::string& child) const {
  std::map<uint64_t, double> sums;
  for (const Span& span : spans_) {
    if (span.name == name) sums.emplace(span.id, 0.0);
  }
  for (const Span& span : spans_) {
    auto it = sums.find(span.parent);
    if (it != sums.end() && span.name == child) {
      it->second += span.ms();
    }
  }
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(sums[span.id]);
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& span : spans_) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request
        << ",\"name\":" << JsonString(span.name)
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer), start_(Clock::now()) {
  if (tracer_ == nullptr) return;
  outer_ = tls_open_span;
  span_.id = tracer_->NextId();
  span_.parent = outer_ != nullptr ? outer_->id : 0;
  span_.request =
      request != 0 || outer_ == nullptr ? request : outer_->request;
  span_.name = name;
  span_.start_ns = ToNs(start_);
  tls_open_span = &span_;
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = ToNs(Clock::now());
  tls_open_span = outer_;
  tracer_->Record(std::move(span_));
}

// --- Reporting --------------------------------------------------------------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMib(int pid) {
  std::string path = pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return -1;
}

double HistogramSum(const kspdg::MetricsSnapshot& snapshot,
                    const std::string& name) {
  double sum = 0;
  for (const kspdg::HistogramSample& h : snapshot.histograms) {
    if (h.name == name) sum += h.sum;
  }
  return sum;
}

uint64_t QueriesAccounted(const kspdg::MetricsSnapshot& snapshot) {
  return snapshot.CounterTotal("queries_ok_total") +
         snapshot.CounterTotal("queries_rejected_total");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<double> Distances(const std::vector<Path>& paths) {
  std::vector<double> out;
  out.reserve(paths.size());
  for (const Path& p : paths) out.push_back(p.distance);
  return out;
}

std::string FormatDistances(const std::vector<double>& distances) {
  std::string out = "[";
  for (size_t i = 0; i < distances.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.6f", i == 0 ? "" : ", ",
                  distances[i]);
    out += buf;
  }
  return out + "]";
}

bool SameRoutes(const std::vector<Path>& a, const std::vector<Path>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].vertices != b[i].vertices) return false;
    if (std::fabs(a[i].distance - b[i].distance) > 1e-9) return false;
  }
  return true;
}

}  // namespace kspbench

// kspdg_bench: drive RoutingService with a mixed query/update workload
// against a registry dataset and emit BENCH_*-style JSON.
//
// Usage: kspdg_bench [--FLAG VALUE ...] [--out FILE] [--metrics-out FILE]
//
// Every flag, phase and JSON field is described once, in
// docs/BENCHMARKING.md. A malformed number exits 2 with
// "invalid value for --FLAG: 'TOKEN'".
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/strings.h"
#include "workload/bench_runner.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--dataset NAME] [--vertices N] [--k K] "
               "[--queries N] [--batches N] [--threads N] [--alpha F] "
               "[--tau F] [--z N] [--seed N] [--backends a,b,c] "
               "[--batch-size N] [--batch-threads N] [--shards N] "
               "[--remote-shards N] [--replicas R] [--worker-binary PATH] "
               "[--diverse] [--diverse-theta F] [--diverse-overfetch N] "
               "[--overload-factor F] [--out FILE] [--metrics-out FILE]\n",
               argv0);
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  kspdg::BenchOptions options;
  std::string out_file;
  std::string metrics_out_file;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto number = [&](auto& field) {
      using T = std::remove_reference_t<decltype(field)>;
      field = kspdg::ParseNumber<T>(arg, next());
    };
    if (arg == "--dataset") {
      options.dataset = next();
    } else if (arg == "--vertices") {
      number(options.target_vertices);
    } else if (arg == "--k") {
      number(options.k);
    } else if (arg == "--queries") {
      number(options.queries_per_backend);
    } else if (arg == "--batches") {
      number(options.num_batches);
    } else if (arg == "--threads") {
      number(options.query_threads);
    } else if (arg == "--alpha") {
      number(options.alpha);
    } else if (arg == "--tau") {
      number(options.tau);
    } else if (arg == "--z") {
      number(options.z);
    } else if (arg == "--seed") {
      number(options.seed);
    } else if (arg == "--backends") {
      options.backends = SplitCsv(next());
    } else if (arg == "--batch-size") {
      number(options.batch_size);
    } else if (arg == "--batch-threads") {
      number(options.batch_threads);
    } else if (arg == "--shards") {
      number(options.shards);
    } else if (arg == "--remote-shards") {
      number(options.remote_shards);
    } else if (arg == "--replicas") {
      number(options.replicas);
    } else if (arg == "--worker-binary") {
      options.worker_binary = next();
    } else if (arg == "--diverse") {
      options.diverse = true;
    } else if (arg == "--diverse-theta") {
      number(options.diverse_theta);
    } else if (arg == "--diverse-overfetch") {
      number(options.diverse_overfetch);
    } else if (arg == "--overload-factor") {
      number(options.overload_factor);
    } else if (arg == "--out") {
      out_file = next();
    } else if (arg == "--metrics-out") {
      metrics_out_file = next();
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  kspdg::Result<kspdg::BenchReport> report =
      kspdg::RunMixedBench(options);
  if (!report.ok()) {
    std::fprintf(stderr, "bench failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::string json = report.value().ToJson();
  if (out_file.empty()) {
    std::cout << json;
  } else {
    std::ofstream out(out_file);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_file.c_str());
      return 1;
    }
    out << json;
    std::fprintf(stderr, "wrote %s\n", out_file.c_str());
  }
  if (!metrics_out_file.empty()) {
    std::ofstream out(metrics_out_file);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out_file.c_str());
      return 1;
    }
    out << report.value().metrics_export;
    std::fprintf(stderr, "wrote %s\n", metrics_out_file.c_str());
  }
  return 0;
}

#include "workloads.h"

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "api/routing_service.h"
#include "remote/remote_sharded_routing_service.h"
#include "replay.h"

#ifndef KSPDG_BENCH_BUILD_TYPE
#define KSPDG_BENCH_BUILD_TYPE "unknown"
#endif

namespace kspbench {

namespace {

using kspdg::RemoteShardedRoutingService;
using kspdg::RoutingService;
using kspdg::RoutingServiceInterface;

/// Everything one pass of a workload measured.
struct Pass {
  std::vector<Answer> answers;
  std::vector<UpdateSample> updates;
  std::vector<double> setup_s;
  /// Per request (sync Query) or per batch (SubmitBatch), timed outside.
  std::vector<double> latency_ms;
  /// Sum of the query phases; the denominator of qps.
  double query_phase_s = 0;
  double rss_peak_mib = 0;
  uint64_t final_epoch = 0;
  /// Requests the harness issued vs. queries_ok + queries_rejected.
  uint64_t issued = 0;
  uint64_t accounted = 0;
  size_t subgraphs = 0;
  /// Serving-layer metrics a traced pass measures (core, remote, rpc,
  /// shard).
  MetricMap layers;
  std::vector<std::string> problems;
};

size_t OkCount(const std::vector<Answer>& answers) {
  return static_cast<size_t>(std::count_if(
      answers.begin(), answers.end(), [](const Answer& a) { return a.ok; }));
}

kspdg::RoutingServiceOptions LocalOptions(const Config& config,
                                          unsigned batch_threads) {
  kspdg::RoutingServiceOptions options;
  options.defaults = RoutingDefaultsFor(config);
  options.dtlp = DtlpOptionsFor(config);
  options.batch_threads = batch_threads;
  return options;
}

kspdg::RemoteShardedRoutingServiceOptions FleetOptions(const Config& config) {
  kspdg::RemoteShardedRoutingServiceOptions options;
  options.defaults = RoutingDefaultsFor(config);
  options.dtlp = DtlpOptionsFor(config);
  options.num_shards = config.shards;
  options.num_replicas = 1;
  options.batch_threads = config.remote_batch_threads;
  options.remote.socket_dir = config.socket_dir;
  return options;
}

/// Creates the service `repeats` times from copies of `graph` (destroying
/// the previous one first), timing each Create; keeps the last.
template <typename Service, typename CreateFn>
std::unique_ptr<Service> SetUp(const Graph& graph, unsigned repeats,
                               CreateFn create, Tracer* tracer, Pass* pass) {
  std::unique_ptr<Service> service;
  for (unsigned r = 0; r < repeats; ++r) {
    service.reset();
    Graph copy = graph;
    ScopedSpan span(tracer, "api.Create");
    kspdg::Result<std::unique_ptr<Service>> created = create(std::move(copy));
    pass->setup_s.push_back(span.ElapsedMs() / 1000.0);
    if (!created.ok()) {
      pass->problems.push_back("service Create failed: " +
                               created.status().ToString());
      return nullptr;
    }
    service = std::move(created).value();
  }
  pass->subgraphs = service->dtlp().NumSubgraphs();
  return service;
}

void FillAnswer(const kspdg::RouteResponse& response, Answer* answer) {
  answer->ok = true;
  answer->epoch = response.epoch;
  answer->paths = response.paths;
  answer->solve_ms = response.stats.solve_micros / 1000.0;
  answer->engine = response.stats.engine;
}

Answer SyncQuery(const RoutingServiceInterface& service, const Inputs& inputs,
                 size_t index, Tracer* tracer) {
  Answer answer;
  answer.index = index;
  answer.request = inputs.requests[index % inputs.requests.size()];
  Clock::time_point start = Clock::now();
  kspdg::Result<kspdg::RouteResponse> response = [&] {
    ScopedSpan span(tracer, "api.Query", index + 1);
    return service.Query(answer.request);
  }();
  answer.latency_ms = MsSince(start);
  if (response.ok()) {
    FillAnswer(response.value(), &answer);
  } else {
    answer.error = response.status().ToString();
  }
  return answer;
}

/// Applies one traffic batch. `due` is when the batch should have started;
/// open-loop batches are timed from it, closed-loop ones from the call.
/// Traced passes also read the writer's reader-drain wait from Metrics().
UpdateSample ApplyBatch(RoutingServiceInterface& service,
                        const std::vector<WeightUpdate>& batch,
                        Clock::time_point due, bool open_loop, Tracer* tracer,
                        Pass* pass) {
  UpdateSample sample;
  const char* kDrain = "epoch_writer_wait_micros";
  double drain_before =
      tracer != nullptr ? HistogramSum(service.Metrics(), kDrain) : 0;
  Clock::time_point start = Clock::now();
  kspdg::Result<kspdg::TrafficBatchResult> result = [&] {
    ScopedSpan span(tracer, "api.ApplyTrafficBatch");
    return service.ApplyTrafficBatch(batch);
  }();
  Clock::time_point end = Clock::now();
  sample.lag_ms = MsBetween(due, start);
  sample.call_ms = MsBetween(start, end);
  sample.latency_ms = open_loop ? MsBetween(due, end) : sample.call_ms;
  if (tracer != nullptr) {
    sample.drain_ms =
        (HistogramSum(service.Metrics(), kDrain) - drain_before) / 1000.0;
  }
  if (!result.ok()) {
    pass->problems.push_back("ApplyTrafficBatch failed: " +
                             result.status().ToString());
    return sample;
  }
  sample.epoch = result.value().epoch;
  sample.cands_ms = result.value().cands_micros / 1000.0;
  return sample;
}

/// `clients` closed-loop threads: each claims the next request index from
/// `next` while `more(index)` holds and answers it with a sync Query.
void RunClients(const RoutingServiceInterface& service, const Inputs& inputs,
                unsigned clients, std::atomic<size_t>* next,
                const std::function<bool(size_t)>& more, Tracer* tracer,
                std::vector<Answer>* out) {
  std::vector<std::vector<Answer>> per_client(clients);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = next->fetch_add(1); more(i); i = next->fetch_add(1)) {
        per_client[c].push_back(SyncQuery(service, inputs, i, tracer));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::vector<Answer>& answers : per_client) {
    out->insert(out->end(), std::make_move_iterator(answers.begin()),
                std::make_move_iterator(answers.end()));
  }
}

void FinishPass(const RoutingServiceInterface& service, Pass* pass) {
  pass->issued = pass->answers.size();
  pass->accounted = QueriesAccounted(service.Metrics());
  if (pass->latency_ms.empty()) {
    for (const Answer& a : pass->answers) pass->latency_ms.push_back(a.latency_ms);
  }
  if (!pass->updates.empty()) pass->final_epoch = pass->updates.back().epoch;
}

// --- post-traffic-long, post-traffic-local ----------------------------------

/// Shape of a round-based pass: `rounds` rounds of `batches` traffic
/// batches with no reader running, then `queries` requests.
struct Rounds {
  size_t batches = 0;
  size_t queries = 0;
  size_t rounds = 0;
};

/// post-traffic-long, the paper's workload (§6: KSP queries on a graph whose
/// weights have already moved), and post-traffic-local. Each round applies
/// its traffic batches with no reader running, then answers its requests
/// from config.clients closed-loop clients.
///
/// post-traffic-long asks k=4 queries between random endpoints at least
/// config.long_min_hops apart. Algorithms 3/4 (reference-path enumeration,
/// subgraph partials, join) do nearly all the work; the lock and update
/// paths do almost nothing. Long routes put the run's median in the
/// expensive mode of the post-traffic cost distribution: over random pairs
/// of any length the median sits where that distribution is steepest and
/// moves by ~30 % between seeds.
///
/// post-traffic-local asks live-local's requests (local endpoints, 80 %
/// kKsp k=4, 20 % kShortestPath on CANDS), one batch per round. KSP-DG
/// needs few iterations, so the overlay, CANDS and the per-batch
/// Algorithm 2 and CANDS rebuild dominate: it catches a query-side gain
/// paid for on the write path, as live-local does, but with the batches
/// between rounds rather than racing the readers.
///
/// Rounds are fixed-size and their number is fixed, so a seed always
/// answers the same requests at the same epochs.
Pass PostTrafficPass(const Config& config, const Inputs& inputs,
                     Tracer* tracer, const Rounds& shape) {
  Pass pass;
  auto service = SetUp<RoutingService>(
      inputs.graph, config.setup_repeats,
      [&](Graph g) {
        return RoutingService::Create(std::move(g), LocalOptions(config, 1));
      },
      tracer, &pass);
  if (service == nullptr) return pass;
  Clock::time_point due = Clock::now();
  size_t begin = 0;
  for (size_t r = 0, b = 0;
       r < shape.rounds && b + shape.batches <= inputs.batches.size(); ++r) {
    for (size_t i = 0; i < shape.batches; ++i, ++b) {
      pass.updates.push_back(ApplyBatch(*service, inputs.batches[b], due,
                                        /*open_loop=*/false, tracer, &pass));
      due = Clock::now();
    }
    if (!pass.problems.empty()) break;
    const size_t end = begin + shape.queries;
    std::atomic<size_t> next{begin};
    Clock::time_point round = Clock::now();
    RunClients(*service, inputs, config.clients, &next,
               [end](size_t i) { return i < end; }, tracer, &pass.answers);
    pass.query_phase_s += MsSince(round) / 1000.0;
    begin = end;
    due = Clock::now();
  }
  pass.rss_peak_mib = PeakRssMib();
  FinishPass(*service, &pass);
  return pass;
}

// --- live-local --------------------------------------------------------------

/// live-local: navigation under streaming traffic. config.clients
/// closed-loop readers over local requests (80 % kKsp k=4, 20 %
/// kShortestPath on CANDS) while one writer applies traffic batches
/// open-loop at config.writer_batches_per_s. KSP-DG needs only a few
/// iterations per query here, so the reader drain, Algorithm 2, the CANDS
/// rebuild and the read-pin wait dominate: the workload that catches a
/// query-side gain paid for on the write path.
Pass LiveLocalPass(const Config& config, const Inputs& inputs, Tracer* tracer,
                   double seconds) {
  Pass pass;
  auto service = SetUp<RoutingService>(
      inputs.graph, config.setup_repeats,
      [&](Graph g) {
        return RoutingService::Create(std::move(g), LocalOptions(config, 1));
      },
      tracer, &pass);
  if (service == nullptr) return pass;
  const Clock::time_point phase = Clock::now();
  const Clock::time_point deadline =
      phase + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  Pass writer_pass;
  std::thread writer([&] {
    for (size_t b = 0; b < inputs.batches.size(); ++b) {
      Clock::time_point due =
          phase + std::chrono::microseconds(static_cast<int64_t>(
                      1e6 * static_cast<double>(b) /
                      config.writer_batches_per_s));
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      writer_pass.updates.push_back(ApplyBatch(
          *service, inputs.batches[b], due, /*open_loop=*/true, tracer,
          &writer_pass));
      if (!writer_pass.problems.empty()) break;
    }
  });
  std::atomic<size_t> next{0};
  RunClients(*service, inputs, config.clients, &next,
             [deadline](size_t) { return Clock::now() < deadline; }, tracer,
             &pass.answers);
  pass.query_phase_s = MsSince(phase) / 1000.0;
  writer.join();
  pass.updates = std::move(writer_pass.updates);
  pass.problems.insert(pass.problems.end(), writer_pass.problems.begin(),
                       writer_pass.problems.end());
  pass.rss_peak_mib = PeakRssMib();
  FinishPass(*service, &pass);
  return pass;
}

// --- remote-batch ------------------------------------------------------------

/// Completion times of a round's async batches, stamped by the SubmitBatch
/// callbacks on the submission worker thread.
class ReadyClock {
 public:
  explicit ReadyClock(size_t n) : ready_(n), done_(n, 0) {}
  void Mark(size_t i) {
    std::lock_guard<std::mutex> guard(mu_);
    ready_[i] = Clock::now();
    done_[i] = 1;
    cv_.notify_all();  // under the lock: the waiter may destroy *this next
  }
  Clock::time_point WaitFor(size_t i) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_[i] != 0; });
    return ready_[i];
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Clock::time_point> ready_;
  std::vector<char> done_;
};

/// One round of async batches: config.batches_per_round batches of
/// config.batch_size requests starting at request `begin`, at most
/// config.batches_in_flight unfinished at a time. Each batch is timed from
/// SubmitBatch to ticket ready.
struct RoundResult {
  std::vector<double> latency_ms;
  std::vector<double> queue_wait_ms;  // ready - submit - batch_micros
  std::vector<Answer> answers;
};

RoundResult SubmitRound(const RoutingServiceInterface& service,
                        const Inputs& inputs, const Config& config,
                        size_t begin, Tracer* tracer) {
  RoundResult round;
  const size_t n = config.batches_per_round;
  ReadyClock ready(n);
  std::vector<kspdg::BatchTicket> tickets(n);
  std::vector<Clock::time_point> submitted(n);
  for (size_t j = 0; j < n; ++j) {
    if (j >= config.batches_in_flight) {
      ready.WaitFor(j - config.batches_in_flight);
    }
    std::vector<RouteRequest> requests;
    for (size_t q = 0; q < config.batch_size; ++q) {
      requests.push_back(
          inputs.requests[(begin + j * config.batch_size + q) %
                          inputs.requests.size()]);
    }
    submitted[j] = Clock::now();
    tickets[j] = service.SubmitBatch(
        std::move(requests),
        [&ready, j](const kspdg::Result<kspdg::RouteBatchResponse>&) {
          ready.Mark(j);
        });
  }
  for (size_t j = 0; j < n; ++j) {
    Clock::time_point done = ready.WaitFor(j);
    const kspdg::Result<kspdg::RouteBatchResponse>& result = tickets[j].Wait();
    double latency = MsBetween(submitted[j], done);
    if (tracer != nullptr) {
      tracer->RecordInterval("core.SubmitBatch", submitted[j], done,
                             begin + j * config.batch_size + 1);
    }
    round.latency_ms.push_back(latency);
    for (size_t q = 0; q < config.batch_size; ++q) {
      Answer answer;
      answer.index = begin + j * config.batch_size + q;
      answer.request = inputs.requests[answer.index % inputs.requests.size()];
      answer.async = true;
      answer.latency_ms = latency;
      if (!result.ok()) {
        answer.error = result.status().ToString();
      } else if (!result.value().items[q].status.ok()) {
        answer.error = result.value().items[q].status.ToString();
      } else {
        FillAnswer(result.value().items[q].response, &answer);
      }
      round.answers.push_back(std::move(answer));
    }
    if (result.ok()) {
      round.queue_wait_ms.push_back(latency -
                                    result.value().batch_micros / 1000.0);
    }
  }
  return round;
}

/// Fleet counters the traced pass turns into per-layer ratios.
struct FleetCounters {
  uint64_t rpc_calls = 0;
  uint64_t rpc_retries = 0;
  uint64_t cache_hits = 0;
  uint64_t worker_partials = 0;
  uint64_t direct = 0;
  uint64_t scattered = 0;

  static FleetCounters Read(const RemoteShardedRoutingService& fleet) {
    FleetCounters c;
    kspdg::RemoteServiceCounters counters = fleet.counters();
    c.rpc_calls = counters.rpc_calls;
    c.rpc_retries = counters.rpc_retries;
    c.cache_hits = counters.sharded.partial_cache_hits;
    c.direct = counters.sharded.direct_partial_requests;
    c.scattered = counters.sharded.scattered_partial_requests;
    for (const kspdg::RemoteWorkerInfo& w : fleet.WorkerInfos()) {
      c.worker_partials += w.partial_requests;
    }
    return c;
  }
  void Add(const FleetCounters& after, const FleetCounters& before) {
    rpc_calls += after.rpc_calls - before.rpc_calls;
    rpc_retries += after.rpc_retries - before.rpc_retries;
    cache_hits += after.cache_hits - before.cache_hits;
    worker_partials += after.worker_partials - before.worker_partials;
    direct += after.direct - before.direct;
    scattered += after.scattered - before.scattered;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// remote-batch: the only workload through rpc, remote, shard, the
/// submission queue and the partial caches. Rounds of: one traffic batch
/// through the fleet's two-phase commit, then one round of async batches of
/// local k=4 requests. A traced pass also runs the same batches on an
/// in-process twin (remote.overhead_ms, plus an answer-identity check) and
/// answers the round's first batch with sync Query (api.pin_wait_ms).
/// `rounds` is fixed, so a seed always answers the same requests at the
/// same epochs.
Pass FleetPass(const Config& config, const Inputs& inputs, Tracer* tracer,
               size_t rounds, unsigned setup_repeats) {
  Pass pass;
  std::error_code ec;
  std::filesystem::create_directories(config.socket_dir, ec);
  auto fleet = SetUp<RemoteShardedRoutingService>(
      inputs.graph, setup_repeats,
      [&](Graph g) {
        return RemoteShardedRoutingService::Create(std::move(g),
                                                   FleetOptions(config));
      },
      tracer, &pass);
  if (fleet == nullptr) return pass;
  std::unique_ptr<RoutingService> twin;
  if (tracer != nullptr) {
    auto created = RoutingService::Create(
        inputs.graph, LocalOptions(config, config.remote_batch_threads));
    if (!created.ok()) {
      pass.problems.push_back("twin Create failed: " +
                              created.status().ToString());
      return pass;
    }
    twin = std::move(created).value();
  }
  const uint64_t blocked_before =
      tracer != nullptr ? fleet->Metrics().CounterTotal(
                              "submission_queue_enqueue_blocked_total")
                        : 0;
  FleetCounters counted;
  std::vector<double> queue_wait, overhead;
  size_t twin_mismatches = 0;
  size_t round_queries = 0;
  Clock::time_point due = Clock::now();
  size_t begin = 0;
  const size_t per_round = config.batches_per_round * config.batch_size;
  for (size_t r = 0; r < std::min(rounds, inputs.batches.size()); ++r) {
    const std::vector<WeightUpdate>& batch = inputs.batches[r];
    pass.updates.push_back(
        ApplyBatch(*fleet, batch, due, /*open_loop=*/false, tracer, &pass));
    if (twin != nullptr && !twin->ApplyTrafficBatch(batch).ok()) {
      pass.problems.push_back("twin ApplyTrafficBatch failed");
    }
    if (!pass.problems.empty()) break;
    FleetCounters before;
    if (tracer != nullptr) before = FleetCounters::Read(*fleet);
    Clock::time_point round_start = Clock::now();
    RoundResult round = SubmitRound(*fleet, inputs, config, begin, tracer);
    pass.query_phase_s += MsSince(round_start) / 1000.0;
    if (tracer != nullptr) {
      counted.Add(FleetCounters::Read(*fleet), before);
      round_queries += per_round;
      RoundResult local = SubmitRound(*twin, inputs, config, begin, nullptr);
      for (size_t j = 0; j < round.latency_ms.size(); ++j) {
        overhead.push_back(round.latency_ms[j] - local.latency_ms[j]);
      }
      for (size_t q = 0; q < round.answers.size(); ++q) {
        if (round.answers[q].ok && local.answers[q].ok &&
            !SameRoutes(round.answers[q].paths, local.answers[q].paths)) {
          ++twin_mismatches;
        }
      }
      for (size_t q = 0; q < config.batch_size; ++q) {
        pass.answers.push_back(SyncQuery(*fleet, inputs, begin + q, tracer));
      }
    }
    pass.latency_ms.insert(pass.latency_ms.end(), round.latency_ms.begin(),
                           round.latency_ms.end());
    queue_wait.insert(queue_wait.end(), round.queue_wait_ms.begin(),
                      round.queue_wait_ms.end());
    pass.answers.insert(pass.answers.end(),
                        std::make_move_iterator(round.answers.begin()),
                        std::make_move_iterator(round.answers.end()));
    begin += per_round;
    due = Clock::now();
  }
  pass.rss_peak_mib = PeakRssMib();
  for (const kspdg::RemoteWorkerInfo& w : fleet->WorkerInfos()) {
    double worker = PeakRssMib(w.pid);
    if (worker > 0) pass.rss_peak_mib += worker;
  }
  FinishPass(*fleet, &pass);
  if (tracer != nullptr) {
    if (twin_mismatches > 0) {
      pass.problems.push_back(std::to_string(twin_mismatches) +
                              " remote answers differ from the in-process "
                              "twin's at the same epoch");
    }
    MetricMap& m = pass.layers;
    m["core.queue_wait_ms"] = Metric{Median(queue_wait), "ms", queue_wait.size()};
    m["core.enqueue_blocked"] = Metric{
        static_cast<double>(fleet->Metrics().CounterTotal(
                                "submission_queue_enqueue_blocked_total") -
                            blocked_before),
        "count", 0};
    m["remote.overhead_ms"] = Metric{Median(overhead), "ms", overhead.size()};
    std::vector<double> update_ms;
    for (const UpdateSample& u : pass.updates) update_ms.push_back(u.call_ms);
    m["remote.update_ms"] = Metric{Median(update_ms), "ms", update_ms.size()};
    m["rpc.calls_per_query"] =
        Metric{Ratio(static_cast<double>(counted.rpc_calls),
                     static_cast<double>(round_queries)),
               "count", round_queries};
    m["rpc.retries"] =
        Metric{static_cast<double>(counted.rpc_retries), "count", 0};
    m["shard.partial_cache_hit_ratio"] = Metric{
        Ratio(static_cast<double>(counted.cache_hits),
              static_cast<double>(counted.cache_hits + counted.worker_partials)),
        "ratio", counted.cache_hits + counted.worker_partials};
    m["shard.scattered_share"] =
        Metric{Ratio(static_cast<double>(counted.scattered),
                     static_cast<double>(counted.direct + counted.scattered)),
               "ratio", counted.direct + counted.scattered};
  }
  return pass;
}

// --- Summaries ---------------------------------------------------------------

struct Checked {
  Pass pass;
  OracleReport oracle;
  size_t errors = 0;
};

/// Oracle-checks a pass and folds its outcome into `out`.
Checked Check(const Config& config, const Inputs& inputs, Pass pass,
              Tracer* tracer, MetricMap* layers, const char* label,
              RunOutcome* out) {
  Checked checked;
  if (config.inject_wrong_distance) {
    for (Answer& a : pass.answers) {
      if (a.ok && !a.paths.empty()) {
        a.paths.front().distance += 1.0;
        a.injected = true;
        break;
      }
    }
  }
  checked.oracle =
      ReplayEpochs(config, inputs, pass.answers, pass.final_epoch, tracer,
                   layers);
  checked.errors = pass.answers.size() - OkCount(pass.answers);
  for (const Answer& a : pass.answers) {
    if (!a.ok) {
      std::fprintf(stderr, "%s: request s=%u t=%u failed: %s\n", label,
                   a.request.source, a.request.target, a.error.c_str());
      break;
    }
  }
  for (const std::string& p : pass.problems) {
    out->problems.push_back(std::string(label) + ": " + p);
  }
  if (pass.issued != pass.accounted) {
    out->problems.push_back(
        std::string(label) + ": accounting mismatch: harness issued " +
        std::to_string(pass.issued) + " requests, service counted " +
        std::to_string(pass.accounted));
  }
  if (checked.oracle.unreplayed > 0) {
    out->problems.push_back(std::string(label) + ": " +
                            std::to_string(checked.oracle.unreplayed) +
                            " answers at epochs the oracle never reached");
  }
  if (checked.oracle.replay_mismatches > 0) {
    out->problems.push_back(
        std::string(label) + ": " +
        std::to_string(checked.oracle.replay_mismatches) +
        " standalone KSP-DG replays differ from the service's answers");
  }
  out->attempted += pass.answers.size();
  out->failed += checked.errors + checked.oracle.mismatches;
  checked.pass = std::move(pass);
  return checked;
}

double Qps(const Pass& pass) {
  return pass.query_phase_s > 0
             ? static_cast<double>(OkCount(pass.answers)) / pass.query_phase_s
             : 0.0;
}

void EndToEnd(const Checked& c, RunOutcome* out) {
  const Pass& p = c.pass;
  MetricMap& m = out->metrics;
  std::vector<double> update_ms;
  for (const UpdateSample& u : p.updates) update_ms.push_back(u.latency_ms);
  m["setup_s"] = Metric{Median(p.setup_s), "s", p.setup_s.size()};
  m["qps"] = Metric{Qps(p), "1/s", OkCount(p.answers)};
  m["query_p50_ms"] =
      Metric{Percentile(p.latency_ms, 0.5), "ms", p.latency_ms.size()};
  m["query_p90_ms"] =
      Metric{Percentile(p.latency_ms, 0.9), "ms", p.latency_ms.size()};
  m["update_p50_ms"] =
      Metric{Percentile(update_ms, 0.5), "ms", update_ms.size()};
  m["rss_peak_mib"] = Metric{p.rss_peak_mib, "MiB", 0};
  // Percentiles reported only where at least ten samples lie beyond them.
  if (p.latency_ms.size() >= 1000) {
    out->extra["query_p99_ms"] =
        Metric{Percentile(p.latency_ms, 0.99), "ms", p.latency_ms.size()};
  }
  if (update_ms.size() >= 100) {
    out->extra["update_p90_ms"] =
        Metric{Percentile(update_ms, 0.9), "ms", update_ms.size()};
  }
}

void Breakdown(const Config& config, const Checked& c, RunOutcome* out) {
  const double attempted = static_cast<double>(c.pass.answers.size());
  out->extra["failed_ratio"] =
      Metric{Ratio(static_cast<double>(c.errors + c.oracle.mismatches),
                   attempted),
             "ratio", c.pass.answers.size()};
  out->extra["oracle.checked"] =
      Metric{static_cast<double>(c.oracle.checked), "count", 0};
  out->extra["oracle.mismatches"] =
      Metric{static_cast<double>(c.oracle.mismatches), "count", 0};
  if (config.inject_wrong_distance) {
    out->extra["oracle.injected_caught"] =
        Metric{static_cast<double>(c.oracle.injected_caught), "count", 0};
  }
  out->extra["errors"] = Metric{static_cast<double>(c.errors), "count", 0};
  out->extra["accounting.issued"] =
      Metric{static_cast<double>(c.pass.issued), "count", 0};
  out->extra["accounting.counted"] =
      Metric{static_cast<double>(c.pass.accounted), "count", 0};
  size_t cap_hits = 0;
  for (const Answer& a : c.pass.answers) {
    if (a.ok && a.request.kind == kspdg::QueryKind::kKsp &&
        a.engine.iterations >= kspdg::RoutingOptions{}.max_iterations) {
      ++cap_hits;
    }
  }
  out->extra["kspdg.cap_hits"] =
      Metric{static_cast<double>(cap_hits), "count", 0};
}

/// Serving-layer metrics of a traced pass: API pin and drain waits, the
/// remainder of the update path, and how late the writer ran.
void ServingLayers(const Pass& p, const OracleReport& oracle, MetricMap* m) {
  std::vector<double> pin_wait, drain, other, lag;
  for (const Answer& a : p.answers) {
    if (a.ok && !a.async) pin_wait.push_back(a.latency_ms - a.solve_ms);
  }
  for (const UpdateSample& u : p.updates) {
    lag.push_back(u.lag_ms);
    if (u.drain_ms < 0) continue;
    drain.push_back(u.drain_ms);
    if (u.epoch >= 1 && u.epoch <= oracle.dtlp_update_ms.size()) {
      other.push_back(u.call_ms - u.drain_ms - u.cands_ms -
                      oracle.dtlp_update_ms[u.epoch - 1]);
    }
  }
  (*m)["api.pin_wait_ms"] = Metric{Median(pin_wait), "ms", pin_wait.size()};
  (*m)["api.writer_drain_ms"] = Metric{Median(drain), "ms", drain.size()};
  (*m)["api.update_other_ms"] = Metric{Median(other), "ms", other.size()};
  (*m)["workload.writer_lag_ms"] = Metric{Median(lag), "ms", lag.size()};
}

/// Traced answers must equal untraced answers wherever both passes answered
/// the same request at the same epoch. Returns the number compared.
size_t CompareTracedAnswers(const Pass& untraced, const Pass& traced,
                            size_t* differ) {
  std::map<std::pair<size_t, bool>, const Answer*> base;
  for (const Answer& a : untraced.answers) {
    if (a.ok) base[{a.index, a.async}] = &a;
  }
  size_t compared = 0;
  for (const Answer& a : traced.answers) {
    auto it = base.find({a.index, a.async});
    if (!a.ok || it == base.end() || it->second->epoch != a.epoch) continue;
    ++compared;
    if (!SameRoutes(a.paths, it->second->paths)) ++*differ;
  }
  return compared;
}

}  // namespace

RunOutcome RunWorkload(const Config& config) {
  RunOutcome out;
  const bool post = config.workload == "post-traffic-long";
  const bool post_local = config.workload == "post-traffic-local";
  const bool live = config.workload == "live-local";
  const bool remote = config.workload == "remote-batch";
  if (!post && !post_local && !live && !remote) {
    out.correct = false;
    out.problems.push_back("unknown workload '" + config.workload + "'");
    return out;
  }
  const size_t live_batches =
      static_cast<size_t>(config.seconds * config.writer_batches_per_s) + 2;
  // A traced run splits --seconds between an untraced and a traced pass.
  const double pass_seconds = config.trace ? config.seconds / 2 : config.seconds;
  const Rounds rounds =
      post ? Rounds{config.round_batches, config.round_queries,
                    RoundsFor(pass_seconds, config.post_seconds_per_round)}
           : Rounds{config.local_round_batches, config.local_round_queries,
                    RoundsFor(pass_seconds, config.local_seconds_per_round)};
  const size_t remote_rounds =
      RoundsFor(pass_seconds, config.remote_seconds_per_round);
  const Inputs inputs =
      post ? MakeInputs(config, rounds.rounds * rounds.batches, 1024,
                        /*local=*/false, 0)
      : post_local
          ? MakeInputs(config, rounds.rounds * rounds.batches,
                       rounds.rounds * rounds.queries, /*local=*/true,
                       config.shortest_path_share)
      : live ? MakeInputs(config, live_batches, 60000, /*local=*/true,
                          config.shortest_path_share)
             : MakeInputs(config, remote_rounds, 40000, /*local=*/true, 0);
  auto run_pass = [&](Tracer* tracer) {
    if (post || post_local) {
      return PostTrafficPass(config, inputs, tracer, rounds);
    }
    if (live) return LiveLocalPass(config, inputs, tracer, pass_seconds);
    return FleetPass(config, inputs, tracer, remote_rounds,
                     config.setup_repeats);
  };

  unsigned nproc = std::thread::hardware_concurrency();
  out.shape = {
      {"workload", config.workload},
      {"seed", std::to_string(config.seed)},
      {"seconds", std::to_string(static_cast<int>(config.seconds))},
      {"trace", config.trace ? "1" : "0"},
      {"build_type", KSPDG_BENCH_BUILD_TYPE},
      {"nproc", std::to_string(nproc)},
      {"graph", "NY-S"},
      {"vertices", std::to_string(inputs.graph.NumVertices())},
      {"edges", std::to_string(inputs.graph.NumEdges())},
      {"z", std::to_string(config.z)},
      {"k", std::to_string(config.k)},
      {"alpha", std::to_string(config.alpha)},
      {"tau", std::to_string(config.tau)},
      {"build_threads", std::to_string(config.build_threads)},
      {"setup_repeats", std::to_string(config.setup_repeats)},
  };
  if (post || post_local) {
    out.shape.push_back({"clients", std::to_string(config.clients)});
    out.shape.push_back({"writer_threads", "0 (batches between rounds)"});
    out.shape.push_back({"round_batches", std::to_string(rounds.batches)});
    out.shape.push_back({"round_queries", std::to_string(rounds.queries)});
    out.shape.push_back({"rounds", std::to_string(rounds.rounds)});
    if (post_local) {
      out.shape.push_back({"local_hops", std::to_string(config.local_hops)});
    }
    out.shape.push_back({"batch_threads", "1"});
  } else if (live) {
    out.shape.push_back({"clients", std::to_string(config.clients)});
    out.shape.push_back({"writer_threads", "1"});
    out.shape.push_back(
        {"writer_batches_per_s", std::to_string(config.writer_batches_per_s)});
    out.shape.push_back({"local_hops", std::to_string(config.local_hops)});
    out.shape.push_back({"batch_threads", "1"});
  } else {
    out.shape.push_back({"clients", "1 (async submitter)"});
    out.shape.push_back({"writer_threads", "0 (2PC batches between rounds)"});
    out.shape.push_back({"shards", std::to_string(config.shards)});
    out.shape.push_back({"replicas", "1"});
    out.shape.push_back({"worker_processes", std::to_string(config.shards)});
    out.shape.push_back(
        {"batch_threads", std::to_string(config.remote_batch_threads)});
    out.shape.push_back({"batch_size", std::to_string(config.batch_size)});
    out.shape.push_back(
        {"batches_per_round", std::to_string(config.batches_per_round)});
    out.shape.push_back(
        {"batches_in_flight", std::to_string(config.batches_in_flight)});
    out.shape.push_back({"rounds", std::to_string(remote_rounds)});
  }

  if (!config.trace) {
    Checked c = Check(config, inputs, run_pass(nullptr),
                      nullptr, nullptr, "run", &out);
    EndToEnd(c, &out);
    Breakdown(config, c, &out);
    out.shape.push_back({"subgraphs", std::to_string(c.pass.subgraphs)});
  } else {
    // The untraced and traced passes split the run time; their difference
    // is the tracing overhead, and their answers must agree.
    Checked base = Check(config, inputs, run_pass(nullptr), nullptr,
                         nullptr, "untraced", &out);
    Tracer tracer;
    Checked traced = Check(config, inputs, run_pass(&tracer), &tracer,
                           &out.metrics, "traced", &out);
    out.shape.push_back({"subgraphs", std::to_string(traced.pass.subgraphs)});
    size_t differ = 0;
    size_t compared = CompareTracedAnswers(base.pass, traced.pass, &differ);
    if (differ > 0) {
      out.problems.push_back(std::to_string(differ) + " of " +
                             std::to_string(compared) +
                             " traced answers differ from untraced ones");
    }
    ServingLayers(traced.pass, traced.oracle, &out.metrics);
    for (auto& [name, metric] : traced.pass.layers) out.metrics[name] = metric;
    if (!remote) {
      // The fleet layers (core, remote, rpc, shard) are probed with a short
      // remote-batch pass on this seed's local requests.
      Inputs probe_inputs = MakeInputs(config, 8, 4096, /*local=*/true, 0);
      Checked probe = Check(
          config, probe_inputs,
          FleetPass(config, probe_inputs, &tracer, 3, 1), nullptr,
          nullptr, "fleet-probe", &out);
      for (auto& [name, metric] : probe.pass.layers) {
        out.metrics.emplace(name, metric);
      }
    }
    out.metrics["trace.qps_delta"] =
        Metric{Qps(traced.pass) - Qps(base.pass), "1/s", 0};
    out.metrics["trace.query_p50_delta_ms"] =
        Metric{Percentile(traced.pass.latency_ms, 0.5) -
                   Percentile(base.pass.latency_ms, 0.5),
               "ms", 0};
    out.extra["trace.parity_compared"] =
        Metric{static_cast<double>(compared), "count", 0};
    out.extra["trace.spans"] =
        Metric{static_cast<double>(tracer.spans().size()), "count", 0};
    Breakdown(config, traced, &out);
    if (!config.trace_out.empty() &&
        !tracer.WriteJsonLines(config.trace_out)) {
      out.problems.push_back("could not write spans to " + config.trace_out);
    }
  }
  if (!out.problems.empty()) out.correct = false;
  return out;
}

}  // namespace kspbench

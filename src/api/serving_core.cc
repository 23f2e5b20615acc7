#include "api/serving_core.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/timer.h"

namespace kspdg {

ServingCore::~ServingCore() = default;

Status ServingCore::BuildIndexes() {
  KSPDG_RETURN_NOT_OK(options_.defaults.Validate());
  Result<std::unique_ptr<Dtlp>> dtlp = Dtlp::Build(graph_, options_.dtlp);
  if (!dtlp.ok()) return dtlp.status();
  dtlp_ = std::move(dtlp).value();
  if (options_.enable_cands) {
    Result<std::unique_ptr<CandsIndex>> cands =
        BuildCandsIndex(graph_, options_.dtlp);
    if (!cands.ok()) return cands.status();
    cands_ = std::move(cands).value();
  }
  registry_ = SolverRegistry::Default();
  return Status::OK();
}

void ServingCore::StartServing() {
  pool_ = std::make_unique<ThreadPool>(
      DefaultBatchThreads(options_.batch_threads));
  {
    MutexLock batch_guard(batch_mu_);
    batch_workers_.resize(pool_->num_threads());
    for (BatchWorker& worker : batch_workers_) {
      worker.provider = NewPartialProvider();
    }
  }

  // Wire instrumentation before any traffic: every hot-path handle is
  // resolved here, so serving pays one relaxed fetch_add per event and
  // never touches the registry mutex.
  svc_metrics_.Init(metrics_, registry_.Names());
  snapshot_lock_.InstrumentWriter(
      metrics_.GetCounter("epoch_writer_drains_total"),
      metrics_.GetHistogram("epoch_writer_wait_micros", {},
                            LatencyBucketsMicros()));
  metrics_.AddGaugeCallback("epoch", {}, [this] {
    return static_cast<int64_t>(CurrentEpoch());
  });

  SubmissionQueueMetrics queue_metrics;
  queue_metrics.enqueue_blocked_total =
      metrics_.GetCounter("submission_queue_enqueue_blocked_total");
  queue_metrics.enqueue_block_micros = metrics_.GetHistogram(
      "submission_queue_enqueue_block_micros", {}, LatencyBucketsMicros());
  queue_metrics.shed_deadline_total =
      metrics_.GetCounter("submission_queue_shed_deadline_total");
  queue_metrics.shed_quota_total =
      metrics_.GetCounter("submission_queue_shed_quota_total");
  AdmissionOptions admission;
  admission.per_tenant_quota = options_.per_tenant_quota;
  submit_queue_ = std::make_unique<SubmissionQueue>(
      options_.submit_queue_capacity, /*num_workers=*/1,
      std::move(queue_metrics), admission);
  SubmissionQueue* const queue = submit_queue_.get();
  metrics_.AddGaugeCallback("submission_queue_depth", {}, [queue] {
    return static_cast<int64_t>(queue->pending());
  });
  for (RequestPriority priority :
       {RequestPriority::kInteractive, RequestPriority::kNormal,
        RequestPriority::kBatch}) {
    metrics_.AddGaugeCallback(
        "submission_queue_depth_by_priority",
        {{"priority", PriorityName(priority)}}, [queue, priority] {
          return static_cast<int64_t>(queue->pending(priority));
        });
  }
  metrics_.AddCounterCallback("submission_queue_submitted_total", {},
                              [queue] { return queue->submitted(); });
  metrics_.AddCounterCallback("submission_queue_completed_total", {},
                              [queue] { return queue->completed(); });
}

Status ServingCore::RegisterSolver(std::unique_ptr<KspSolver> solver) {
  if (serving_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "RegisterSolver must run before the first query is served");
  }
  const std::string name(solver->name());
  KSPDG_RETURN_NOT_OK(registry_.Register(std::move(solver)));
  // Pre-register the backend's queries_total{kind,backend} cells so the
  // query hot path stays registration-free.
  svc_metrics_.AddBackend(metrics_, name);
  return Status::OK();
}

Status ServingCore::Prepare(const RouteRequest& request,
                            PreparedRoute* prepared) const {
  return PrepareRoutingQuery(registry_, options_.defaults, graph_, request,
                             prepared);
}

Status ServingCore::Solve(const RouteRequest& request, PreparedRoute& route,
                          uint64_t epoch, ShardRoutedProvider* provider,
                          SolverScratch* scratch,
                          RouteResponse* response) const {
  SolverInput input;
  input.graph = &graph_;
  input.dtlp = dtlp_.get();
  input.partials = provider;  // DTLP-free backends ignore it
  input.cands = cands_.get();
  input.source = request.source;
  input.target = request.target;
  input.options = std::move(route.merged);
  if (provider != nullptr) provider->BeginQuery(epoch);
  WallTimer timer;
  Result<KspQueryResult> solved = route.solver->Solve(input, scratch);
  if (provider != nullptr) {
    // A partial fetch that failed mid-solve leaves the solver's output
    // untrustworthy: degrade to the fetch error, never a wrong answer.
    KSPDG_RETURN_NOT_OK(provider->EndQuery(solved.ok()));
  }
  if (!solved.ok()) return solved.status();
  *response = FinishRouteResponse(route.kind, route.requested_k,
                                  std::move(input.options), graph_.directed(),
                                  std::move(solved).value());
  response->stats.solve_micros = timer.ElapsedMicros();
  response->epoch = epoch;
  svc_metrics_.RecordQuery(route.kind, response->backend,
                           response->stats.solve_micros);
  return Status::OK();
}

Result<RouteResponse> ServingCore::Query(const RouteRequest& request) const {
  MarkServing();
  PreparedRoute route;
  RouteResponse response;
  Status status = Prepare(request, &route);
  if (status.ok()) {
    // A single query gets a cold provider of its own; the batch workers'
    // warm ones are batch_mu_'s to hand out.
    std::unique_ptr<ShardRoutedProvider> provider = NewPartialProvider();
    // Snapshot section: the shared hold freezes the weights, the DTLP and
    // every shard's slice for the whole solve (including the kDiverseKsp
    // filter, a pure function of the candidate list).
    EpochReaderLock pin(snapshot_lock_);
    status = Solve(request, route, CurrentEpoch(), provider.get(),
                   /*scratch=*/nullptr, &response);
  }
  if (!status.ok()) {
    svc_metrics_.RecordQueryFailure(status);
    return status;
  }
  return response;
}

Result<RouteBatchResponse> ServingCore::QueryBatch(
    std::span<const RouteRequest> requests) const {
  MarkServing();
  RouteBatchResponse batch;
  batch.items.resize(requests.size());

  // Phase 1 (outside any lock): validate every request and resolve its
  // backend. Failures become per-item statuses, never a batch failure.
  struct Prepared {
    size_t index = 0;
    PreparedRoute route;
  };
  std::vector<Prepared> work;
  work.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    Prepared prepared;
    prepared.index = i;
    Status status = Prepare(requests[i], &prepared.route);
    if (!status.ok()) {
      batch.items[i].status = std::move(status);
      continue;
    }
    work.push_back(std::move(prepared));
  }

  // Phase 2: group by backend so the contiguous chunks a worker claims
  // mostly share a solver and its scratch stays warm across them.
  std::stable_sort(work.begin(), work.end(),
                   [](const Prepared& a, const Prepared& b) {
                     return a.route.solver->name() < b.route.solver->name();
                   });

  // Phase 3 (snapshot section): ONE shared hold covers every solve, so the
  // whole batch is answered at a single epoch; a concurrent traffic batch
  // waits on the snapshot lock and can never tear it.
  MutexLock batch_guard(batch_mu_);
  {
    EpochReaderLock pin(snapshot_lock_);
    WallTimer timer;
    batch.epoch = CurrentEpoch();
    if (arena_epoch_ != batch.epoch) {
      // Weights moved since the arenas were last warm: weight-derived
      // solver caches must not survive into this snapshot.
      for (BatchWorker& worker : batch_workers_) {
        worker.arena.OnSnapshotChange();
      }
      arena_epoch_ = batch.epoch;
    }
    // The pool threads do not hold batch_mu_ — they are handed disjoint
    // worker slots while this thread keeps the whole batch section locked,
    // which the analysis cannot see through the lambda. The raw pointer is
    // the deliberate escape hatch.
    BatchWorker* const pool_workers = batch_workers_.data();
    // Chunks large enough to amortise claiming, small enough to balance the
    // (highly skewed) per-query solve costs across workers.
    size_t chunk =
        std::max<size_t>(1, work.size() / (4 * size_t{pool_->num_threads()}));
    pool_->ParallelFor(work.size(), chunk, [&](unsigned worker_id, size_t j) {
      Prepared& p = work[j];
      BatchWorker& worker = pool_workers[worker_id];
      ShardRoutedProvider* provider = worker.provider.get();
      // A backend that routes refine work through a provider gets its
      // cross-query reuse from the provider's per-shard caches (which flush
      // per shard); a merged scratch cache on top would hide requests from
      // the shard layer. Inline, the scratch holds that cache instead.
      SolverScratch* scratch =
          (provider != nullptr && p.route.solver->UsesPartialProvider())
              ? nullptr
              : worker.arena.Get(p.route.solver);
      RouteBatchItem& item = batch.items[p.index];
      item.status = Solve(requests[p.index], p.route, batch.epoch, provider,
                          scratch, &item.response);
    });
    batch.batch_micros = timer.ElapsedMicros();
  }

  // Accepted items were recorded per solve (kind/backend/latency); the
  // admission classification and the rejection/shed totals settle here.
  svc_metrics_.FinalizeBatchAdmission(batch);
  return batch;
}

BatchTicket ServingCore::SubmitBatch(std::vector<RouteRequest> requests,
                                     BatchCallback callback) const {
  MarkServing();
  // The qualified call keeps the queue thread off the vtable: the batches
  // the queue drains during destruction run after the vptr has left the
  // deployment's type.
  return BatchTicket::SubmitTo(
      *submit_queue_, std::move(requests), std::move(callback),
      [this](std::span<const RouteRequest> batch) {
        return ServingCore::QueryBatch(batch);
      },
      svc_metrics_.admission_view());
}

Result<TrafficBatchResult> ServingCore::ApplyTrafficBatch(
    std::span<const WeightUpdate> updates) {
  // Validate before any lock: a rejected batch must leave the snapshot
  // untouched (and NumEdges is immutable, so no lock is needed).
  KSPDG_RETURN_NOT_OK(ValidateTrafficBatch(graph_, updates));
  TrafficBatchResult result;
  {
    // Exclusive snapshot section: drain every reader, move the whole
    // deployment to the next epoch, and publish it before releasing.
    EpochWriterLock lock(snapshot_lock_);
    const uint64_t epoch = epoch_.load(std::memory_order_relaxed) + 1;
    result = ApplyBatch(updates, epoch);
    result.epoch = epoch;
    epoch_.store(epoch, std::memory_order_release);
  }
  svc_metrics_.RecordTrafficBatch(updates.size());
  return result;
}

TrafficBatchResult ServingCore::ApplyToMaster(
    std::span<const WeightUpdate> updates) {
  for (const WeightUpdate& update : updates) graph_.SetWeight(update);
  TrafficBatchResult result;
  result.dtlp = dtlp_->ApplyUpdates(updates);
  MaintainCands(updates, &result);
  return result;
}

void ServingCore::MaintainCands(std::span<const WeightUpdate> updates,
                                TrafficBatchResult* result) {
  if (cands_ == nullptr) return;
  WallTimer cands_timer;
  result->cands = cands_->ApplyUpdates(updates);
  result->cands_micros = cands_timer.ElapsedMicros();
}

}  // namespace kspdg

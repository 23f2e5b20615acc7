#include "api/routing_service.h"

#include <utility>

#include "core/epoch_lock.h"

namespace kspdg {

Result<std::unique_ptr<RoutingService>> RoutingService::Create(
    Graph graph, RoutingServiceOptions options) {
  std::unique_ptr<RoutingService> service(
      new RoutingService(std::move(graph), std::move(options)));
  KSPDG_RETURN_NOT_OK(service->BuildIndexes());
  service->StartServing(/*num_shards=*/0);
  return service;
}

TrafficBatchResult RoutingService::ApplyBatch(
    std::span<const WeightUpdate> updates) {
  EpochWriterLock lock(epochs_->global_lock());
  const uint64_t epoch = epochs_->BeginAdvance();
  TrafficBatchResult result = ApplyToMaster(updates);
  epochs_->Commit(epoch);
  result.epoch = epoch;
  return result;
}

}  // namespace kspdg

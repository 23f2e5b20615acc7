#include "api/routing_service.h"

#include <utility>

namespace kspdg {

Result<std::unique_ptr<RoutingService>> RoutingService::Create(
    Graph graph, RoutingServiceOptions options) {
  std::unique_ptr<RoutingService> service(
      new RoutingService(std::move(graph), std::move(options)));
  KSPDG_RETURN_NOT_OK(service->BuildIndexes());
  service->StartServing();
  return service;
}

}  // namespace kspdg

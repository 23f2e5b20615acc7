// RoutingService: the single-node deployment of the serving core.
//
// One instance owns the dynamic graph, the DTLP index built over it, and the
// registry of solver backends, and serves the paper's workload (§1, §5):
// KSP queries streaming in *while* traffic updates stream in. All of it is
// the ServingCore (api/serving_core.h) with its defaults: KSP-DG partials
// are computed inline on the solving thread, and a traffic batch is the
// master-copy apply (ApplyToMaster) under the exclusive snapshot lock:
//
//   Query / QueryBatch / SubmitBatch   shared lock — any number run
//                                      concurrently; a batch takes it once
//   ApplyTrafficBatch                  exclusive lock — drains readers,
//                                      applies Algorithm 2, bumps the epoch
//
// Every response carries the epoch it was answered at, so clients can detect
// staleness and tests can assert that no query ever observed a half-applied
// batch.
#ifndef KSPDG_API_ROUTING_SERVICE_H_
#define KSPDG_API_ROUTING_SERVICE_H_

#include <memory>
#include <utility>

#include "api/routing_service_interface.h"
#include "api/serving_core.h"
#include "api/service_metrics.h"
#include "core/status.h"
#include "graph/graph.h"

namespace kspdg {

struct RoutingServiceOptions : ServingOptions {};

class RoutingService : public ServingCore {
 public:
  /// Takes ownership of `graph`, partitions it and builds the DTLP
  /// (Algorithm 1), and loads the default backends. Fails if the service
  /// defaults are invalid or the partitioner rejects the graph.
  static Result<std::unique_ptr<RoutingService>> Create(
      Graph graph, RoutingServiceOptions options = {});

  ServiceCounters counters() const { return BaseCounters(); }

 private:
  RoutingService(Graph graph, RoutingServiceOptions options)
      : ServingCore(std::move(graph), std::move(options)) {}
};

}  // namespace kspdg

#endif  // KSPDG_API_ROUTING_SERVICE_H_

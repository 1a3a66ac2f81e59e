#include "core/delta_sssp.hpp"

#include <stdexcept>
#include <utility>

#include "core/batch_sssp.hpp"
#include "engine/iterative_engine.hpp"

namespace dsbfs::core {

DistributedDeltaSssp::DistributedDeltaSssp(
    const graph::DistributedGraph& graph, sim::Cluster& cluster,
    DeltaSsspOptions options)
    : graph_(graph), cluster_(cluster), options_(options) {
  engine::check_specs_match(graph, cluster);
  if (options_.delta == 0) {
    throw std::invalid_argument("delta_sssp delta must be at least 1");
  }
  if (options_.max_weight == 0) {
    throw std::invalid_argument("delta_sssp max_weight must be at least 1");
  }
}

DeltaSsspResult DistributedDeltaSssp::run(VertexId source) {
  if (source >= graph_.num_vertices()) {
    throw std::out_of_range("delta_sssp source out of range");
  }
  // One full-width lane: the batch run's union bucket schedule is this
  // source's own, and 64-bit lane words are plain distances on the wire.
  DistributedBatchSssp batch(graph_, cluster_,
                             {.delta = options_.delta,
                              .max_weight = options_.max_weight,
                              .value_bits = 64,
                              .overlap = options_.overlap,
                              .uniquify = options_.uniquify,
                              .compress = options_.compress,
                              .bucket_bias = options_.bucket_bias,
                              .exchange_topology = options_.exchange_topology,
                              .collect_counters = options_.collect_counters,
                              .device_model = options_.device_model,
                              .net_model = options_.net_model,
                              .resilience = options_.resilience});
  BatchSsspResult r = batch.run({source});

  DeltaSsspResult result;
  result.distances = std::move(r.distances.front());
  result.iterations = r.iterations;
  result.buckets_processed = r.buckets_processed;
  result.light_iterations = r.light_iterations;
  result.heavy_iterations = r.heavy_iterations;
  result.light_relaxations = r.light_relaxations;
  result.heavy_relaxations = r.heavy_relaxations;
  result.measured_ms = r.measured_ms;
  result.modeled_ms = r.modeled_ms;
  result.modeled = r.modeled;
  result.update_bytes_remote = r.update_bytes_remote;
  result.reduce_bytes = r.reduce_bytes;
  result.fault = std::move(r.fault);
  result.counters = std::move(r.counters);
  return result;
}

}  // namespace dsbfs::core

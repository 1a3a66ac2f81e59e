#include "engine/iterative_engine.hpp"

#include <stdexcept>

namespace dsbfs::engine {

void check_specs_match(const graph::DistributedGraph& graph,
                       const sim::Cluster& cluster) {
  if (graph.spec().total_gpus() != cluster.total_gpus()) {
    throw std::invalid_argument("graph and cluster specs disagree");
  }
}

void check_facade_setup(const graph::DistributedGraph& graph,
                        const sim::Cluster& cluster,
                        sim::ExchangeTopology topology) {
  check_specs_match(graph, cluster);
  sim::check_routable(topology, graph.spec().num_nodes());
}

}  // namespace dsbfs::engine

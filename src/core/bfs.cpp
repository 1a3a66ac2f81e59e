#include "core/bfs.hpp"

#include <stdexcept>
#include <utility>

#include "core/lane_bfs_round.hpp"
#include "engine/iterative_engine.hpp"
#include "util/hash.hpp"

namespace dsbfs::core {

DistributedBfs::DistributedBfs(const graph::DistributedGraph& graph,
                               sim::Cluster& cluster, BfsOptions options)
    : graph_(graph), cluster_(cluster), options_(options) {
  engine::check_facade_setup(graph, cluster, options_.exchange_topology);
}

VertexId sample_traversal_source(const graph::DistributedGraph& graph,
                                 std::uint64_t k) {
  const VertexId n = graph.num_vertices();
  const auto& degrees = graph.degrees();
  for (std::uint64_t attempt = 0;; ++attempt) {
    const VertexId v = util::splitmix64(util::hash_combine(k, attempt)) % n;
    if (degrees[v] > 0) return v;
  }
}

VertexId DistributedBfs::sample_source(std::uint64_t k) const {
  return sample_traversal_source(graph_, k);
}

BfsResult DistributedBfs::run(VertexId source) {
  if (source >= graph_.num_vertices()) {
    throw std::out_of_range("bfs source out of range");
  }
  // One lane: the width-1 kernels, bare 4-byte ids on the id exchange and
  // the single-source previsit charges -- the paper's BFS.
  BatchBfsResult r = run_lane_bfs(graph_, cluster_, options_,
                                  LaneWire::of(options_), {&source, 1});
  BfsResult result;
  result.distances = std::move(r.distances.front());
  if (options_.compute_parents) result.parents = std::move(r.parents.front());
  result.metrics = std::move(r.metrics);
  return result;
}

}  // namespace dsbfs::core

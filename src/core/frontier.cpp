#include "core/frontier.hpp"

namespace dsbfs::core {

LaneState::LaneState(const graph::LocalGraph& graph, int total_gpus,
                     int lane_bits)
    : graph_(&graph), lane_bits_(lane_bits) {
  const std::uint64_t n_local = graph.num_local_normals();
  const LocalId d = graph.num_delegates();
  const auto w = static_cast<std::size_t>(lane_bits);

  seen_normal.resize(n_local, lane_bits);
  frontier_normal.resize(n_local, lane_bits);
  next_normal.resize(n_local, lane_bits);
  depth_normal.assign(n_local * w, kUnvisited);

  delegate_visited.resize(d, lane_bits);
  delegate_out.resize(d, lane_bits);
  delegate_new.resize(d, lane_bits);
  depth_delegate.assign(static_cast<std::size_t>(d) * w, kUnvisited);

  parent_normal.assign(n_local * w, kParentNone);
  parent_delegate =
      std::make_unique<std::atomic<VertexId>[]>(static_cast<std::size_t>(d) * w);
  for (std::size_t i = 0; i < static_cast<std::size_t>(d) * w; ++i) {
    parent_delegate[i].store(kParentNone, std::memory_order_relaxed);
  }

  unvisited_nd_sources = graph.nd_source_count();
  unvisited_dd_sources = graph.dd_source_count();
  unvisited_dn_sources = graph.dn_source_count();

  if (lane_bits == 1) {
    id_bins.resize(static_cast<std::size_t>(total_gpus));
  } else {
    bins.resize(static_cast<std::size_t>(total_gpus));
  }
}

void LaneState::begin_iteration() {
  iter = sim::GpuIterationCounters{};
  delegate_queue.clear();
  frontier.clear();
  if (lane_bits_ > 1) frontier_normal.clear_all();  // unused at W = 1
}

void LaneState::end_iteration() {
  // next_local and received carry the next iteration's frontier inputs; the
  // next normal previsit consumes and clears them.
  delegate_out.clear_all();
}

LaneSnapshot LaneState::save() const {
  LaneSnapshot s;
  s.seen_normal = seen_normal;
  s.frontier_normal = frontier_normal;
  s.next_normal = next_normal;
  s.frontier = frontier;
  s.next_local = next_local;
  s.received = received;
  s.id_received = id_received;
  s.depth_normal = depth_normal;
  s.delegate_visited = delegate_visited;
  s.delegate_out = delegate_out;
  s.delegate_new = delegate_new;
  s.depth_delegate = depth_delegate;
  s.delegate_queue = delegate_queue;
  s.dir_dd = dir_dd;
  s.dir_dn = dir_dn;
  s.dir_nd = dir_nd;
  s.controller = controller;
  s.dd_seed = dd_seed;
  s.dn_seed = dn_seed;
  s.nd_seed = nd_seed;
  s.unvisited_nd_sources = unvisited_nd_sources;
  s.unvisited_dd_sources = unvisited_dd_sources;
  s.unvisited_dn_sources = unvisited_dn_sources;
  s.fv_dd = fv_dd; s.fv_dn = fv_dn; s.fv_nd = fv_nd;
  s.bv_dd = bv_dd; s.bv_dn = bv_dn; s.bv_nd = bv_nd;
  s.bins = bins;
  s.id_bins = id_bins;
  s.parent_normal = parent_normal;
  const std::size_t slots = static_cast<std::size_t>(graph_->num_delegates()) *
                            static_cast<std::size_t>(lane_bits_);
  s.parent_delegate.resize(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    s.parent_delegate[i] = parent_delegate[i].load(std::memory_order_relaxed);
  }
  s.depth = depth;
  return s;
}

void LaneState::restore(const LaneSnapshot& s) {
  seen_normal = s.seen_normal;
  frontier_normal = s.frontier_normal;
  next_normal = s.next_normal;
  frontier = s.frontier;
  next_local = s.next_local;
  received = s.received;
  id_received = s.id_received;
  depth_normal = s.depth_normal;
  delegate_visited = s.delegate_visited;
  delegate_out = s.delegate_out;
  delegate_new = s.delegate_new;
  depth_delegate = s.depth_delegate;
  delegate_queue = s.delegate_queue;
  dir_dd = s.dir_dd;
  dir_dn = s.dir_dn;
  dir_nd = s.dir_nd;
  controller = s.controller;
  dd_seed = s.dd_seed;
  dn_seed = s.dn_seed;
  nd_seed = s.nd_seed;
  unvisited_nd_sources = s.unvisited_nd_sources;
  unvisited_dd_sources = s.unvisited_dd_sources;
  unvisited_dn_sources = s.unvisited_dn_sources;
  fv_dd = s.fv_dd; fv_dn = s.fv_dn; fv_nd = s.fv_nd;
  bv_dd = s.bv_dd; bv_dn = s.bv_dn; bv_nd = s.bv_nd;
  bins = s.bins;
  id_bins = s.id_bins;
  parent_normal = s.parent_normal;
  const std::size_t slots = static_cast<std::size_t>(graph_->num_delegates()) *
                            static_cast<std::size_t>(lane_bits_);
  for (std::size_t i = 0; i < slots; ++i) {
    parent_delegate[i].store(s.parent_delegate[i], std::memory_order_relaxed);
  }
  depth = s.depth;
}

}  // namespace dsbfs::core

#include "core/previsit.hpp"

#include <bit>

namespace dsbfs::core {

template <int W>
void delegate_previsit_lanes(LaneState& s) {
  const graph::LocalGraph& g = s.graph();
  std::uint64_t new_items = 0;
  std::uint64_t new_bits = 0;
  std::uint64_t lane_union = 0;
  double fv_dd = 0, fv_dn = 0;
  s.delegate_new.for_each_nonzero_lanes<W>([&](std::size_t t,
                                               std::uint64_t w) {
    ++new_items;
    if constexpr (W != 1) {
      new_bits += static_cast<std::uint64_t>(std::popcount(w));
      lane_union |= w;
    }
    const std::uint32_t dd_len = g.dd().row_length(t);
    const std::uint32_t dn_len = g.dn().row_length(t);
    if (dd_len == 0 && dn_len == 0) return;  // zero-out-degree filter
    s.delegate_queue.push_back(static_cast<LocalId>(t));
    fv_dd += dd_len;
    fv_dn += dn_len;
  });
  if constexpr (W == 1) {
    new_bits = new_items;
    lane_union = new_items != 0 ? 1 : 0;
  }
  s.iter.dprev_vertices = new_items;
  s.iter.delegate_lane_bits = new_bits;
  const int live = std::popcount(lane_union);
  s.iter.delegate_live_lanes = static_cast<std::uint64_t>(live);
  s.iter.direction_decisions = s.direction_optimized;
  // Above width 1 the FV/BV estimation rides the queue-formation scan
  // above, so the replay is told not to charge separate estimation
  // launches (sim::GpuIterationCounters::direction_decisions_fused).
  s.iter.direction_decisions_fused =
      s.direction_optimized && s.lane_bits() > 1;
  if (!s.direction_optimized) return;

  const std::uint64_t q = s.delegate_queue.size();
  s.fv_dd = fv_dd;
  s.fv_dn = fv_dn;
  // The union frontier pulls for every live lane at once: one sweep of the
  // reverse rows, each candidate early-exiting per lane (the harmonic
  // scaling inside lane_backward_workload).  Pools count items untouched in
  // every lane, so at W = 1 these are the single-source estimates.
  // dd: reversed graph is dd itself (locally symmetric).
  s.bv_dd = lane_backward_workload(s.unvisited_dd_sources, q,
                                   s.unvisited_dd_sources, live);
  // dn: reversed subgraph is nd; pull candidates are unvisited nd sources,
  // potential parents are delegates with dn edges.
  s.bv_dn = lane_backward_workload(s.unvisited_nd_sources, q,
                                   s.unvisited_dn_sources, live);
  if (s.adaptive_direction) {
    s.dir_dd.set_factors(s.controller.factors(s.dd_seed, true));
    s.dir_dn.set_factors(s.controller.factors(s.dn_seed, false));
  }
  if (q > 0) {
    s.dir_dd.update(s.fv_dd, s.bv_dd, true);
    s.dir_dn.update(s.fv_dn, s.bv_dn, true);
  }
}

template <int W>
void normal_previsit_lanes(LaneState& s) {
  const graph::LocalGraph& g = s.graph();
  const std::size_t arrivals =
      W == 1 ? s.id_received.size() : s.received.size();
  s.iter.nprev_vertices = s.next_local.size() + arrivals;

  // Locally discovered lanes were already claimed by the dn visit (depths
  // recorded at discovery); fold them into the visited mask and the
  // frontier.  `frontier_normal` returning 0 means first touch, which keeps
  // the frontier queue duplicate-free.  An item first touched in *any* lane
  // leaves the unvisited nd-source pool (all-lane pools, the single-source
  // pools at W = 1).  At W = 1 every next_local item is unseen by
  // construction, so the list becomes the frontier as it is.
  if constexpr (W == 1) {
    s.frontier.swap(s.next_local);
    for (const LocalId v : s.frontier) {
      s.seen_normal.or_lanes_unsynchronized<1>(v, 1);
      if (g.nd_source_mask().test(v)) --s.unvisited_nd_sources;
    }
  } else {
    for (const LocalId v : s.next_local) {
      const std::uint64_t lanes = s.next_normal.lanes<W>(v);
      if (s.seen_normal.or_lanes_unsynchronized<W>(v, lanes) == 0 &&
          g.nd_source_mask().test(v)) {
        --s.unvisited_nd_sources;
      }
      if (s.frontier_normal.or_lanes_unsynchronized<W>(v, lanes) == 0) {
        s.frontier.push_back(v);
      }
    }
  }
  s.next_local.clear();
  s.next_normal.clear_all();

  // Exchange arrivals are deduplicated against the visited lanes here: the
  // sender ships its whole frontier word, the receiver keeps the lanes it
  // has not seen.
  const Depth d = s.depth;
  const auto fold_arrival = [&](LocalId v, std::uint64_t value) {
    const std::uint64_t prev_seen =
        s.seen_normal.or_lanes_unsynchronized<W>(v, value);
    if (prev_seen == 0 && g.nd_source_mask().test(v)) {
      --s.unvisited_nd_sources;
    }
    const std::uint64_t fresh = value & ~prev_seen;
    if (fresh == 0) return;
    for_each_lane<W>(fresh, [&](int lane) {
      const std::size_t sl = s.slot<W>(v, lane);
      s.depth_normal[sl] = d;
      // The sender's identity is not transmitted during traversal; the
      // end-of-run parent exchange resolves these.
      if (s.record_parents) s.parent_normal[sl] = kParentViaNn;
    });
    if constexpr (W == 1) {
      s.frontier.push_back(v);
    } else if (s.frontier_normal.or_lanes_unsynchronized<W>(v, fresh) == 0) {
      s.frontier.push_back(v);
    }
  };
  if constexpr (W == 1) {
    for (const LocalId v : s.id_received) fold_arrival(v, 1);
    s.id_received.clear();
  } else {
    for (const comm::VertexUpdate& u : s.received) {
      fold_arrival(u.vertex, u.value);
    }
    s.received.clear();
  }

  std::uint64_t frontier_bits = 0;
  std::uint64_t lane_union = 0;
  double fv_nd = 0;
  if constexpr (W == 1) {
    frontier_bits = s.frontier.size();
    lane_union = s.frontier.empty() ? 0 : 1;
    if (s.direction_optimized) {
      for (const LocalId v : s.frontier) fv_nd += g.nd().row_length(v);
    }
  } else {
    for (const LocalId v : s.frontier) {
      const std::uint64_t w = s.frontier_normal.lanes<W>(v);
      frontier_bits += static_cast<std::uint64_t>(std::popcount(w));
      lane_union |= w;
      fv_nd += g.nd().row_length(v);
    }
  }
  s.iter.frontier_lane_bits = frontier_bits;
  const int live = std::popcount(lane_union);
  s.iter.frontier_live_lanes = static_cast<std::uint64_t>(live);
  if (!s.direction_optimized) return;

  const std::uint64_t q = s.frontier.size();
  s.fv_nd = fv_nd;
  // nd: reversed subgraph is dn; pull candidates are unvisited delegates
  // with dn edges, potential parents are normals with nd edges.
  s.bv_nd = lane_backward_workload(s.unvisited_dn_sources, q,
                                   s.unvisited_nd_sources, live);
  if (s.adaptive_direction) {
    s.dir_nd.set_factors(s.controller.factors(s.nd_seed, false));
  }
  if (q > 0) s.dir_nd.update(s.fv_nd, s.bv_nd, true);
}

template void delegate_previsit_lanes<1>(LaneState&);
template void delegate_previsit_lanes<util::kAnyWidth>(LaneState&);
template void normal_previsit_lanes<1>(LaneState&);
template void normal_previsit_lanes<util::kAnyWidth>(LaneState&);

}  // namespace dsbfs::core

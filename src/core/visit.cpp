#include "core/visit.hpp"

namespace dsbfs::core {

// Forward push: the "unvisited? claim" test is `word & ~visited_lanes`
// followed by a lane-word OR whose previous value identifies the freshly
// claimed lanes (MS-BFS's visitNext |= visit & ~seen).  Backward pull
// reuses the same claim detection in reverse: an item unvisited in some
// live lanes (`miss = batch_mask & ~visited`) probes its in-edges and
// claims itself in every lane whose visited word intersects a neighbor's
// (`hit = miss & visited(neighbor)`), clearing hit lanes from `miss` and
// early-exiting once every live lane has found a parent -- one pull sweep
// serves all W sources.  The visited masks consumed are the
// iteration-stable snapshots, so pulls never observe same-iteration
// discoveries.  At W = 1 a queued item's lane word is 1 by construction,
// so the forward kernels do not read it.

template <int W>
void visit_dd_lanes(LaneState& s) {
  const graph::LocalGraph& g = s.graph();
  sim::KernelCounters& k = s.iter.dd;
  k.backward = s.dir_dd.backward();

  // An empty delegate queue means no lane gained a delegate last round,
  // and every older (visited, unvisited) edge was already exploited by
  // that round's kernel: neither direction can discover anything, so the
  // host skips the launch.
  if (s.delegate_queue.empty()) return;
  k.launched = true;

  if (k.backward) {
    // Pull over dd itself (locally symmetric): every delegate with dd edges
    // still unvisited in a live lane scans its row for visited parents.
    const LocalId d = g.num_delegates();
    for (LocalId t = 0; t < d; ++t) {
      if (!g.dd_source_mask().test(t)) continue;
      std::uint64_t miss = s.batch_mask & ~s.delegate_visited.lanes<W>(t);
      if (miss == 0) continue;
      ++k.vertices;
      for (const LocalId c : g.dd().row(t)) {
        ++k.edges;
        const std::uint64_t hit = miss & s.delegate_visited.lanes<W>(c);
        if (hit == 0) continue;
        s.delegate_out.or_lanes<W>(t, hit);
        if (s.record_parents) {
          // Record for every hit lane, not only freshly claimed ones: the
          // claim split between the delegate and normal streams is racy, so
          // the deterministic CAS-min in set_delegate_parent must see every
          // stream's candidate to make the winner schedule-independent.
          for_each_lane<W>(hit, [&](int lane) {
            s.set_delegate_parent<W>(t, lane, kParentDelegateTag | c);
          });
        }
        miss &= ~hit;
        if (miss == 0) break;
      }
    }
    return;
  }

  for (const LocalId t : s.delegate_queue) {
    const std::uint64_t f = W == 1 ? 1 : s.delegate_new.lanes<W>(t);
    const auto row = g.dd().row(t);
    k.edges += row.size();
    for (const LocalId c : row) {
      const std::uint64_t rem = f & ~s.delegate_visited.lanes<W>(c);
      if (rem == 0) continue;
      s.delegate_out.or_lanes<W>(c, rem);
      if (s.record_parents) {
        // All candidates feed the CAS-min (see the dd pull above).
        for_each_lane<W>(rem, [&](int lane) {
          s.set_delegate_parent<W>(c, lane, kParentDelegateTag | t);
        });
      }
    }
  }
  k.vertices = s.delegate_queue.size();
}

template <int W>
void visit_dn_lanes(LaneState& s) {
  const graph::LocalGraph& g = s.graph();
  sim::KernelCounters& k = s.iter.dn;
  k.backward = s.dir_dn.backward();
  const Depth next_depth = s.depth + 1;

  // New hits require a delegate newly visited last round; empty queue =
  // no-op, not launched.
  if (s.delegate_queue.empty()) return;
  k.launched = true;

  // Claim lanes `bits` of v for parent `parent` (no other kernel writes
  // next_normal during visits, so the claim needs no atomic).
  const auto claim = [&](LocalId v, std::uint64_t bits, VertexId parent) {
    const std::uint64_t prev =
        s.next_normal.or_lanes_unsynchronized<W>(v, bits);
    const std::uint64_t fresh = bits & ~prev;
    if (fresh == 0) return;
    if (prev == 0) s.next_local.push_back(v);
    for_each_lane<W>(fresh, [&](int lane) {
      const std::size_t sl = s.slot<W>(v, lane);
      s.depth_normal[sl] = next_depth;
      if (s.record_parents) s.parent_normal[sl] = parent;
    });
  };

  if (k.backward) {
    // Pull over the nd subgraph (reverse of dn on this GPU): each normal
    // with delegate parents, unvisited in a live lane, scans them for
    // visited delegates and claims itself in the intersecting lanes.
    for (const LocalId v : g.nd_source_list()) {
      std::uint64_t miss = s.batch_mask & ~s.seen_normal.lanes<W>(v);
      if (miss == 0) continue;
      ++k.vertices;
      for (const LocalId c : g.nd().row(v)) {
        ++k.edges;
        const std::uint64_t hit = miss & s.delegate_visited.lanes<W>(c);
        if (hit == 0) continue;
        claim(v, hit, kParentDelegateTag | c);
        miss &= ~hit;
        if (miss == 0) break;
      }
    }
    return;
  }

  for (const LocalId t : s.delegate_queue) {
    const std::uint64_t f = W == 1 ? 1 : s.delegate_new.lanes<W>(t);
    const auto row = g.dn().row(t);
    k.edges += row.size();
    for (const LocalId v : row) {
      const std::uint64_t rem = f & ~s.seen_normal.lanes<W>(v);
      if (rem != 0) claim(v, rem, kParentDelegateTag | t);
    }
  }
  k.vertices = s.delegate_queue.size();
}

template <int W>
void visit_nd_lanes(LaneState& s) {
  const graph::LocalGraph& g = s.graph();
  sim::KernelCounters& k = s.iter.nd;
  k.backward = s.dir_nd.backward();

  const sim::ClusterSpec& spec = g.spec();
  const sim::GpuCoord me = g.me();

  // New hits require a normal newly visited last round; empty frontier =
  // no-op, not launched.
  if (s.frontier.empty()) return;
  k.launched = true;

  if (k.backward) {
    // Pull over the dn subgraph: each delegate with local normal parents,
    // unvisited in a live lane, scans them against the stable seen_normal
    // snapshot (same-iteration dn-visit discoveries live in next_normal and
    // are invisible here).
    const LocalId d = g.num_delegates();
    for (LocalId t = 0; t < d; ++t) {
      if (!g.dn_source_mask().test(t)) continue;
      std::uint64_t miss = s.batch_mask & ~s.delegate_visited.lanes<W>(t);
      if (miss == 0) continue;
      ++k.vertices;
      for (const LocalId v : g.dn().row(t)) {
        ++k.edges;
        const std::uint64_t hit = miss & s.seen_normal.lanes<W>(v);
        if (hit == 0) continue;
        s.delegate_out.or_lanes<W>(t, hit);
        if (s.record_parents) {
          // All candidates feed the CAS-min (see the dd pull).
          const VertexId v_global = spec.global_vertex(me.rank, me.gpu, v);
          for_each_lane<W>(hit, [&](int lane) {
            s.set_delegate_parent<W>(t, lane, v_global);
          });
        }
        miss &= ~hit;
        if (miss == 0) break;
      }
    }
    return;
  }

  for (const LocalId v : s.frontier) {
    const std::uint64_t f = W == 1 ? 1 : s.frontier_normal.lanes<W>(v);
    const auto row = g.nd().row(v);
    k.edges += row.size();
    for (const LocalId c : row) {
      const std::uint64_t rem = f & ~s.delegate_visited.lanes<W>(c);
      if (rem == 0) continue;
      s.delegate_out.or_lanes<W>(c, rem);
      if (s.record_parents) {
        // All candidates feed the CAS-min (see the dd pull).
        const VertexId v_global = spec.global_vertex(me.rank, me.gpu, v);
        for_each_lane<W>(rem, [&](int lane) {
          s.set_delegate_parent<W>(c, lane, v_global);
        });
      }
    }
  }
  k.vertices = s.frontier.size();
}

template <int W>
void visit_nn_lanes(LaneState& s, const sim::ClusterSpec& spec) {
  const graph::LocalGraph& g = s.graph();
  sim::KernelCounters& k = s.iter.nn;
  k.backward = false;
  if (s.frontier.empty()) return;
  k.launched = true;
  const std::uint64_t p = static_cast<std::uint64_t>(spec.total_gpus());
  for (const LocalId v : s.frontier) {
    const auto row = g.nn().row(v);
    k.edges += row.size();
    if constexpr (W == 1) {
      for (const VertexId dst : row) {
        s.id_bins[static_cast<std::size_t>(spec.owner_global_gpu(dst))]
            .push_back(static_cast<LocalId>(dst / p));
      }
    } else {
      const std::uint64_t f = s.frontier_normal.lanes<W>(v);
      for (const VertexId dst : row) {
        s.bins[static_cast<std::size_t>(spec.owner_global_gpu(dst))]
            .push_back(comm::VertexUpdate{static_cast<LocalId>(dst / p), f});
      }
    }
  }
  k.vertices = s.frontier.size();
}

template void visit_dd_lanes<1>(LaneState&);
template void visit_dd_lanes<util::kAnyWidth>(LaneState&);
template void visit_dn_lanes<1>(LaneState&);
template void visit_dn_lanes<util::kAnyWidth>(LaneState&);
template void visit_nd_lanes<1>(LaneState&);
template void visit_nd_lanes<util::kAnyWidth>(LaneState&);
template void visit_nn_lanes<1>(LaneState&, const sim::ClusterSpec&);
template void visit_nn_lanes<util::kAnyWidth>(LaneState&,
                                              const sim::ClusterSpec&);

}  // namespace dsbfs::core

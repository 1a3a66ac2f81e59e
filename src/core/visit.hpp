#pragma once

#include "core/frontier.hpp"
#include "sim/cluster.hpp"

/// Visit kernels (paper Section IV).
///
/// Four kernels per iteration, one per subgraph.  dd/dn/nd run forward-push
/// or backward-pull according to the per-subgraph DirectionState fixed by
/// the previsit; nn is always forward (Section IV-B).  Each frontier entry
/// carries a lane word and one row traversal advances every lane at once
/// (visitNext |= visit & ~seen, per neighbor).  Backward pulls sweep the
/// reverse subgraph once for the whole union frontier, each candidate
/// clearing its still-unvisited lane word (`miss`) against neighbors'
/// visited words and early-exiting when every live lane has a parent.
///
/// Write discipline (safe under delegate/normal stream concurrency):
///   * dd/nd write only `delegate_out` (atomic lane OR);
///   * dn writes `next_normal` (only this kernel writes it during visits),
///     per-lane depths/parents of the vertices it claims, and the
///     single-writer `next_local`;
///   * nn writes only this GPU's outbound bins;
///   * all reads of visited state go to the stable snapshots
///     (`seen_normal`, `delegate_visited`).
///
/// `W` is the lane width: 1 (one bit per item, no lane loop, bare-id bins)
/// or util::kAnyWidth for the runtime width of `s`.  Both are instantiated;
/// a run dispatches once.
namespace dsbfs::core {

/// delegate -> delegate, lane words into `delegate_out`; backward pull runs
/// over dd itself (locally symmetric).  Uses merge-based load balancing on
/// real GPUs (modeled by sim::KernelClass::kForwardMerge).
template <int W>
void visit_dd_lanes(LaneState& s);

/// delegate -> normal: claims (vertex, lane) pairs in `next_normal`,
/// records per-lane depths/parents, appends first-touched vertices to
/// `next_local`.  Backward pull runs over the nd subgraph from its source
/// list (the reverse graph, Section IV-B).
template <int W>
void visit_dn_lanes(LaneState& s);

/// normal -> delegate, lane words into `delegate_out`; backward pull runs
/// over the dn subgraph from its source mask.
template <int W>
void visit_nd_lanes(LaneState& s);

/// normal -> normal: fills per-destination-GPU bins with 32-bit
/// destination-local ids (`id_bins` at W = 1) or (id, frontier lane word)
/// updates (`bins`).
template <int W>
void visit_nn_lanes(LaneState& s, const sim::ClusterSpec& spec);

}  // namespace dsbfs::core

#pragma once

#include "core/frontier.hpp"

/// Previsit kernels (paper Section IV, Fig. 3).
///
/// Each iteration begins with one previsit per stream:
///   * delegate previsit -- turns the newly visited delegate mask into a
///     work queue (dropping delegates without local out-edges), computes
///     the forward workloads FV for the dd and dn visits, and the backward
///     estimates BV from the unvisited-source pools;
///   * normal previsit -- merges locally discovered vertices with exchange
///     arrivals (deduplicating against the visited lanes), forms the normal
///     frontier, and computes FV/BV for the nd visit.
/// Both also fix the traversal direction for their stream's visit kernels.
///
/// Queue membership is "any lane active", the per-item lane word rides
/// along, and the frontier lane-bit counters feed the batch occupancy
/// metrics.  When direction-optimized they decide for the union frontier:
/// BV comes from the all-lane unvisited pools scaled by the live-lane
/// population (lane_backward_workload, the single-source estimate at
/// W = 1), and the optional DirectionController re-seeds the factors each
/// iteration.  Above width 1 the FV sums ride the queue scan that runs
/// anyway, so the replay charges no separate estimation launches
/// (sim::GpuIterationCounters::direction_decisions_fused); width 1 charges
/// them as the paper's single-source previsit does.
///
/// `W` is the lane width: 1, or util::kAnyWidth for the runtime width of
/// `s` (both are instantiated; a run dispatches once).  Previsits are
/// single-threaded, ahead of the stream kernels.
namespace dsbfs::core {

/// Delegate-stream previsit.  Reads `delegate_new` lane words; fills
/// `delegate_queue` (items with local out-edges), the delegate lane-bit /
/// live-lane counters, and -- when direction-optimized -- fv/bv for the dd
/// and dn visits plus their DirectionState updates.
template <int W>
void delegate_previsit_lanes(LaneState& s);

/// Normal-stream previsit.  Merges the dn visit's `next_local` /
/// `next_normal` discoveries and the exchange arrivals into `frontier` /
/// `frontier_normal`, assigning the current depth to every freshly claimed
/// (vertex, lane) pair.  Maintains the unvisited nd-source pool (first
/// touch in any lane) and, when direction-optimized, computes fv_nd/bv_nd
/// and updates dir_nd.
template <int W>
void normal_previsit_lanes(LaneState& s);

}  // namespace dsbfs::core

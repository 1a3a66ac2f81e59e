#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/exchange.hpp"
#include "core/direction.hpp"
#include "graph/local_graph.hpp"
#include "sim/perf_model.hpp"
#include "util/bitset.hpp"

/// Per-GPU traversal state of the BFS: LaneState, one lane-word per item.
/// A single-source run is the width-1 case (one bit per item, bare 4-byte
/// ids on the wire); a batched run gives each of up to 64 sources a lane.
///
/// Level/visited conventions (see DESIGN.md "Iteration/level semantics"):
/// iteration `depth` expands the distance-`depth` frontier; every discovery
/// is assigned distance `depth + 1`.  During visits, `seen_normal` and
/// `delegate_visited` form a *stable snapshot*: kernels write new
/// discoveries to `next_normal` / `delegate_out` only, so backward pulls
/// never observe same-iteration discoveries as parents.
namespace dsbfs::core {

/// Control-word packing for the per-iteration termination allreduce of the
/// traversal algorithms: bit 40+ carries "some GPU has delegate updates",
/// the low bits carry the amount of new normal work (local discoveries +
/// binned vertices).
inline constexpr std::uint64_t kDelegateFlagUnit = 1ULL << 40;

/// Parent encodings used during traversal (decoded at gather time).
inline constexpr VertexId kParentNone = kInvalidVertex;
/// The vertex was received via the nn exchange; its parent is resolved by
/// the end-of-run parent exchange (paper Section VI-A3).
inline constexpr VertexId kParentViaNn = kInvalidVertex - 1;
/// Tag bit: the low bits are a delegate id, not a global vertex id.
inline constexpr VertexId kParentDelegateTag = 1ULL << 62;

/// Value copy of everything an iteration mutates in a LaneState (epoch
/// checkpoint for rollback recovery).  The atomic parent slots are captured
/// as plain words; run constants (graph pointer, record_parents, the bins'
/// outer shape) are not part of the snapshot.
struct LaneSnapshot {
  util::LaneBitset seen_normal, frontier_normal, next_normal;
  std::vector<LocalId> frontier, next_local;
  std::vector<comm::VertexUpdate> received;
  std::vector<Depth> depth_normal;
  util::LaneBitset delegate_visited, delegate_out, delegate_new;
  std::vector<Depth> depth_delegate;
  std::vector<LocalId> delegate_queue;
  DirectionState dir_dd, dir_dn, dir_nd;
  DirectionController controller;
  DirectionFactors dd_seed, dn_seed, nd_seed;
  std::uint64_t unvisited_nd_sources = 0;
  std::uint64_t unvisited_dd_sources = 0;
  std::uint64_t unvisited_dn_sources = 0;
  double fv_dd = 0, fv_dn = 0, fv_nd = 0;
  double bv_dd = 0, bv_dn = 0, bv_nd = 0;
  std::vector<std::vector<comm::VertexUpdate>> bins;
  std::vector<std::vector<LocalId>> id_bins;
  std::vector<LocalId> id_received;
  std::vector<VertexId> parent_normal;
  std::vector<VertexId> parent_delegate;
  Depth depth = 0;
};

/// Call `fn(lane)` for every set lane of a nonzero lane word.  At W = 1
/// the only lane is 0: no bit walk.
template <int W, typename Fn>
inline void for_each_lane(std::uint64_t word, Fn&& fn) {
  if constexpr (W == 1) {
    fn(0);
  } else {
    for (std::uint64_t b = word; b != 0; b &= b - 1) fn(std::countr_zero(b));
  }
}

/// Per-GPU state of a lane traversal (MS-BFS style).  Lane l of every mask
/// and per-lane array belongs to source l of the batch; all lanes advance
/// in lockstep through the same level-synchronous iterations, so one sweep
/// of the degree-separated subgraphs (and one mask reduction, and one
/// exchange) serves every source at once.
///
/// The visited state is an (item, lane)-indexed depth array plus visited
/// lane masks; a claim is a lane-word OR whose previous value identifies
/// the newly claimed lanes.  `seen_normal` and `delegate_visited` only
/// change between iterations (previsit / post-reduce), never during visits,
/// which write `next_normal` / `delegate_out` instead.
///
/// The hot accessors take the lane width as a template argument (see
/// util::LaneBitset): the kernels are instantiated at W = 1 and at the
/// runtime width, and a run picks one set once.
class LaneState {
 public:
  LaneState(const graph::LocalGraph& graph, int total_gpus, int lane_bits);

  const graph::LocalGraph& graph() const noexcept { return *graph_; }
  int lane_bits() const noexcept { return lane_bits_; }

  /// Flat index of (item, lane) in the per-lane depth/parent arrays.
  template <int W = util::kAnyWidth>
  std::size_t slot(std::size_t item, int lane) const noexcept {
    if constexpr (W == 1) {
      return item;
    } else {
      return item * static_cast<std::size_t>(lane_bits_) +
             static_cast<std::size_t>(lane);
    }
  }

  // --- normal vertices -------------------------------------------------
  util::LaneBitset seen_normal;      // visited lanes; stable within an iter
  util::LaneBitset frontier_normal;  // lanes expanded this iteration
                                     // (unused at W = 1: every word is 1)
  util::LaneBitset next_normal;      // dn-visit discoveries (depth + 1)
  std::vector<LocalId> frontier;     // items with nonzero frontier lanes
  std::vector<LocalId> next_local;   // items first touched by the dn visit
  /// Exchange arrivals: (destination-local id, lane word) updates, folded
  /// into the frontier at the next normal previsit.  Width 1 uses
  /// `id_received` instead: the single lane is implicit, so an arrival is
  /// the bare id.
  std::vector<comm::VertexUpdate> received;
  std::vector<LocalId> id_received;
  std::vector<Depth> depth_normal;   // indexed by slot(v, lane)

  // --- delegates --------------------------------------------------------
  util::LaneBitset delegate_visited;  // stable within an iteration
  util::LaneBitset delegate_out;      // this iteration's updates
  util::LaneBitset delegate_new;      // lanes that became visited at reduce
  std::vector<Depth> depth_delegate;  // indexed by slot(t, lane)
  std::vector<LocalId> delegate_queue;

  // --- direction optimization ---------------------------------------------
  // One DirectionState per switchable kernel deciding for the *union*
  // frontier (one pull sweep serves every live lane), unvisited pools
  // counting items untouched in every lane (the single-source pools at
  // W = 1), and the all-active-lanes word the pull kernels mask their
  // candidates with.
  bool direction_optimized = false;
  bool adaptive_direction = false;
  DirectionState dir_dd, dir_dn, dir_nd;
  DirectionController controller;
  DirectionFactors dd_seed, dn_seed, nd_seed;
  /// Low `batch size` bits set -- lanes that carry a source.  Constant for
  /// the run; unused lanes of the lane word stay excluded so pull early
  /// exits are not chasing bits no source owns.
  std::uint64_t batch_mask = 0;
  std::uint64_t unvisited_nd_sources = 0;  // normals with nd edges
  std::uint64_t unvisited_dd_sources = 0;  // delegates with dd edges
  std::uint64_t unvisited_dn_sources = 0;  // delegates with dn edges
  double fv_dd = 0, fv_dn = 0, fv_nd = 0;
  double bv_dd = 0, bv_dn = 0, bv_nd = 0;

  // --- exchange ----------------------------------------------------------
  // Per destination global GPU: (id, lane word) records, or at width 1 the
  // bare destination-local ids.
  std::vector<std::vector<comm::VertexUpdate>> bins;
  std::vector<std::vector<LocalId>> id_bins;

  // --- BFS trees (optional; one per lane) --------------------------------
  bool record_parents = false;
  /// Per (local normal, lane): encoded parent (kParent* conventions).
  std::vector<VertexId> parent_normal;
  /// Per (delegate, lane): locally-known candidate (kParentDelegateTag
  /// encoding); min-reduced across GPUs at the end of the run.  Atomic
  /// because the dd (delegate-stream) and nd (normal-stream) visits may
  /// both record a candidate for the same slot.
  std::unique_ptr<std::atomic<VertexId>[]> parent_delegate;

  template <int W = util::kAnyWidth>
  void set_delegate_parent(LocalId delegate, int lane,
                           VertexId parent_vertex) noexcept {
    // Min over encoded candidates (CAS loop).  Every candidate recorded in
    // an iteration is a valid parent (all at the frontier depth), but the
    // two streams race on this slot; taking the encoding-order minimum
    // makes the surviving candidate independent of the stream schedule, so
    // parents are bit-stable run-to-run and across exchange topologies.
    // (Untagged global ids sort below kParentDelegateTag-encoded ones, so
    // normal parents win ties.)
    auto& sl = parent_delegate[slot<W>(delegate, lane)];
    VertexId cur = sl.load(std::memory_order_relaxed);
    while (parent_vertex < cur &&
           !sl.compare_exchange_weak(cur, parent_vertex,
                                     std::memory_order_relaxed)) {
    }
  }

  // --- bookkeeping --------------------------------------------------------
  Depth depth = 0;
  sim::GpuIterationCounters iter;

  /// Reset iteration-scoped scratch (bins stay allocated).
  void begin_iteration();
  /// Close the iteration (clears the delegate out-mask; `iter` stays valid
  /// until the next begin_iteration so the engine can snapshot it).
  void end_iteration();

  /// Epoch checkpoint / rollback restore (taken at iteration boundaries,
  /// when no visit kernels are in flight).
  LaneSnapshot save() const;
  void restore(const LaneSnapshot& snap);

 private:
  const graph::LocalGraph* graph_;
  int lane_bits_ = 1;
};

}  // namespace dsbfs::core

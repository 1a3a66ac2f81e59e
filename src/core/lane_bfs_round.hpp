#pragma once

#include <bit>
#include <cstdint>

#include "core/frontier.hpp"
#include "core/previsit.hpp"
#include "core/visit.hpp"
#include "engine/iterative_engine.hpp"
#include "sim/stream.hpp"

/// One lane-BFS round on the engine's phase hooks: the paper's BFS pipeline
/// (Fig. 3) with lane words in place of single bits -- previsit forms the
/// queues, visit enqueues the four kernels on the two streams, the (id,
/// lane-word) exchange rides the normal stream through the control
/// allreduce, and the post-control delegate-mask reduction overlaps it.
///
/// Internal to core.  DistributedBatchBfs's algorithm derives from it and
/// adds seeding and parent completion; the serving scheduler derives from
/// it and adds admission, reseed charging and per-lane retirement.  Both
/// close each iteration with finish_round().
namespace dsbfs::core {

/// Per-GPU round state: the lane traversal state plus the bin accounting
/// the control contribution joins.  `bins_ready` / `bins_total` are
/// per-iteration scratch that `visit` rewrites before anything reads them,
/// so a boundary checkpoint of the round is `gpu.save()` alone.
struct LaneRoundState {
  LaneRoundState(const graph::LocalGraph& lg, int total_gpus, int lane_bits)
      : gpu(lg, total_gpus, lane_bits) {}

  LaneState gpu;
  sim::Event bins_ready;
  std::uint64_t bins_total = 0;
};

class LaneBfsRound {
 public:
  /// The (id, lane-word) wire of a `lane_bits`-wide round.  `options` is
  /// the owning facade's options struct (BatchBfsOptions,
  /// SchedulerOptions); both spell the wire fields the same way.  The lane
  /// word is the update value: OR coalescing merges candidates for one
  /// destination, and the wire width is the lane width (0 extra bytes at
  /// W = 1, where the single lane is implicit and the record matches the
  /// id exchange's 4-byte id).
  template <typename Options>
  static comm::UpdateExchangeOptions wire_options(const Options& options,
                                                  int lane_bits) {
    return {.combine = options.uniquify ? comm::UpdateCombine::kOr
                                        : comm::UpdateCombine::kNone,
            .compress = options.compress,
            .value_bytes = lane_bits == 1 ? 0 : lane_bits / 8,
            .adaptive = options.adaptive_compress,
            .topology = options.exchange_topology,
            .retry = options.resilience.retry};
  }

  template <typename Options>
  LaneBfsRound(const graph::DistributedGraph& graph, const Options& options,
               int lane_bits)
      : graph_(graph),
        lane_bits_(lane_bits),
        exchange_(wire_options(options, lane_bits)),
        reduce_mode_(options.reduce_mode) {
    comm::validate(exchange_);
  }

  std::uint64_t state_bytes(const engine::GpuContext& ctx,
                            const LaneRoundState& s) const {
    // Per-lane depth arrays plus the three lane masks on each side.
    const std::uint64_t w = static_cast<std::uint64_t>(lane_bits_);
    return graph_.local(ctx.gpu).num_local_normals() * w * sizeof(Depth) +
           static_cast<std::uint64_t>(graph_.num_delegates()) * w *
               sizeof(Depth) +
           3 * s.gpu.delegate_visited.byte_size() +
           3 * s.gpu.seen_normal.byte_size();
  }

  void previsit(engine::GpuContext&, LaneRoundState& s, int) {
    s.gpu.begin_iteration();
    delegate_previsit_lanes(s.gpu);
    normal_previsit_lanes(s.gpu);
  }

  void visit(engine::GpuContext& ctx, LaneRoundState& s, int) {
    LaneState& gs = s.gpu;
    // Delegate stream: dd then dn lane visits.
    ctx.delegate_stream.enqueue([&gs] { visit_dd_lanes(gs); });
    ctx.delegate_stream.enqueue([&gs] { visit_dn_lanes(gs); });
    // Normal stream: nd, nn, then bin accounting (the engine enqueues the
    // exchange hook behind these).
    const sim::ClusterSpec& spec = ctx.comm.spec();
    ctx.normal_stream.enqueue([&gs] { visit_nd_lanes(gs); });
    ctx.normal_stream.enqueue([&gs, &spec] { visit_nn_lanes(gs, spec); });
    s.bins_ready = ctx.normal_stream.record([&s] {
      s.bins_total = 0;
      for (const auto& bin : s.gpu.bins) s.bins_total += bin.size();
    });
  }

  void reduce(engine::GpuContext&, LaneRoundState&, int) {}  // post-control

  void exchange(engine::GpuContext& ctx, LaneRoundState& s, int iteration) {
    LaneState& gs = s.gpu;
    gs.received = ctx.comm.exchange_value_updates(ctx.me, gs.bins, iteration,
                                                  exchange_, gs.iter);
  }

  std::uint64_t contribution(engine::GpuContext& ctx, LaneRoundState& s,
                             int) {
    // Join the delegate stream and the bin accounting; the exchange keeps
    // running on the normal stream through the control allreduce.
    ctx.delegate_stream.synchronize();
    s.bins_ready.wait();
    const bool delegate_updates = !s.gpu.delegate_out.none();
    return (delegate_updates ? kDelegateFlagUnit : 0) +
           static_cast<std::uint64_t>(s.gpu.next_local.size()) + s.bins_total;
  }

  void post_reduce(engine::GpuContext& ctx, LaneRoundState& s, int iteration,
                   std::uint64_t control) {
    LaneState& gs = s.gpu;
    if (control < kDelegateFlagUnit) {
      gs.delegate_new.clear_all();
      return;
    }
    // Delegate lane-mask reduction (overlaps the normal exchange): the
    // two-phase OR reduce is word-wise, so the lane masks ride it unchanged
    // -- only the payload scales (d*W/8 bytes).
    gs.iter.delegate_update = true;
    util::LaneBitset reduced = gs.delegate_visited;
    reduced.or_with(gs.delegate_out);
    ctx.comm.mask_reducer().reduce(ctx.me, reduced, iteration,
                                   reduce_mode_);
    util::LaneBitset::diff_into(reduced, gs.delegate_visited,
                                gs.delegate_new);

    // Assign depths and maintain the all-lane unvisited pools before the
    // old visited mask is overwritten: a delegate leaves a pool when its
    // first lane anywhere becomes visited (== the single-source pool
    // decrement at W = 1).  Only hybrid previsits read the pools.
    const graph::LocalGraph& lg = gs.graph();
    const Depth next_depth = gs.depth + 1;
    gs.delegate_new.for_each_nonzero_lanes(
        [&](std::size_t t, std::uint64_t w) {
          if (gs.delegate_visited.lanes(t) == 0) {
            if (lg.dd_source_mask().test(t)) --gs.unvisited_dd_sources;
            if (lg.dn_source_mask().test(t)) --gs.unvisited_dn_sources;
          }
          for (std::uint64_t b = w; b != 0; b &= b - 1) {
            gs.depth_delegate[gs.slot(t, std::countr_zero(b))] = next_depth;
          }
        });
    gs.delegate_visited = reduced;
  }

  /// The shared head of end_iteration: join the exchange, fold the
  /// iteration's kernel rates into the direction controller (adaptive
  /// hybrid only) before the next previsit re-derives the factors, and
  /// advance the depth.
  void finish_round(engine::GpuContext& ctx, LaneRoundState& s) {
    ctx.normal_stream.synchronize();  // exchange complete; received filled
    s.gpu.end_iteration();
    if (s.gpu.direction_optimized && s.gpu.adaptive_direction) {
      s.gpu.controller.observe(s.gpu.iter);
    }
    s.gpu.depth += 1;
  }

  bool collect_counters() const { return true; }
  sim::GpuIterationCounters iteration_counters(
      const LaneRoundState& s) const {
    return s.gpu.iter;
  }

  void finalize(engine::GpuContext&, LaneRoundState&, int) {}

 protected:
  const graph::DistributedGraph& graph_;
  int lane_bits_;

 private:
  comm::UpdateExchangeOptions exchange_;
  comm::ReduceMode reduce_mode_;
};

}  // namespace dsbfs::core

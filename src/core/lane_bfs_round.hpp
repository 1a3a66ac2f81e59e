#pragma once

#include <cstdint>
#include <span>

#include "core/batch_bfs.hpp"
#include "core/frontier.hpp"
#include "core/previsit.hpp"
#include "core/visit.hpp"
#include "engine/iterative_engine.hpp"
#include "sim/stream.hpp"

/// One lane-BFS round on the engine's phase hooks: the paper's BFS pipeline
/// (Fig. 3) with lane words in place of single bits -- previsit forms the
/// queues, visit enqueues the four kernels on the two streams, the normal
/// exchange rides the normal stream through the control allreduce, and the
/// post-control delegate-mask reduction overlaps it.
///
/// The one BFS stack.  DistributedBfs is the width-1 run, DistributedBatchBfs
/// the width-W run (both through run_lane_bfs, which adds seeding and parent
/// completion), and the serving scheduler derives from the round and adds
/// admission, reseed charging and per-lane retirement.  The kernels are
/// instantiated at W = 1 and at the runtime width; the round picks one set
/// at construction.  Internal to core.
namespace dsbfs::core {

/// The wire and reduce choices of a lane round, read off the owning
/// facade's options struct (BfsOptions, BatchBfsOptions, SchedulerOptions
/// spell these fields the same way; local all2all exists only on the
/// single-source options, compression only on the others).
struct LaneWire {
  /// Width 1 without compression: bare 4-byte ids on the id exchange,
  /// which carries local all2all (L) and uniquify (U).
  comm::ExchangeOptions ids;
  /// (id, lane word) updates on the update exchange: OR coalescing merges
  /// candidates for one destination, and the value is the lane word
  /// (`value_bytes` is set per width).  Width 1 with compression ships
  /// here too, with the implicit lane word 1 and 0 value bytes, so its
  /// byte counts stay those of a bare id.
  comm::UpdateExchangeOptions lanes;
  comm::ReduceMode reduce_mode = comm::ReduceMode::kBlocking;

  template <typename Options>
  static LaneWire of(const Options& options) {
    LaneWire w;
    w.ids = {.uniquify = options.uniquify,
             .topology = options.exchange_topology,
             .retry = options.resilience.retry};
    w.lanes = {.combine = options.uniquify ? comm::UpdateCombine::kOr
                                           : comm::UpdateCombine::kNone,
               .value_bytes = 0,
               .topology = options.exchange_topology,
               .retry = options.resilience.retry};
    if constexpr (requires { options.local_all2all; }) {
      w.ids.local_all2all = options.local_all2all;
    }
    if constexpr (requires { options.compress; }) {
      w.lanes.compress = options.compress;
      w.lanes.adaptive = options.adaptive_compress;
    }
    w.reduce_mode = options.reduce_mode;
    return w;
  }
};

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
  LaneBfsRound(const graph::DistributedGraph& graph, const LaneWire& wire,
               int lane_bits)
      : graph_(graph),
        lane_bits_(lane_bits),
        wire_(wire),
        kernels_(lane_bits == 1 ? Kernels::at<1>()
                                : Kernels::at<util::kAnyWidth>()) {
    wire_.lanes.value_bytes = lane_bits == 1 ? 0 : lane_bits / 8;
    comm::validate(wire_.lanes);
  }

  std::uint64_t state_bytes(const engine::GpuContext& ctx,
                            const LaneRoundState& s) const {
    // Per-lane depth arrays plus the three delegate lane masks; above
    // width 1 also the three normal lane masks (at width 1 the charge is
    // the single-source level array plus delegate masks).
    const std::uint64_t w = static_cast<std::uint64_t>(lane_bits_);
    const std::uint64_t normal_masks =
        lane_bits_ == 1 ? 0 : 3 * s.gpu.seen_normal.byte_size();
    return graph_.local(ctx.gpu).num_local_normals() * w * sizeof(Depth) +
           static_cast<std::uint64_t>(graph_.num_delegates()) * w *
               sizeof(Depth) +
           3 * s.gpu.delegate_visited.byte_size() + normal_masks;
  }

  void previsit(engine::GpuContext&, LaneRoundState& s, int) {
    s.gpu.begin_iteration();
    kernels_.delegate_previsit(s.gpu);
    kernels_.normal_previsit(s.gpu);
  }

  void visit(engine::GpuContext& ctx, LaneRoundState& s, int) {
    LaneState& gs = s.gpu;
    // Delegate stream: dd then dn visits.
    ctx.delegate_stream.enqueue([&gs, dd = kernels_.visit_dd] { dd(gs); });
    ctx.delegate_stream.enqueue([&gs, dn = kernels_.visit_dn] { dn(gs); });
    // Normal stream: nd, nn, then bin accounting (the engine enqueues the
    // exchange hook behind these).
    const sim::ClusterSpec& spec = ctx.comm.spec();
    ctx.normal_stream.enqueue([&gs, nd = kernels_.visit_nd] { nd(gs); });
    ctx.normal_stream.enqueue(
        [&gs, nn = kernels_.visit_nn, &spec] { nn(gs, spec); });
    s.bins_ready = ctx.normal_stream.record([&s] {
      s.bins_total = 0;
      for (const auto& bin : s.gpu.id_bins) s.bins_total += bin.size();
      for (const auto& bin : s.gpu.bins) s.bins_total += bin.size();
    });
  }

  void reduce(engine::GpuContext&, LaneRoundState&, int) {}  // post-control

  void exchange(engine::GpuContext& ctx, LaneRoundState& s, int iteration) {
    LaneState& gs = s.gpu;
    if (lane_bits_ > 1) {
      gs.received = ctx.comm.exchange_value_updates(ctx.me, gs.bins,
                                                    iteration, wire_.lanes,
                                                    gs.iter);
      return;
    }
    if (!wire_.lanes.compress) {
      comm::ExchangeCounters ec;
      gs.id_received = ctx.comm.normal_exchange().exchange(
          ctx.me, gs.id_bins, iteration, wire_.ids, ec);
      engine::record_exchange(std::move(ec), gs.iter);
      return;
    }
    // Compressed width 1: the varint codec lives on the update exchange,
    // so each id travels there with its implicit lane word.
    gs.bins.resize(gs.id_bins.size());
    for (std::size_t o = 0; o < gs.id_bins.size(); ++o) {
      gs.bins[o].clear();
      for (const LocalId v : gs.id_bins[o]) gs.bins[o].push_back({v, 1});
      gs.id_bins[o].clear();
    }
    const std::vector<comm::VertexUpdate> received =
        ctx.comm.exchange_value_updates(ctx.me, gs.bins, iteration,
                                        wire_.lanes, gs.iter);
    for (auto& bin : gs.bins) bin.clear();
    gs.id_received.clear();
    for (const comm::VertexUpdate& u : received) {
      gs.id_received.push_back(u.vertex);
    }
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
                                   wire_.reduce_mode);
    util::LaneBitset::diff_into(reduced, gs.delegate_visited,
                                gs.delegate_new);
    kernels_.fold_new_delegates(gs);
    gs.delegate_visited = reduced;
  }

  /// The shared head of end_iteration: join the exchange, fold the
  /// iteration's kernel rates into the direction controller (adaptive
  /// hybrid only) before the next previsit re-derives the factors, and
  /// advance the depth.
  void finish_round(engine::GpuContext& ctx, LaneRoundState& s) {
    ctx.normal_stream.synchronize();  // exchange complete; arrivals filled
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
  /// The width-dependent steps of one round, bound once per run.
  struct Kernels {
    void (*delegate_previsit)(LaneState&);
    void (*normal_previsit)(LaneState&);
    void (*visit_dd)(LaneState&);
    void (*visit_dn)(LaneState&);
    void (*visit_nd)(LaneState&);
    void (*visit_nn)(LaneState&, const sim::ClusterSpec&);
    void (*fold_new_delegates)(LaneState&);

    template <int W>
    static constexpr Kernels at() {
      return {&delegate_previsit_lanes<W>, &normal_previsit_lanes<W>,
              &visit_dd_lanes<W>,          &visit_dn_lanes<W>,
              &visit_nd_lanes<W>,          &visit_nn_lanes<W>,
              &fold_new_delegates_at<W>};
    }
  };

  /// Assign depths to the lanes the reduction just visited and maintain
  /// the all-lane unvisited pools, before the old visited mask is
  /// overwritten: a delegate leaves a pool when its first lane anywhere
  /// becomes visited (the single-source pool decrement at W = 1).  Only
  /// hybrid previsits read the pools.
  template <int W>
  static void fold_new_delegates_at(LaneState& gs) {
    const graph::LocalGraph& lg = gs.graph();
    const Depth next_depth = gs.depth + 1;
    gs.delegate_new.for_each_nonzero_lanes<W>(
        [&](std::size_t t, std::uint64_t w) {
          if (W == 1 || gs.delegate_visited.lanes<W>(t) == 0) {
            if (lg.dd_source_mask().test(t)) --gs.unvisited_dd_sources;
            if (lg.dn_source_mask().test(t)) --gs.unvisited_dn_sources;
          }
          for_each_lane<W>(w, [&](int lane) {
            gs.depth_delegate[gs.slot<W>(t, lane)] = next_depth;
          });
        });
  }

  LaneWire wire_;
  Kernels kernels_;
};

/// One lane-BFS run from `sources` (1..64 entries, lane l = sources[l];
/// width util::lane_width_for(sources.size())): seeding, the rounds, the
/// per-lane parent completion and the host gather.  `traversal` supplies
/// the direction, parents, engine and model choices (DistributedBatchBfs
/// passes the equivalent BfsOptions of its own), `wire` the exchange.
BatchBfsResult run_lane_bfs(const graph::DistributedGraph& graph,
                            sim::Cluster& cluster, const BfsOptions& traversal,
                            const LaneWire& wire,
                            std::span<const VertexId> sources);

}  // namespace dsbfs::core

#include "core/betweenness.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>

#include "core/metrics.hpp"
#include "engine/iterative_engine.hpp"

namespace dsbfs::core {

namespace {

/// Gathered forward-sweep state handed from the forward run to the reverse
/// run: per lane, hop depth and shortest-path count of every global vertex.
struct ForwardField {
  std::vector<std::vector<Depth>> depth;          // [lane][vertex]
  std::vector<std::vector<std::uint64_t>> sigma;  // [lane][vertex]
};

/// Forward MS-BFS lane sweep recording per-lane depths and sigma counts.
/// Sigma records subsume discovery: one (slot, contribution) record per
/// cross-GPU edge, kLaneSum-coalesced; the receiver discovers the slot on
/// first contact and keeps summing contributions addressed to its depth.
class BcForwardAlgorithm {
 public:
  static constexpr const char* kStateLabel = "bc_forward.state";

  struct State {
    std::vector<Depth> depth_normal;           // per (local normal, lane) slot
    std::vector<std::uint64_t> sigma_normal;   // per slot
    std::vector<Depth> depth_delegate;         // per (delegate, lane), replicated
    std::vector<std::uint64_t> sigma_delegate;
    std::vector<std::uint64_t> sigma_partial;  // this round's nd+dd sums
    std::vector<LocalId> frontier_normals;     // slots at the current level
    std::vector<LocalId> frontier_delegates;
    std::vector<LocalId> next_normals;
    std::vector<LocalId> next_delegates;
    // Vertex-grouping scratch (see BatchSsspAlgorithm): active lane masks,
    // stamped per round.
    std::vector<std::uint64_t> group_mask_normal;
    std::vector<std::uint64_t> group_stamp_normal;
    std::vector<std::uint64_t> group_mask_delegate;
    std::vector<std::uint64_t> group_stamp_delegate;
    std::uint64_t group_round = 0;
    Depth level = 0;
    std::vector<std::vector<comm::VertexUpdate>> bins;
    sim::GpuIterationCounters iter;
  };

  BcForwardAlgorithm(const graph::DistributedGraph& graph,
                     const BetweennessOptions& options,
                     const std::vector<VertexId>& sources)
      : graph_(graph), options_(options), sources_(sources),
        lanes_(static_cast<int>(sources.size())) {}

  std::unique_ptr<State> init(engine::GpuContext& ctx) {
    const sim::ClusterSpec& spec = graph_.spec();
    const graph::LocalGraph& lg = graph_.local(ctx.gpu);
    const graph::DelegateInfo& delegates = graph_.delegates();
    const LocalId d = graph_.num_delegates();
    const std::uint64_t n_local = lg.num_local_normals();
    const std::uint64_t w = static_cast<std::uint64_t>(lanes_);

    auto state = std::make_unique<State>();
    State& s = *state;
    s.depth_normal.assign(n_local * w, kUnvisited);
    s.sigma_normal.assign(n_local * w, 0);
    s.depth_delegate.assign(static_cast<std::uint64_t>(d) * w, kUnvisited);
    s.sigma_delegate.assign(static_cast<std::uint64_t>(d) * w, 0);
    s.sigma_partial.assign(static_cast<std::uint64_t>(d) * w, 0);
    s.group_mask_normal.assign(n_local, 0);
    s.group_stamp_normal.assign(n_local, 0);
    s.group_mask_delegate.assign(d, 0);
    s.group_stamp_delegate.assign(d, 0);
    s.bins.resize(static_cast<std::size_t>(ctx.total_gpus));

    for (int lane = 0; lane < lanes_; ++lane) {
      const VertexId src = sources_[static_cast<std::size_t>(lane)];
      const LocalId src_delegate = delegates.delegate_id(src);
      if (src_delegate != kInvalidLocal) {
        const LocalId sl = slot_of(src_delegate, lane);
        s.depth_delegate[sl] = 0;
        s.sigma_delegate[sl] = 1;
        s.frontier_delegates.push_back(sl);
      } else if (spec.owner_global_gpu(src) == ctx.gpu) {
        const LocalId local = static_cast<LocalId>(spec.local_index(src));
        const LocalId sl = slot_of(local, lane);
        s.depth_normal[sl] = 0;
        s.sigma_normal[sl] = 1;
        s.frontier_normals.push_back(sl);
      }
    }
    return state;
  }

  std::uint64_t state_bytes(const engine::GpuContext&, const State& s) const {
    return (s.depth_normal.size() + s.depth_delegate.size()) * 4 +
           (s.sigma_normal.size() + s.sigma_delegate.size() +
            s.sigma_partial.size()) *
               8 +
           (s.group_mask_normal.size() + s.group_mask_delegate.size()) * 16;
  }

  using Snapshot = State;
  Snapshot snapshot(engine::GpuContext&, const State& s) const { return s; }
  void restore(engine::GpuContext&, State& s, const Snapshot& snap) {
    s = snap;
  }

  void previsit(engine::GpuContext&, State& s, int) {
    s.iter = sim::GpuIterationCounters{};
    s.next_normals.clear();
    s.next_delegates.clear();
    s.iter.nprev_vertices = s.frontier_normals.size();
    s.iter.dprev_vertices = s.frontier_delegates.size();
  }

  void visit(engine::GpuContext& ctx, State& s, int) {
    const sim::ClusterSpec& spec = graph_.spec();
    const graph::LocalGraph& lg = graph_.local(ctx.gpu);
    const std::uint64_t p = static_cast<std::uint64_t>(ctx.total_gpus);
    const Depth next_level = s.level + 1;

    ++s.group_round;
    const std::vector<LocalId> verts_n =
        group_by_vertex(s.frontier_normals, s.group_mask_normal,
                        s.group_stamp_normal, s.group_round);
    const std::vector<LocalId> verts_d =
        group_by_vertex(s.frontier_delegates, s.group_mask_delegate,
                        s.group_stamp_delegate, s.group_round);

    std::array<std::uint64_t, 64> lane_sigma;

    // ---- nn: sigma records travel to the owner (discovery rides along). --
    {
      sim::KernelCounters& k = s.iter.nn;
      k.launched = !verts_n.empty();
      for (const LocalId v : verts_n) {
        const std::uint64_t lanes = s.group_mask_normal[v];
        load_lane_sigma(s.sigma_normal, v, lanes, lane_sigma);
        for (const VertexId dst : lg.nn().row(v)) {
          const std::size_t owner =
              static_cast<std::size_t>(spec.owner_global_gpu(dst));
          const LocalId dst_local = static_cast<LocalId>(dst / p);
          for (std::uint64_t mm = lanes; mm != 0; mm &= mm - 1) {
            const int lane = std::countr_zero(mm);
            s.bins[owner].push_back(comm::VertexUpdate{
                slot_of(dst_local, lane),
                lane_sigma[static_cast<std::size_t>(lane)]});
          }
          ++k.edges;
        }
      }
      k.vertices = verts_n.size();
    }

    // ---- nd: normals accumulate into the delegate sigma partials. --------
    {
      sim::KernelCounters& k = s.iter.nd;
      k.launched = !verts_n.empty();
      for (const LocalId v : verts_n) {
        const std::uint64_t lanes = s.group_mask_normal[v];
        load_lane_sigma(s.sigma_normal, v, lanes, lane_sigma);
        for (const LocalId c : lg.nd().row(v)) {
          for (std::uint64_t mm = lanes; mm != 0; mm &= mm - 1) {
            const int lane = std::countr_zero(mm);
            s.sigma_partial[slot_of(c, lane)] +=
                lane_sigma[static_cast<std::size_t>(lane)];
          }
          ++k.edges;
        }
      }
      k.vertices = verts_n.size();
    }

    // ---- dd: delegates accumulate into the partials (edges partitioned
    // across GPUs, so the sum reduction counts each exactly once). ---------
    {
      sim::KernelCounters& k = s.iter.dd;
      k.launched = !verts_d.empty();
      for (const LocalId t : verts_d) {
        const std::uint64_t lanes = s.group_mask_delegate[t];
        load_lane_sigma(s.sigma_delegate, t, lanes, lane_sigma);
        for (const LocalId c : lg.dd().row(t)) {
          for (std::uint64_t mm = lanes; mm != 0; mm &= mm - 1) {
            const int lane = std::countr_zero(mm);
            s.sigma_partial[slot_of(c, lane)] +=
                lane_sigma[static_cast<std::size_t>(lane)];
          }
          ++k.edges;
        }
      }
      k.vertices = verts_d.size();
    }

    // ---- dn: delegates discover/accumulate local normals directly. -------
    {
      sim::KernelCounters& k = s.iter.dn;
      k.launched = !verts_d.empty();
      for (const LocalId t : verts_d) {
        const std::uint64_t lanes = s.group_mask_delegate[t];
        load_lane_sigma(s.sigma_delegate, t, lanes, lane_sigma);
        for (const LocalId v : lg.dn().row(t)) {
          for (std::uint64_t mm = lanes; mm != 0; mm &= mm - 1) {
            const int lane = std::countr_zero(mm);
            const LocalId sl = slot_of(v, lane);
            if (s.depth_normal[sl] == kUnvisited) {
              s.depth_normal[sl] = next_level;
              s.next_normals.push_back(sl);
            }
            if (s.depth_normal[sl] == next_level) {
              s.sigma_normal[sl] +=
                  lane_sigma[static_cast<std::size_t>(lane)];
            }
          }
          ++k.edges;
        }
      }
      k.vertices = verts_d.size();
    }
  }

  void reduce(engine::GpuContext& ctx, State& s, int iteration) {
    // One d x W-word sum collective settles every lane's delegate sigma for
    // the level; all GPUs fold the identical totals, keeping the replicated
    // depth/sigma in lockstep.
    ctx.comm.value_reducer().reduce(
        ctx.me,
        std::span<std::uint64_t>(s.sigma_partial.data(),
                                 s.sigma_partial.size()),
        comm::ValueReducer::Op::kSum, iteration);
    s.iter.delegate_update = true;
    const Depth next_level = s.level + 1;
    for (std::size_t sl = 0; sl < s.sigma_partial.size(); ++sl) {
      const std::uint64_t part = s.sigma_partial[sl];
      if (part == 0) continue;
      s.sigma_partial[sl] = 0;
      if (s.depth_delegate[sl] == kUnvisited) {
        s.depth_delegate[sl] = next_level;
        s.next_delegates.push_back(static_cast<LocalId>(sl));
      }
      if (s.depth_delegate[sl] == next_level) {
        s.sigma_delegate[sl] += part;
      }
    }
  }

  void exchange(engine::GpuContext& ctx, State& s, int iteration) {
    const auto updates = ctx.comm.exchange_value_updates(
        ctx.me, s.bins, iteration,
        {.combine = options_.uniquify ? comm::UpdateCombine::kLaneSum
                                      : comm::UpdateCombine::kNone,
         .lane_value_bits = 64,
         .topology = options_.exchange_topology,
         .retry = options_.resilience.retry},
        s.iter);
    const Depth next_level = s.level + 1;
    for (const comm::VertexUpdate& u : updates) {
      if (s.depth_normal[u.vertex] == kUnvisited) {
        s.depth_normal[u.vertex] = next_level;
        s.next_normals.push_back(u.vertex);
      }
      if (s.depth_normal[u.vertex] == next_level) {
        s.sigma_normal[u.vertex] += u.value;
      }
    }
  }

  std::uint64_t contribution(engine::GpuContext& ctx, State& s, int) {
    ctx.delegate_stream.synchronize();
    ctx.normal_stream.synchronize();
    return s.next_normals.size() + s.next_delegates.size();
  }

  void post_reduce(engine::GpuContext&, State&, int, std::uint64_t) {}

  bool end_iteration(engine::GpuContext&, State& s, int,
                     std::uint64_t control) {
    s.frontier_normals = std::move(s.next_normals);
    s.frontier_delegates = std::move(s.next_delegates);
    s.next_normals = {};
    s.next_delegates = {};
    ++s.level;
    return control == 0;
  }

  bool collect_counters() const { return options_.collect_counters; }
  sim::GpuIterationCounters iteration_counters(const State& s) const {
    return s.iter;
  }

  void finalize(engine::GpuContext&, State&, int) {}

 private:
  LocalId slot_of(LocalId v, int lane) const noexcept {
    return static_cast<LocalId>(
        static_cast<std::uint64_t>(v) * static_cast<std::uint64_t>(lanes_) +
        static_cast<std::uint64_t>(lane));
  }

  std::vector<LocalId> group_by_vertex(const std::vector<LocalId>& slots,
                                       std::vector<std::uint64_t>& mask,
                                       std::vector<std::uint64_t>& stamp,
                                       std::uint64_t round) const {
    std::vector<LocalId> verts;
    for (const LocalId sl : slots) {
      const LocalId v = sl / static_cast<LocalId>(lanes_);
      const int lane = static_cast<int>(sl % static_cast<LocalId>(lanes_));
      if (stamp[v] != round) {
        stamp[v] = round;
        mask[v] = 0;
        verts.push_back(v);
      }
      mask[v] |= 1ULL << lane;
    }
    return verts;
  }

  void load_lane_sigma(const std::vector<std::uint64_t>& sigma, LocalId v,
                       std::uint64_t lanes,
                       std::array<std::uint64_t, 64>& out) const {
    for (std::uint64_t mm = lanes; mm != 0; mm &= mm - 1) {
      const int lane = std::countr_zero(mm);
      out[static_cast<std::size_t>(lane)] = sigma[slot_of(v, lane)];
    }
  }

  const graph::DistributedGraph& graph_;
  const BetweennessOptions& options_;
  const std::vector<VertexId>& sources_;
  int lanes_;
};

/// One dependency contribution: `coef` (bit-cast double) from successor
/// `w` aimed at `slot`.  Folds sort by (slot, w) so every target adds its
/// terms ascending by successor global id -- the serial oracle's order.
struct Contribution {
  LocalId slot;
  VertexId w;
  std::uint64_t coef;
  bool operator<(const Contribution& o) const noexcept {
    return slot != o.slot ? slot < o.slot : w < o.w;
  }
};

/// Reverse dependency pass over levels D -> 1 (see betweenness.hpp).
class BcReverseAlgorithm {
 public:
  static constexpr const char* kStateLabel = "bc_reverse.state";

  struct State {
    std::vector<Depth> depth_normal;  // per slot, from the forward sweep
    std::vector<std::uint64_t> sigma_normal;
    std::vector<double> delta_normal;
    std::vector<Depth> depth_delegate;  // replicated
    std::vector<std::uint64_t> sigma_delegate;
    std::vector<double> delta_delegate;
    std::vector<std::vector<LocalId>> levels_normal;  // slots by depth
    std::vector<std::vector<LocalId>> levels_delegate;
    std::vector<std::uint64_t> group_mask_normal;
    std::vector<std::uint64_t> group_stamp_normal;
    std::vector<std::uint64_t> group_mask_delegate;
    std::vector<std::uint64_t> group_stamp_delegate;
    std::uint64_t group_round = 0;
    Depth current = 0;  // level this iteration distributes from
    // Outbound triples built by visit, shipped and folded by exchange.
    std::vector<std::vector<std::uint64_t>> tuples;  // per destination GPU
    std::vector<std::uint64_t> delegate_tuples;      // allgathered
    std::vector<Contribution> local_contribs;        // dn: already at target
    sim::GpuIterationCounters iter;
  };

  BcReverseAlgorithm(const graph::DistributedGraph& graph,
                     const BetweennessOptions& options,
                     const ForwardField& fwd, Depth max_depth)
      : graph_(graph), options_(options), fwd_(fwd), max_depth_(max_depth),
        lanes_(static_cast<int>(fwd.depth.size())) {}

  std::unique_ptr<State> init(engine::GpuContext& ctx) {
    const sim::ClusterSpec& spec = graph_.spec();
    const graph::LocalGraph& lg = graph_.local(ctx.gpu);
    const graph::DelegateInfo& delegates = graph_.delegates();
    const LocalId d = graph_.num_delegates();
    const std::uint64_t n_local = lg.num_local_normals();
    const std::uint64_t w = static_cast<std::uint64_t>(lanes_);

    auto state = std::make_unique<State>();
    State& s = *state;
    s.depth_normal.assign(n_local * w, kUnvisited);
    s.sigma_normal.assign(n_local * w, 0);
    s.delta_normal.assign(n_local * w, 0.0);
    s.depth_delegate.assign(static_cast<std::uint64_t>(d) * w, kUnvisited);
    s.sigma_delegate.assign(static_cast<std::uint64_t>(d) * w, 0);
    s.delta_delegate.assign(static_cast<std::uint64_t>(d) * w, 0.0);
    s.levels_normal.resize(static_cast<std::size_t>(max_depth_) + 1);
    s.levels_delegate.resize(static_cast<std::size_t>(max_depth_) + 1);
    s.group_mask_normal.assign(n_local, 0);
    s.group_stamp_normal.assign(n_local, 0);
    s.group_mask_delegate.assign(d, 0);
    s.group_stamp_delegate.assign(d, 0);
    s.tuples.resize(static_cast<std::size_t>(ctx.total_gpus));
    s.current = max_depth_;

    for (std::uint64_t v = 0; v < n_local; ++v) {
      const VertexId vg =
          spec.global_vertex(ctx.me.rank, ctx.me.gpu, static_cast<LocalId>(v));
      for (int lane = 0; lane < lanes_; ++lane) {
        const Depth dep = fwd_.depth[static_cast<std::size_t>(lane)][vg];
        const LocalId sl = slot_of(static_cast<LocalId>(v), lane);
        s.depth_normal[sl] = dep;
        s.sigma_normal[sl] = fwd_.sigma[static_cast<std::size_t>(lane)][vg];
        if (dep >= 1) {
          s.levels_normal[static_cast<std::size_t>(dep)].push_back(sl);
        }
      }
    }
    for (LocalId t = 0; t < d; ++t) {
      const VertexId vg = delegates.vertex_of(t);
      for (int lane = 0; lane < lanes_; ++lane) {
        const Depth dep = fwd_.depth[static_cast<std::size_t>(lane)][vg];
        const LocalId sl = slot_of(t, lane);
        s.depth_delegate[sl] = dep;
        s.sigma_delegate[sl] = fwd_.sigma[static_cast<std::size_t>(lane)][vg];
        if (dep >= 1) {
          s.levels_delegate[static_cast<std::size_t>(dep)].push_back(sl);
        }
      }
    }
    return state;
  }

  std::uint64_t state_bytes(const engine::GpuContext&, const State& s) const {
    return (s.depth_normal.size() + s.depth_delegate.size()) * 4 +
           (s.sigma_normal.size() + s.sigma_delegate.size()) * 8 +
           (s.delta_normal.size() + s.delta_delegate.size()) * 8;
  }

  using Snapshot = State;
  Snapshot snapshot(engine::GpuContext&, const State& s) const { return s; }
  void restore(engine::GpuContext&, State& s, const Snapshot& snap) {
    s = snap;
  }

  void previsit(engine::GpuContext&, State& s, int) {
    s.iter = sim::GpuIterationCounters{};
    s.delegate_tuples.clear();
    s.local_contribs.clear();
    if (s.current >= 1) {
      s.iter.nprev_vertices =
          s.levels_normal[static_cast<std::size_t>(s.current)].size();
      s.iter.dprev_vertices =
          s.levels_delegate[static_cast<std::size_t>(s.current)].size();
    }
  }

  void visit(engine::GpuContext& ctx, State& s, int) {
    if (s.current < 1) return;
    const sim::ClusterSpec& spec = graph_.spec();
    const graph::LocalGraph& lg = graph_.local(ctx.gpu);
    const graph::DelegateInfo& delegates = graph_.delegates();
    const std::uint64_t p = static_cast<std::uint64_t>(ctx.total_gpus);
    const std::size_t d_lvl = static_cast<std::size_t>(s.current);

    ++s.group_round;
    const std::vector<LocalId> verts_n =
        group_by_vertex(s.levels_normal[d_lvl], s.group_mask_normal,
                        s.group_stamp_normal, s.group_round);
    const std::vector<LocalId> verts_d =
        group_by_vertex(s.levels_delegate[d_lvl], s.group_mask_delegate,
                        s.group_stamp_delegate, s.group_round);

    std::array<std::uint64_t, 64> lane_coef;
    const auto coefs_of = [&](std::uint64_t lanes, const Depth* depth,
                              const std::uint64_t* sigma, const double* delta,
                              LocalId item) {
      for (std::uint64_t mm = lanes; mm != 0; mm &= mm - 1) {
        const int lane = std::countr_zero(mm);
        const LocalId sl = slot_of(item, lane);
        (void)depth;
        lane_coef[static_cast<std::size_t>(lane)] = std::bit_cast<
            std::uint64_t>((1.0 + delta[sl]) /
                           static_cast<double>(sigma[sl]));
      }
    };

    // ---- normal successors w: nn triples to the owner, nd triples into
    // the delegate allgather. ---------------------------------------------
    {
      sim::KernelCounters& k = s.iter.nn;
      sim::KernelCounters& knd = s.iter.nd;
      k.launched = knd.launched = !verts_n.empty();
      for (const LocalId v : verts_n) {
        const std::uint64_t lanes = s.group_mask_normal[v];
        coefs_of(lanes, s.depth_normal.data(), s.sigma_normal.data(),
                 s.delta_normal.data(), v);
        const VertexId w_global =
            spec.global_vertex(ctx.me.rank, ctx.me.gpu, v);
        for (const VertexId dst : lg.nn().row(v)) {
          const std::size_t owner =
              static_cast<std::size_t>(spec.owner_global_gpu(dst));
          const LocalId dst_local = static_cast<LocalId>(dst / p);
          for (std::uint64_t mm = lanes; mm != 0; mm &= mm - 1) {
            const int lane = std::countr_zero(mm);
            auto& bin = s.tuples[owner];
            bin.push_back(slot_of(dst_local, lane));
            bin.push_back(w_global);
            bin.push_back(lane_coef[static_cast<std::size_t>(lane)]);
          }
          ++k.edges;
        }
        for (const LocalId c : lg.nd().row(v)) {
          for (std::uint64_t mm = lanes; mm != 0; mm &= mm - 1) {
            const int lane = std::countr_zero(mm);
            s.delegate_tuples.push_back(slot_of(c, lane));
            s.delegate_tuples.push_back(w_global);
            s.delegate_tuples.push_back(
                lane_coef[static_cast<std::size_t>(lane)]);
          }
          ++knd.edges;
        }
      }
      k.vertices = knd.vertices = verts_n.size();
    }

    // ---- delegate successors t: dn contributions are already at their
    // target GPU; dd contributions join the allgather (dd edges are
    // partitioned, so each GPU only knows its share). ----------------------
    {
      sim::KernelCounters& kdn = s.iter.dn;
      sim::KernelCounters& kdd = s.iter.dd;
      kdn.launched = kdd.launched = !verts_d.empty();
      for (const LocalId t : verts_d) {
        const std::uint64_t lanes = s.group_mask_delegate[t];
        coefs_of(lanes, s.depth_delegate.data(), s.sigma_delegate.data(),
                 s.delta_delegate.data(), t);
        const VertexId w_global = delegates.vertex_of(t);
        for (const LocalId v : lg.dn().row(t)) {
          for (std::uint64_t mm = lanes; mm != 0; mm &= mm - 1) {
            const int lane = std::countr_zero(mm);
            s.local_contribs.push_back(Contribution{
                slot_of(v, lane), w_global,
                lane_coef[static_cast<std::size_t>(lane)]});
          }
          ++kdn.edges;
        }
        for (const LocalId c : lg.dd().row(t)) {
          for (std::uint64_t mm = lanes; mm != 0; mm &= mm - 1) {
            const int lane = std::countr_zero(mm);
            s.delegate_tuples.push_back(slot_of(c, lane));
            s.delegate_tuples.push_back(w_global);
            s.delegate_tuples.push_back(
                lane_coef[static_cast<std::size_t>(lane)]);
          }
          ++kdd.edges;
        }
        kdn.vertices = kdd.vertices = verts_d.size();
      }
    }
  }

  void reduce(engine::GpuContext&, State&, int) {}

  void exchange(engine::GpuContext& ctx, State& s, int iteration) {
    if (s.current < 1) return;
    const sim::ClusterSpec& spec = graph_.spec();
    comm::Transport& transport = ctx.comm.transport();
    const int p = ctx.total_gpus;
    const int g = ctx.gpu;
    const int my_rank = ctx.me.rank;
    const int nn_tag = engine::TagBlocks::user(iteration, 5);
    const int bc_tag = engine::TagBlocks::user(iteration, 6);

    const auto charge = [&](int peer, std::uint64_t bytes, bool sending) {
      if (spec.coord_of(peer).rank == my_rank) {
        s.iter.local_all2all_bytes += bytes;
      } else if (sending) {
        s.iter.send_bytes_remote += bytes;
      } else {
        s.iter.recv_bytes_remote += bytes;
      }
    };

    // nn triples: all-to-all to each target's owner.
    std::vector<Contribution> normal_contribs = std::move(s.local_contribs);
    const auto absorb = [&](const std::vector<std::uint64_t>& words) {
      for (std::size_t i = 0; i + 2 < words.size(); i += 3) {
        normal_contribs.push_back(
            Contribution{static_cast<LocalId>(words[i]), words[i + 1],
                         words[i + 2]});
      }
    };
    for (int o = 0; o < p; ++o) {
      if (o == g) continue;
      charge(o, s.tuples[static_cast<std::size_t>(o)].size() * 8, true);
      transport.send(g, o, nn_tag,
                     std::move(s.tuples[static_cast<std::size_t>(o)]));
      s.tuples[static_cast<std::size_t>(o)] = {};
    }
    absorb(s.tuples[static_cast<std::size_t>(g)]);
    s.tuples[static_cast<std::size_t>(g)].clear();
    for (int o = 0; o < p; ++o) {
      if (o == g) continue;
      const auto words = transport.recv(g, o, nn_tag);
      charge(o, words.size() * 8, false);
      absorb(words);
    }

    // Delegate triples: allgather so every GPU folds the identical set.
    std::vector<Contribution> delegate_contribs;
    const auto absorb_delegate = [&](const std::vector<std::uint64_t>& words) {
      for (std::size_t i = 0; i + 2 < words.size(); i += 3) {
        delegate_contribs.push_back(
            Contribution{static_cast<LocalId>(words[i]), words[i + 1],
                         words[i + 2]});
      }
    };
    for (int o = 0; o < p; ++o) {
      if (o == g) continue;
      charge(o, s.delegate_tuples.size() * 8, true);
      transport.send(g, o, bc_tag, s.delegate_tuples);
    }
    absorb_delegate(s.delegate_tuples);
    for (int o = 0; o < p; ++o) {
      if (o == g) continue;
      const auto words = transport.recv(g, o, bc_tag);
      charge(o, words.size() * 8, false);
      absorb_delegate(words);
    }

    // Fold ascending by (slot, w): only predecessors (one level up) accept.
    const Depth pred_level = s.current - 1;
    std::sort(normal_contribs.begin(), normal_contribs.end());
    for (const Contribution& c : normal_contribs) {
      if (s.depth_normal[c.slot] != pred_level) continue;
      s.delta_normal[c.slot] +=
          static_cast<double>(s.sigma_normal[c.slot]) *
          std::bit_cast<double>(c.coef);
    }
    std::sort(delegate_contribs.begin(), delegate_contribs.end());
    for (const Contribution& c : delegate_contribs) {
      if (s.depth_delegate[c.slot] != pred_level) continue;
      s.delta_delegate[c.slot] +=
          static_cast<double>(s.sigma_delegate[c.slot]) *
          std::bit_cast<double>(c.coef);
    }
  }

  std::uint64_t contribution(engine::GpuContext& ctx, State& s, int) {
    ctx.delegate_stream.synchronize();
    ctx.normal_stream.synchronize();
    return s.current > 1 ? static_cast<std::uint64_t>(s.current - 1) : 0;
  }

  void post_reduce(engine::GpuContext&, State&, int, std::uint64_t) {}

  bool end_iteration(engine::GpuContext&, State& s, int,
                     std::uint64_t control) {
    if (s.current >= 1) --s.current;
    return control == 0;
  }

  bool collect_counters() const { return options_.collect_counters; }
  sim::GpuIterationCounters iteration_counters(const State& s) const {
    return s.iter;
  }

  void finalize(engine::GpuContext&, State&, int) {}

 private:
  LocalId slot_of(LocalId v, int lane) const noexcept {
    return static_cast<LocalId>(
        static_cast<std::uint64_t>(v) * static_cast<std::uint64_t>(lanes_) +
        static_cast<std::uint64_t>(lane));
  }

  std::vector<LocalId> group_by_vertex(const std::vector<LocalId>& slots,
                                       std::vector<std::uint64_t>& mask,
                                       std::vector<std::uint64_t>& stamp,
                                       std::uint64_t round) const {
    std::vector<LocalId> verts;
    for (const LocalId sl : slots) {
      const LocalId v = sl / static_cast<LocalId>(lanes_);
      const int lane = static_cast<int>(sl % static_cast<LocalId>(lanes_));
      if (stamp[v] != round) {
        stamp[v] = round;
        mask[v] = 0;
        verts.push_back(v);
      }
      mask[v] |= 1ULL << lane;
    }
    return verts;
  }

  const graph::DistributedGraph& graph_;
  const BetweennessOptions& options_;
  const ForwardField& fwd_;
  Depth max_depth_;
  int lanes_;
};

}  // namespace

BetweennessCentrality::BetweennessCentrality(
    const graph::DistributedGraph& graph, sim::Cluster& cluster,
    BetweennessOptions options)
    : graph_(graph), cluster_(cluster), options_(options) {
  engine::check_facade_setup(graph, cluster, options_.exchange_topology);
}

BetweennessResult BetweennessCentrality::run(
    const std::vector<VertexId>& sources) {
  if (sources.empty() || sources.size() > 64) {
    throw std::invalid_argument("betweenness takes 1 to 64 sources");
  }
  for (const VertexId s : sources) {
    if (s >= graph_.num_vertices()) {
      throw std::out_of_range("betweenness source out of range");
    }
  }
  const sim::ClusterSpec spec = graph_.spec();
  const int p = spec.total_gpus();
  const LocalId d = graph_.num_delegates();
  const int w = static_cast<int>(sources.size());
  const std::uint64_t n = graph_.num_vertices();

  BetweennessResult result;

  // ---- Run 1: forward MS-BFS lane sweep. --------------------------------
  BcForwardAlgorithm forward(graph_, options_, sources);
  engine::IterativeEngine<BcForwardAlgorithm> fwd_engine(
      graph_, cluster_,
      {.overlap = options_.overlap, .resilience = options_.resilience});
  auto fwd_run = fwd_engine.run(forward);
  result.forward_iterations = fwd_run.iterations;
  result.measured_ms += fwd_run.measured_ms;
  result.forward_fault = fwd_run.fault;

  // Gather per-lane depth and sigma fields; the reverse run seeds from them.
  ForwardField fwd;
  fwd.depth.assign(static_cast<std::size_t>(w),
                   std::vector<Depth>(n, kUnvisited));
  fwd.sigma.assign(static_cast<std::size_t>(w),
                   std::vector<std::uint64_t>(n, 0));
  for (int g = 0; g < p; ++g) {
    const auto& s = fwd_run.state(g);
    const sim::GpuCoord me = spec.coord_of(g);
    const std::uint64_t n_local = s.depth_normal.size() /
                                  static_cast<std::uint64_t>(w);
    for (std::uint64_t v = 0; v < n_local; ++v) {
      const VertexId vg =
          spec.global_vertex(me.rank, me.gpu, static_cast<LocalId>(v));
      for (int lane = 0; lane < w; ++lane) {
        const std::size_t sl =
            v * static_cast<std::uint64_t>(w) + static_cast<std::size_t>(lane);
        fwd.depth[static_cast<std::size_t>(lane)][vg] = s.depth_normal[sl];
        fwd.sigma[static_cast<std::size_t>(lane)][vg] = s.sigma_normal[sl];
      }
    }
  }
  const auto& fs0 = fwd_run.state(0);
  for (LocalId t = 0; t < d; ++t) {
    const VertexId vg = graph_.delegates().vertex_of(t);
    for (int lane = 0; lane < w; ++lane) {
      const std::size_t sl = static_cast<std::uint64_t>(t) * w +
                             static_cast<std::size_t>(lane);
      fwd.depth[static_cast<std::size_t>(lane)][vg] = fs0.depth_delegate[sl];
      fwd.sigma[static_cast<std::size_t>(lane)][vg] = fs0.sigma_delegate[sl];
    }
  }
  Depth max_depth = 0;
  for (int lane = 0; lane < w; ++lane) {
    for (std::uint64_t v = 0; v < n; ++v) {
      const Depth dep = fwd.depth[static_cast<std::size_t>(lane)][v];
      if (dep != kUnvisited && dep > max_depth) max_depth = dep;
    }
  }
  result.max_depth = max_depth;

  // ---- Run 2: reverse dependency pass. ----------------------------------
  BcReverseAlgorithm reverse(graph_, options_, fwd, max_depth);
  engine::IterativeEngine<BcReverseAlgorithm> rev_engine(
      graph_, cluster_,
      {.overlap = options_.overlap, .resilience = options_.resilience});
  auto rev_run = rev_engine.run(reverse);
  result.reverse_iterations = rev_run.iterations;
  result.measured_ms += rev_run.measured_ms;
  result.reverse_fault = rev_run.fault;

  // ---- Accumulate scores: lane order, skipping each lane's source. ------
  std::vector<std::vector<double>> delta(
      static_cast<std::size_t>(w), std::vector<double>(n, 0.0));
  for (int g = 0; g < p; ++g) {
    const auto& s = rev_run.state(g);
    const sim::GpuCoord me = spec.coord_of(g);
    const std::uint64_t n_local =
        s.delta_normal.size() / static_cast<std::uint64_t>(w);
    for (std::uint64_t v = 0; v < n_local; ++v) {
      const VertexId vg =
          spec.global_vertex(me.rank, me.gpu, static_cast<LocalId>(v));
      for (int lane = 0; lane < w; ++lane) {
        delta[static_cast<std::size_t>(lane)][vg] =
            s.delta_normal[v * static_cast<std::uint64_t>(w) +
                           static_cast<std::size_t>(lane)];
      }
    }
  }
  const auto& rs0 = rev_run.state(0);
  for (LocalId t = 0; t < d; ++t) {
    const VertexId vg = graph_.delegates().vertex_of(t);
    for (int lane = 0; lane < w; ++lane) {
      delta[static_cast<std::size_t>(lane)][vg] =
          rs0.delta_delegate[static_cast<std::uint64_t>(t) * w +
                             static_cast<std::size_t>(lane)];
    }
  }
  result.scores.assign(n, 0.0);
  for (int lane = 0; lane < w; ++lane) {
    const VertexId src = sources[static_cast<std::size_t>(lane)];
    for (std::uint64_t v = 0; v < n; ++v) {
      if (v == src) continue;
      result.scores[v] += delta[static_cast<std::size_t>(lane)][v];
    }
  }

  // ---- Model: the two replays stitched end to end. ----------------------
  if (options_.collect_counters) {
    ValueAppMetrics vf = assemble_value_app_metrics(
        graph_, fwd_run.histories, options_.overlap, options_.device_model,
        options_.net_model, static_cast<std::uint64_t>(w));
    ValueAppMetrics vr = assemble_value_app_metrics(
        graph_, rev_run.histories, options_.overlap, options_.device_model,
        options_.net_model, 0);
    result.update_bytes_remote =
        vf.update_bytes_remote + vr.update_bytes_remote;
    result.reduce_bytes = vf.reduce_bytes;
    result.modeled = sim::compose_breakdowns(vf.modeled, vr.modeled);
    result.modeled_ms = result.modeled.elapsed_ms;
  }
  return result;
}

}  // namespace dsbfs::core

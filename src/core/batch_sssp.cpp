#include "core/batch_sssp.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <span>
#include <stdexcept>

#include "core/bucket.hpp"
#include "core/metrics.hpp"
#include "engine/iterative_engine.hpp"
#include "util/hash.hpp"
#include "util/lane_value_slab.hpp"

namespace dsbfs::core {

namespace {

/// Batched delta-stepping as engine phases (see batch_sssp.hpp and the
/// round structure in delta_sssp.hpp).  Queue entries are (vertex, lane)
/// slots, distances live in util::LaneValueSlab words, and the relax
/// kernels sweep each active vertex's edges once for all of its active
/// lanes.  The previsit's agreement collective decides what the round is
/// (open the next bucket / another light sub-round / the heavy round);
/// every mode transition is a pure function of globally-agreed values, so
/// all GPUs move through identical (bucket, phase) sequences in lockstep.
class BatchSsspAlgorithm {
 public:
  static constexpr const char* kStateLabel = "batch_sssp.state";

  enum class Mode { kOpenBucket, kLight, kDone };

  struct State {
    util::LaneValueSlab dist_normal;    // per local normal x lane
    util::LaneValueSlab dist_delegate;  // per delegate x lane, replicated
    util::LaneValueSlab delegate_cand;  // this round's candidates
    std::vector<std::uint64_t> reduce_scratch;  // packed candidate words
    BucketState normal_buckets;    // keyed by slot = v * W + lane
    BucketState delegate_buckets;  // replicated, identical on every GPU
    std::vector<LocalId> fresh_normals;  // this light round's input slots
    std::vector<LocalId> fresh_delegates;
    std::vector<LocalId> next_normals;  // slot improvements this round
    std::vector<LocalId> next_delegates;
    std::vector<LocalId> settled_normals;  // slots relaxed in the open bucket
    std::vector<LocalId> settled_delegates;
    std::vector<std::uint64_t> settled_epoch_normal;  // per-slot dedup stamps
    std::vector<std::uint64_t> settled_epoch_delegate;
    // Vertex-grouping scratch of the relax kernels: per-vertex active lane
    // masks, stamped per (round, phase) so no clearing sweep is needed.
    std::vector<std::uint64_t> group_mask_normal;
    std::vector<std::uint64_t> group_stamp_normal;
    std::vector<std::uint64_t> group_mask_delegate;
    std::vector<std::uint64_t> group_stamp_delegate;
    std::uint64_t group_round = 0;
    std::uint64_t epoch = 0;  // bucket-open counter (= settled stamp)
    std::uint64_t current_bucket = kNoBucket;
    Mode mode = Mode::kOpenBucket;
    bool heavy_round = false;
    bool overflow = false;         // some candidate hit the width sentinel
    std::uint64_t value_bias = 0;  // replicated wire bias for this round
    EdgePartition part_nn, part_nd, part_dn, part_dd;
    std::vector<std::vector<comm::VertexUpdate>> bins;
    sim::GpuIterationCounters iter;
  };

  BatchSsspAlgorithm(const graph::DistributedGraph& graph,
                     const BatchSsspOptions& options,
                     const std::vector<VertexId>& sources)
      : graph_(graph),
        options_(options),
        sources_(sources),
        lanes_(static_cast<int>(sources.size())) {}

  std::unique_ptr<State> init(engine::GpuContext& ctx) {
    const sim::ClusterSpec& spec = graph_.spec();
    const graph::LocalGraph& lg = graph_.local(ctx.gpu);
    const graph::DelegateInfo& delegates = graph_.delegates();
    const LocalId d = graph_.num_delegates();
    const std::uint64_t n_local = lg.num_local_normals();
    const int w = lanes_;

    auto state = std::make_unique<State>();
    State& s = *state;
    s.dist_normal.resize(n_local, w, options_.value_bits);
    s.dist_normal.fill(s.dist_normal.value_mask());
    s.dist_delegate.resize(d, w, options_.value_bits);
    s.dist_delegate.fill(s.dist_delegate.value_mask());
    s.delegate_cand.resize(d, w, options_.value_bits);
    s.reduce_scratch.assign(s.delegate_cand.word_count(), 0);
    s.settled_epoch_normal.assign(n_local * static_cast<std::uint64_t>(w), 0);
    s.settled_epoch_delegate.assign(static_cast<std::uint64_t>(d) * w, 0);
    s.group_mask_normal.assign(n_local, 0);
    s.group_stamp_normal.assign(n_local, 0);
    s.group_mask_delegate.assign(d, 0);
    s.group_stamp_delegate.assign(d, 0);
    s.normal_buckets = BucketState(options_.delta);
    s.delegate_buckets = BucketState(options_.delta);
    s.bins.resize(static_cast<std::size_t>(ctx.total_gpus));

    const auto global_of = [&](LocalId v) {
      return spec.global_vertex(ctx.me.rank, ctx.me.gpu, v);
    };
    const std::uint64_t delta = options_.delta;
    s.part_nn = EdgePartition::build(
        lg.nn(), delta, [&](std::size_t r, std::uint64_t e) {
          return weight(lg.nn_weights(), e,
                        global_of(static_cast<LocalId>(r)), lg.nn().col(e));
        });
    s.part_nd = EdgePartition::build(
        lg.nd(), delta, [&](std::size_t r, std::uint64_t e) {
          return weight(lg.nd_weights(), e,
                        global_of(static_cast<LocalId>(r)),
                        delegates.vertex_of(lg.nd().col(e)));
        });
    s.part_dn = EdgePartition::build(
        lg.dn(), delta, [&](std::size_t r, std::uint64_t e) {
          return weight(lg.dn_weights(), e,
                        delegates.vertex_of(static_cast<LocalId>(r)),
                        global_of(lg.dn().col(e)));
        });
    s.part_dd = EdgePartition::build(
        lg.dd(), delta, [&](std::size_t r, std::uint64_t e) {
          return weight(lg.dd_weights(), e,
                        delegates.vertex_of(static_cast<LocalId>(r)),
                        delegates.vertex_of(lg.dd().col(e)));
        });

    // Seed every lane's source into bucket 0 (slot-keyed): delegates on
    // every GPU, normals on their owner only.
    for (int lane = 0; lane < w; ++lane) {
      const VertexId src = sources_[static_cast<std::size_t>(lane)];
      const LocalId src_delegate = delegates.delegate_id(src);
      if (src_delegate != kInvalidLocal) {
        s.dist_delegate.set(src_delegate, lane, 0);
        s.delegate_buckets.insert(slot_of(src_delegate, lane), 0);
      } else if (spec.owner_global_gpu(src) == ctx.gpu) {
        const LocalId local = static_cast<LocalId>(spec.local_index(src));
        s.dist_normal.set(local, lane, 0);
        s.normal_buckets.insert(slot_of(local, lane), 0);
      }
    }
    return state;
  }

  std::uint64_t state_bytes(const engine::GpuContext& ctx,
                            const State& s) const {
    return s.dist_normal.byte_size() + s.dist_delegate.byte_size() +
           s.delegate_cand.byte_size() +
           (s.settled_epoch_normal.size() + s.settled_epoch_delegate.size()) *
               8 +
           (graph_.local(ctx.gpu).num_local_normals() +
            graph_.num_delegates()) *
               16 +
           s.part_nn.bytes() + s.part_nd.bytes() + s.part_dn.bytes() +
           s.part_dd.bytes();
  }

  using Snapshot = State;
  Snapshot snapshot(engine::GpuContext&, const State& s) const { return s; }
  void restore(engine::GpuContext&, State& s, const Snapshot& snap) {
    s = snap;
  }

  void previsit(engine::GpuContext& ctx, State& s, int iteration) {
    s.iter = sim::GpuIterationCounters{};
    s.delegate_cand = s.dist_delegate;
    s.next_normals.clear();
    s.next_delegates.clear();
    s.heavy_round = false;

    const auto dist_n = [&](LocalId slot) { return slot_dist_normal(s, slot); };
    const auto dist_d = [&](LocalId slot) {
      return slot_dist_delegate(s, slot);
    };

    if (s.mode == Mode::kOpenBucket) {
      // Union bucket agreement: the min over every slot of every lane on
      // every GPU.  One collective serves all W lanes.
      std::uint64_t word = std::min(s.normal_buckets.min_bucket_with(dist_n),
                                    s.delegate_buckets.min_bucket_with(dist_d));
      ctx.comm.allreduce_min_words(
          ctx.gpu, std::span<std::uint64_t>(&word, 1),
          engine::TagBlocks::user(iteration));
      s.iter.bucket_coordination = true;
      if (word == kNoBucket) {
        s.mode = Mode::kDone;
      } else {
        s.current_bucket = word;
        ++s.epoch;
        s.fresh_normals = s.normal_buckets.take_with(word, dist_n);
        s.fresh_delegates = s.delegate_buckets.take_with(word, dist_d);
        s.settled_normals.clear();
        s.settled_delegates.clear();
        s.mode = Mode::kLight;
      }
    } else if (s.mode == Mode::kLight) {
      const std::uint64_t mine =
          s.fresh_normals.size() + s.fresh_delegates.size();
      const std::uint64_t total = ctx.comm.allreduce_sum(
          ctx.gpu, mine, engine::TagBlocks::user(iteration));
      s.iter.bucket_coordination = true;
      s.heavy_round = (total == 0);
    }

    const bool open = s.mode == Mode::kLight;
    s.iter.bucket_plus_one = open ? s.current_bucket + 1 : 0;
    s.iter.heavy_phase = s.heavy_round;
    s.value_bias =
        (open && options_.compress && options_.bucket_bias)
            ? util::LaneValueSlab::replicate(
                  s.normal_buckets.bucket_base(s.current_bucket),
                  options_.value_bits)
            : 0;
  }

  void visit(engine::GpuContext& ctx, State& s, int) {
    if (s.mode != Mode::kLight) return;
    const sim::ClusterSpec& spec = graph_.spec();
    const graph::LocalGraph& lg = graph_.local(ctx.gpu);
    const graph::DelegateInfo& delegates = graph_.delegates();
    const std::uint64_t p = static_cast<std::uint64_t>(ctx.total_gpus);
    const bool heavy = s.heavy_round;
    const std::size_t groups = s.dist_normal.groups_per_item();
    const auto global_of = [&](LocalId v) {
      return spec.global_vertex(ctx.me.rank, ctx.me.gpu, v);
    };
    const auto span_of = [heavy](const EdgePartition& part, LocalId row) {
      return heavy ? part.heavy(row) : part.light(row);
    };
    std::uint64_t& phase_edges =
        heavy ? s.iter.heavy_edges : s.iter.light_edges;

    const std::vector<LocalId>& active_normals =
        heavy ? s.settled_normals : s.fresh_normals;
    const std::vector<LocalId>& active_delegates =
        heavy ? s.settled_delegates : s.fresh_delegates;

    // Light rounds settle their input slots: each gets exactly one heavy
    // relaxation at its (then final) distance when the bucket closes.
    if (!heavy) {
      for (const LocalId sl : active_normals) {
        if (s.settled_epoch_normal[sl] != s.epoch) {
          s.settled_epoch_normal[sl] = s.epoch;
          s.settled_normals.push_back(sl);
        }
      }
      for (const LocalId sl : active_delegates) {
        if (s.settled_epoch_delegate[sl] != s.epoch) {
          s.settled_epoch_delegate[sl] = s.epoch;
          s.settled_delegates.push_back(sl);
        }
      }
    }

    // Group this round's active slots by vertex: the four sweeps below walk
    // each active vertex's edge list once, serving every active lane from
    // one weight lookup -- the whole point of the batch.
    ++s.group_round;
    std::vector<LocalId> verts_n = group_by_vertex(
        active_normals, s.group_mask_normal, s.group_stamp_normal,
        s.group_round);
    std::vector<LocalId> verts_d = group_by_vertex(
        active_delegates, s.group_mask_delegate, s.group_stamp_delegate,
        s.group_round);
    s.iter.nprev_vertices = verts_n.size();
    s.iter.dprev_vertices = verts_d.size();

    const std::uint64_t mask = s.dist_normal.value_mask();
    const int vb = s.dist_normal.value_bits();
    const int lpw = s.dist_normal.lanes_per_word();
    std::array<std::uint64_t, 64> lane_dist;
    std::array<std::uint64_t, 64> words;

    // Per-edge lane-word assembly: sentinel-filled groups, active lanes
    // overwritten, only touched groups emitted (one record per group).
    const auto relax_to_bins = [&](std::uint64_t lanes,
                                   const std::array<std::uint64_t, 64>& ld,
                                   std::uint32_t wgt, LocalId dst_local,
                                   std::size_t owner) {
      std::uint64_t touched = 0;
      for (std::uint64_t mm = lanes; mm != 0; mm &= mm - 1) {
        const int lane = std::countr_zero(mm);
        const std::uint64_t cand = ld[static_cast<std::size_t>(lane)] + wgt;
        if (vb < 64 && cand >= mask) {
          s.overflow = true;
          continue;
        }
        const std::size_t g = static_cast<std::size_t>(lane / lpw);
        const int shift = (lane % lpw) * vb;
        if (((touched >> g) & 1) == 0) {
          words[g] = ~0ULL;
          touched |= 1ULL << g;
        }
        words[g] = (words[g] & ~(mask << shift)) | (cand << shift);
      }
      for (std::uint64_t tt = touched; tt != 0; tt &= tt - 1) {
        const std::size_t g = static_cast<std::size_t>(std::countr_zero(tt));
        s.bins[owner].push_back(comm::VertexUpdate{
            static_cast<LocalId>(dst_local * groups + g), words[g]});
      }
    };

    // ---- nn relaxations: lane-word candidates travel to the owner. -------
    {
      sim::KernelCounters& k = s.iter.nn;
      k.launched = !verts_n.empty();
      for (const LocalId v : verts_n) {
        const std::uint64_t lanes = s.group_mask_normal[v];
        load_lane_dist(s.dist_normal, v, lanes, lane_dist);
        const VertexId v_global = global_of(v);
        for (const EdgeId e : span_of(s.part_nn, v)) {
          const VertexId dst = lg.nn().col(e);
          const std::uint32_t wgt =
              weight(lg.nn_weights(), e, v_global, dst);
          relax_to_bins(lanes, lane_dist, wgt,
                        static_cast<LocalId>(dst / p),
                        static_cast<std::size_t>(spec.owner_global_gpu(dst)));
          ++k.edges;
        }
      }
      k.vertices = verts_n.size();
      phase_edges += k.edges;
    }

    // ---- nd relaxations: normals push into the replicated candidates. ----
    {
      sim::KernelCounters& k = s.iter.nd;
      k.launched = !verts_n.empty();
      for (const LocalId v : verts_n) {
        const std::uint64_t lanes = s.group_mask_normal[v];
        load_lane_dist(s.dist_normal, v, lanes, lane_dist);
        const VertexId v_global = global_of(v);
        for (const EdgeId e : span_of(s.part_nd, v)) {
          const LocalId c = lg.nd().col(e);
          const std::uint32_t wgt =
              weight(lg.nd_weights(), e, v_global, delegates.vertex_of(c));
          relax_lanes_into(s, s.delegate_cand, c, lanes, lane_dist, wgt, mask,
                           vb, nullptr);
          ++k.edges;
        }
      }
      k.vertices = verts_n.size();
      phase_edges += k.edges;
    }

    // ---- dd relaxations: delegates push into the candidates. -------------
    {
      sim::KernelCounters& k = s.iter.dd;
      k.launched = !verts_d.empty();
      for (const LocalId t : verts_d) {
        const std::uint64_t lanes = s.group_mask_delegate[t];
        load_lane_dist(s.dist_delegate, t, lanes, lane_dist);
        const VertexId t_global = delegates.vertex_of(t);
        for (const EdgeId e : span_of(s.part_dd, t)) {
          const LocalId c = lg.dd().col(e);
          const std::uint32_t wgt =
              weight(lg.dd_weights(), e, t_global, delegates.vertex_of(c));
          relax_lanes_into(s, s.delegate_cand, c, lanes, lane_dist, wgt, mask,
                           vb, nullptr);
          ++k.edges;
        }
      }
      k.vertices = verts_d.size();
      phase_edges += k.edges;
    }

    // ---- dn relaxations: delegates push into local normal distances. -----
    {
      sim::KernelCounters& k = s.iter.dn;
      k.launched = !verts_d.empty();
      for (const LocalId t : verts_d) {
        const std::uint64_t lanes = s.group_mask_delegate[t];
        load_lane_dist(s.dist_delegate, t, lanes, lane_dist);
        const VertexId t_global = delegates.vertex_of(t);
        for (const EdgeId e : span_of(s.part_dn, t)) {
          const LocalId v = lg.dn().col(e);
          const std::uint32_t wgt =
              weight(lg.dn_weights(), e, t_global, global_of(v));
          relax_lanes_into(s, s.dist_normal, v, lanes, lane_dist, wgt, mask,
                           vb, &s.next_normals);
          ++k.edges;
        }
      }
      k.vertices = verts_d.size();
      phase_edges += k.edges;
    }
  }

  void reduce(engine::GpuContext& ctx, State& s, int iteration) {
    // Global delegate candidate min-reduction: d x groups_per_item packed
    // words, folded per sub-lane (kLaneMin) -- one collective for all W
    // lanes.  Every GPU then derives the identical improved-slot set.
    const std::size_t nw = s.delegate_cand.word_count();
    for (std::size_t w = 0; w < nw; ++w) {
      s.reduce_scratch[w] = s.delegate_cand.word(w);
    }
    ctx.comm.value_reducer().reduce(
        ctx.me, std::span<std::uint64_t>(s.reduce_scratch.data(), nw),
        comm::ValueReducer::Op::kLaneMin, iteration, 0,
        options_.value_bits);
    s.iter.delegate_update = true;
    const std::size_t groups = s.dist_delegate.groups_per_item();
    const int lpw = s.dist_delegate.lanes_per_word();
    const LocalId d = graph_.num_delegates();
    for (LocalId t = 0; t < d; ++t) {
      for (std::size_t g = 0; g < groups; ++g) {
        const std::uint64_t improved =
            s.dist_delegate.min_item_word(t, g, s.reduce_scratch[t * groups + g]);
        for (std::uint64_t mm = improved; mm != 0; mm &= mm - 1) {
          const int lane =
              static_cast<int>(g) * lpw + std::countr_zero(mm);
          s.next_delegates.push_back(slot_of(t, lane));
        }
      }
    }
  }

  void exchange(engine::GpuContext& ctx, State& s, int iteration) {
    // Normal stream, concurrent with `reduce`: one record per (destination,
    // lane group), min-coalesced per sub-lane.
    const auto updates = ctx.comm.exchange_value_updates(
        ctx.me, s.bins, iteration,
        {.combine = options_.uniquify ? comm::UpdateCombine::kLaneMin
                                      : comm::UpdateCombine::kNone,
         .compress = options_.compress,
         .value_bias = s.value_bias,
         .lane_value_bits = options_.value_bits,
         .topology = options_.exchange_topology,
         .retry = options_.resilience.retry},
        s.iter);
    const std::size_t groups = s.dist_normal.groups_per_item();
    const int lpw = s.dist_normal.lanes_per_word();
    for (const comm::VertexUpdate& u : updates) {
      const std::size_t item = u.vertex / groups;
      const std::size_t g = u.vertex % groups;
      const std::uint64_t improved = s.dist_normal.min_item_word(item, g,
                                                                 u.value);
      for (std::uint64_t mm = improved; mm != 0; mm &= mm - 1) {
        const int lane = static_cast<int>(g) * lpw + std::countr_zero(mm);
        s.next_normals.push_back(
            slot_of(static_cast<LocalId>(item), lane));
      }
    }
  }

  std::uint64_t contribution(engine::GpuContext& ctx, State& s, int) {
    ctx.delegate_stream.synchronize();
    ctx.normal_stream.synchronize();
    const std::uint64_t heavy_pending =
        (s.mode == Mode::kLight && !s.heavy_round) ? 1 : 0;
    return s.next_normals.size() + s.next_delegates.size() +
           s.normal_buckets.entry_count() + s.delegate_buckets.entry_count() +
           heavy_pending;
  }

  void post_reduce(engine::GpuContext&, State&, int, std::uint64_t) {}

  bool end_iteration(engine::GpuContext&, State& s, int,
                     std::uint64_t control) {
    if (s.mode == Mode::kLight) {
      std::sort(s.next_normals.begin(), s.next_normals.end());
      s.next_normals.erase(
          std::unique(s.next_normals.begin(), s.next_normals.end()),
          s.next_normals.end());
      s.fresh_normals.clear();
      s.fresh_delegates.clear();
      for (const LocalId sl : s.next_normals) {
        const std::uint64_t b =
            s.normal_buckets.bucket_of(slot_dist_normal(s, sl));
        if (!s.heavy_round && b == s.current_bucket) {
          s.fresh_normals.push_back(sl);
        } else {
          s.normal_buckets.insert(sl, slot_dist_normal(s, sl));
        }
      }
      for (const LocalId sl : s.next_delegates) {
        const std::uint64_t b =
            s.delegate_buckets.bucket_of(slot_dist_delegate(s, sl));
        if (!s.heavy_round && b == s.current_bucket) {
          s.fresh_delegates.push_back(sl);
        } else {
          s.delegate_buckets.insert(sl, slot_dist_delegate(s, sl));
        }
      }
      if (s.heavy_round) s.mode = Mode::kOpenBucket;
    }
    s.next_normals.clear();
    s.next_delegates.clear();
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

  /// Slot distance widened to 64 bits, sentinel mapped to kInfiniteDistance
  /// so bucket_of() can never alias a real bucket with the sentinel's.
  std::uint64_t slot_dist_normal(const State& s, LocalId slot) const {
    const std::uint64_t raw = s.dist_normal.get(
        slot / static_cast<LocalId>(lanes_),
        static_cast<int>(slot % static_cast<LocalId>(lanes_)));
    return raw == s.dist_normal.value_mask() ? kInfiniteDistance : raw;
  }
  std::uint64_t slot_dist_delegate(const State& s, LocalId slot) const {
    const std::uint64_t raw = s.dist_delegate.get(
        slot / static_cast<LocalId>(lanes_),
        static_cast<int>(slot % static_cast<LocalId>(lanes_)));
    return raw == s.dist_delegate.value_mask() ? kInfiniteDistance : raw;
  }

  /// First-occurrence-ordered unique vertices of a slot list; `mask[v]`
  /// accumulates the active lanes, stamped by `round` to skip clearing.
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

  void load_lane_dist(const util::LaneValueSlab& slab, LocalId v,
                      std::uint64_t lanes,
                      std::array<std::uint64_t, 64>& out) const {
    for (std::uint64_t mm = lanes; mm != 0; mm &= mm - 1) {
      const int lane = std::countr_zero(mm);
      out[static_cast<std::size_t>(lane)] = slab.get(v, lane);
    }
  }

  /// Relax all active lanes of one edge into a slab (delegate candidates or
  /// local normal distances); improvements are queued as slots into `next`
  /// when it is non-null.
  void relax_lanes_into(State& s, util::LaneValueSlab& slab, LocalId dst,
                        std::uint64_t lanes,
                        const std::array<std::uint64_t, 64>& ld,
                        std::uint32_t wgt, std::uint64_t mask, int vb,
                        std::vector<LocalId>* next) const {
    for (std::uint64_t mm = lanes; mm != 0; mm &= mm - 1) {
      const int lane = std::countr_zero(mm);
      const std::uint64_t cand = ld[static_cast<std::size_t>(lane)] + wgt;
      if (vb < 64 && cand >= mask) {
        s.overflow = true;
        continue;
      }
      if (slab.min_lane(dst, lane, cand) && next != nullptr) {
        next->push_back(slot_of(dst, lane));
      }
    }
  }

  std::uint32_t weight(const std::vector<std::uint32_t>& stored,
                       std::uint64_t e, VertexId u, VertexId v) const {
    return stored.empty() ? util::edge_weight(u, v, options_.max_weight)
                          : stored[e];
  }

  const graph::DistributedGraph& graph_;
  const BatchSsspOptions& options_;
  const std::vector<VertexId>& sources_;
  int lanes_;
};

}  // namespace

DistributedBatchSssp::DistributedBatchSssp(
    const graph::DistributedGraph& graph, sim::Cluster& cluster,
    BatchSsspOptions options)
    : graph_(graph), cluster_(cluster), options_(options) {
  engine::check_specs_match(graph, cluster);
  if (options_.delta == 0) {
    throw std::invalid_argument("batch_sssp delta must be at least 1");
  }
  if (options_.max_weight == 0) {
    throw std::invalid_argument("batch_sssp max_weight must be at least 1");
  }
  if (options_.value_bits != 8 && options_.value_bits != 16 &&
      options_.value_bits != 32 && options_.value_bits != 64) {
    throw std::invalid_argument(
        "batch_sssp value_bits must be one of 8, 16, 32, 64");
  }
}

BatchSsspResult DistributedBatchSssp::run(
    const std::vector<VertexId>& sources) {
  if (sources.empty() || sources.size() > 64) {
    throw std::invalid_argument("batch_sssp takes 1 to 64 sources");
  }
  for (const VertexId s : sources) {
    if (s >= graph_.num_vertices()) {
      throw std::out_of_range("batch_sssp source out of range");
    }
  }
  const sim::ClusterSpec spec = graph_.spec();
  const int p = spec.total_gpus();
  const LocalId d = graph_.num_delegates();
  const int w = static_cast<int>(sources.size());

  BatchSsspAlgorithm algo(graph_, options_, sources);
  engine::IterativeEngine<BatchSsspAlgorithm> engine(
      graph_, cluster_,
      {.overlap = options_.overlap, .resilience = options_.resilience});
  auto run = engine.run(algo);

  for (int g = 0; g < p; ++g) {
    if (run.state(g).overflow) {
      throw std::overflow_error(
          "batch_sssp: tentative distance reached the value_bits sentinel; "
          "widen BatchSsspOptions::value_bits (util::value_width_for)");
    }
  }

  // ---- Gather. ----------------------------------------------------------
  BatchSsspResult result;
  result.measured_ms = run.measured_ms;
  result.iterations = run.iterations;
  result.distances.assign(
      static_cast<std::size_t>(w),
      std::vector<std::uint64_t>(graph_.num_vertices(), kInfiniteDistance));
  for (int g = 0; g < p; ++g) {
    const auto& s = run.state(g);
    const sim::GpuCoord me = spec.coord_of(g);
    const std::uint64_t mask = s.dist_normal.value_mask();
    for (std::uint64_t v = 0; v < s.dist_normal.items(); ++v) {
      const VertexId vg = spec.global_vertex(me.rank, me.gpu, v);
      for (int lane = 0; lane < w; ++lane) {
        const std::uint64_t raw = s.dist_normal.get(v, lane);
        result.distances[static_cast<std::size_t>(lane)][vg] =
            raw == mask ? kInfiniteDistance : raw;
      }
    }
  }
  const auto& s0 = run.state(0);
  const std::uint64_t dmask = s0.dist_delegate.value_mask();
  for (LocalId t = 0; t < d; ++t) {
    const VertexId vg = graph_.delegates().vertex_of(t);
    for (int lane = 0; lane < w; ++lane) {
      const std::uint64_t raw = s0.dist_delegate.get(t, lane);
      result.distances[static_cast<std::size_t>(lane)][vg] =
          raw == dmask ? kInfiniteDistance : raw;
    }
  }

  // ---- Model. ------------------------------------------------------------
  if (options_.collect_counters) {
    ValueAppMetrics vm = assemble_value_app_metrics(
        graph_, run.histories, options_.overlap, options_.device_model,
        options_.net_model, s0.dist_delegate.groups_per_item());
    result.update_bytes_remote = vm.update_bytes_remote;
    result.reduce_bytes = vm.reduce_bytes;
    result.buckets_processed = vm.buckets_processed;
    result.light_iterations = vm.light_iterations;
    result.heavy_iterations = vm.heavy_iterations;
    result.light_relaxations = vm.light_relaxations;
    result.heavy_relaxations = vm.heavy_relaxations;
    result.modeled = vm.modeled;
    result.modeled_ms = vm.modeled_ms;
    result.counters = std::move(vm.counters);
  }
  result.fault = run.fault;
  return result;
}

}  // namespace dsbfs::core

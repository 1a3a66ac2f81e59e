#include "core/batch_bfs.hpp"

#include <bit>
#include <memory>
#include <stdexcept>

#include "core/bfs.hpp"
#include "core/frontier.hpp"
#include "core/lane_bfs_round.hpp"
#include "core/packing.hpp"
#include "engine/iterative_engine.hpp"

namespace dsbfs::core {

namespace {

/// Batched BFS as engine phases: the shared LaneBfsRound, seeded with the
/// whole batch at init, plus the per-lane parent completion.
class BatchBfsAlgorithm : public LaneBfsRound {
 public:
  static constexpr const char* kStateLabel = "batch_bfs.state";

  using State = LaneRoundState;

  BatchBfsAlgorithm(const graph::DistributedGraph& graph,
                    const BatchBfsOptions& options,
                    std::span<const VertexId> sources, int lane_bits)
      : LaneBfsRound(graph, options, lane_bits),
        options_(options),
        sources_(sources) {}

  std::unique_ptr<State> init(engine::GpuContext& ctx) {
    const sim::ClusterSpec& spec = graph_.spec();
    auto state =
        std::make_unique<State>(graph_.local(ctx.gpu), ctx.total_gpus,
                                lane_bits_);
    LaneState& s = state->gpu;
    const graph::LocalGraph& lg = s.graph();
    s.record_parents = options_.compute_parents;
    s.direction_optimized = options_.direction == TraversalDirection::kHybrid;
    s.adaptive_direction = options_.adaptive_direction;
    s.dd_seed = options_.dd_factors;
    s.dn_seed = options_.dn_factors;
    s.nd_seed = options_.nd_factors;
    s.dir_dd = DirectionState(options_.dd_factors);
    s.dir_dn = DirectionState(options_.dn_factors);
    s.dir_nd = DirectionState(options_.nd_factors);
    s.controller = DirectionController(options_.device_model);
    s.batch_mask = sources_.size() >= 64 ? ~0ULL
                                         : (1ULL << sources_.size()) - 1;

    // Seed lane l at sources[l].  A delegate source activates on every GPU
    // (its adjacency is scattered); a normal source on its owner only.
    for (std::size_t lane = 0; lane < sources_.size(); ++lane) {
      const VertexId source = sources_[lane];
      const std::uint64_t bit = 1ULL << lane;
      const LocalId src_delegate = graph_.delegates().delegate_id(source);
      if (src_delegate != kInvalidLocal) {
        s.delegate_new.or_lanes(src_delegate, bit);
        if (s.delegate_visited.or_lanes(src_delegate, bit) == 0) {
          // First touch in any lane: leaves the all-lane unvisited pools
          // (duplicate sources only decrement once).
          if (lg.dd_source_mask().test(src_delegate)) --s.unvisited_dd_sources;
          if (lg.dn_source_mask().test(src_delegate)) --s.unvisited_dn_sources;
        }
        s.depth_delegate[s.slot(src_delegate, static_cast<int>(lane))] = 0;
        if (s.record_parents) {
          s.set_delegate_parent(src_delegate, static_cast<int>(lane), source);
        }
      } else if (spec.owner_global_gpu(source) == ctx.gpu) {
        const LocalId local = static_cast<LocalId>(spec.local_index(source));
        const std::size_t sl = s.slot(local, static_cast<int>(lane));
        s.depth_normal[sl] = 0;
        if (s.record_parents) s.parent_normal[sl] = source;
        if (s.next_normal.or_lanes(local, bit) == 0) {
          s.next_local.push_back(local);
        }
      }
    }
    return state;
  }

  using Snapshot = LaneSnapshot;
  Snapshot snapshot(engine::GpuContext&, const State& s) const {
    return s.gpu.save();
  }
  void restore(engine::GpuContext&, State& s, const Snapshot& snap) {
    s.gpu.restore(snap);
  }

  bool end_iteration(engine::GpuContext& ctx, State& s, int,
                     std::uint64_t control) {
    finish_round(ctx, s);
    return control == 0;  // no delegate flag and no normal work anywhere
  }

  /// Per-lane BFS-tree completion, the lane generalization of Section
  /// VI-A3: traversal shipped (id, lane word) only, so (vertex, lane) pairs
  /// discovered through nn edges do not know their parent yet; one extra
  /// exchange of lane probes resolves them, and one min-reduction of the
  /// d*W delegate-parent words settles every replica identically.
  void finalize(engine::GpuContext& ctx, State& state, int iterations) {
    if (!options_.compute_parents) return;
    LaneState& s = state.gpu;
    const sim::ClusterSpec& spec = graph_.spec();
    const int p = ctx.total_gpus;
    const int g = ctx.gpu;
    const sim::GpuCoord me = ctx.me;
    comm::Transport& transport = ctx.comm.transport();
    const graph::LocalGraph& lg = graph_.local(g);
    const std::uint64_t n_local = lg.num_local_normals();
    const int parent_block = engine::TagBlocks::after_loop(iterations);
    const int parent_tag = engine::TagBlocks::user(parent_block);

    // Pack (dest_local, lane, my_level_in_lane) + my_global for every nn
    // edge out of each visited (vertex, lane); the receiver accepts the
    // first sender exactly one level above it in that lane.
    std::vector<std::vector<std::uint64_t>> tuples(static_cast<std::size_t>(p));
    for (std::uint64_t v = 0; v < n_local; ++v) {
      const std::uint64_t lanes = s.seen_normal.lanes(v);
      if (lanes == 0) continue;
      const VertexId v_global = spec.global_vertex(me.rank, me.gpu, v);
      for (const VertexId dst : lg.nn().row(v)) {
        const int owner = spec.owner_global_gpu(dst);
        auto& bin = tuples[static_cast<std::size_t>(owner)];
        for (std::uint64_t b = lanes; b != 0; b &= b - 1) {
          const int lane = std::countr_zero(b);
          bin.push_back(pack_lane_parent_probe(
              dst / static_cast<std::uint64_t>(p), lane,
              s.depth_normal[s.slot(v, lane)]));
          bin.push_back(v_global);
        }
      }
    }
    auto apply_tuples = [&](const std::vector<std::uint64_t>& words) {
      for (std::size_t i = 0; i + 1 < words.size(); i += 2) {
        const LocalId local = lane_parent_probe_local(words[i]);
        const int lane = lane_parent_probe_lane(words[i]);
        const Depth lvl = lane_parent_probe_level(words[i]);
        const std::size_t sl = s.slot(local, lane);
        // Min over all senders one level up (see DistributedBfs::finalize):
        // arrival order is topology-dependent, the id minimum is not.
        const VertexId cur = s.parent_normal[sl];
        if ((cur == kParentViaNn || (cur & kParentDelegateTag) == 0) &&
            s.depth_normal[sl] == lvl + 1 && words[i + 1] < cur) {
          s.parent_normal[sl] = words[i + 1];
        }
      }
    };
    for (int o = 0; o < p; ++o) {
      if (o == g) continue;
      transport.send(g, o, parent_tag,
                     std::move(tuples[static_cast<std::size_t>(o)]));
    }
    apply_tuples(tuples[static_cast<std::size_t>(g)]);
    for (int o = 0; o < p; ++o) {
      if (o == g) continue;
      apply_tuples(transport.recv(g, o, parent_tag));
    }

    // Delegate parents: encoded candidates -> global ids -> min-reduce over
    // every (delegate, lane) slot.
    const std::size_t d = graph_.num_delegates();
    const std::size_t w = static_cast<std::size_t>(lane_bits_);
    std::vector<std::uint64_t> parents(d * w);
    for (std::size_t i = 0; i < d * w; ++i) {
      VertexId enc = s.parent_delegate[i].load(std::memory_order_relaxed);
      if (enc != kParentNone && (enc & kParentDelegateTag) != 0) {
        enc = graph_.delegates().vertex_of(
            static_cast<LocalId>(enc & ~kParentDelegateTag));
      }
      parents[i] = enc;  // kParentNone == UINT64_MAX: identity for min
    }
    if (p > 1) {
      ctx.comm.allreduce_min_words(
          g, parents, engine::TagBlocks::user(parent_block, 4));
    }
    for (std::size_t i = 0; i < d * w; ++i) {
      s.parent_delegate[i].store(parents[i], std::memory_order_relaxed);
    }
  }

 private:
  const BatchBfsOptions& options_;
  std::span<const VertexId> sources_;
};

}  // namespace

DistributedBatchBfs::DistributedBatchBfs(const graph::DistributedGraph& graph,
                                         sim::Cluster& cluster,
                                         BatchBfsOptions options)
    : graph_(graph), cluster_(cluster), options_(options) {
  engine::check_specs_match(graph, cluster);
  // Fail at construction; the round validates again at its lane width.
  comm::validate(LaneBfsRound::wire_options(options_, 1));
}

VertexId DistributedBatchBfs::sample_source(std::uint64_t k) const {
  return sample_traversal_source(graph_, k);
}

BatchBfsResult DistributedBatchBfs::run(std::span<const VertexId> sources) {
  if (sources.empty() || sources.size() > 64) {
    throw std::invalid_argument("batch bfs takes 1..64 sources");
  }
  for (const VertexId s : sources) {
    if (s >= graph_.num_vertices()) {
      throw std::out_of_range("batch bfs source out of range");
    }
  }
  const sim::ClusterSpec spec = graph_.spec();
  const int p = spec.total_gpus();
  const int lane_bits = util::lane_width_for(sources.size());
  const std::size_t num_lanes = sources.size();

  BatchBfsAlgorithm algo(graph_, options_, sources, lane_bits);
  engine::IterativeEngine<BatchBfsAlgorithm> engine(
      graph_, cluster_,
      {.overlap = options_.overlap, .resilience = options_.resilience});
  auto run = engine.run(algo);

  // ---- Gather per-lane distances (and parents) on the host. -------------
  BatchBfsResult result;
  result.lane_bits = lane_bits;
  result.distances.assign(num_lanes, std::vector<Depth>(graph_.num_vertices(),
                                                        kUnvisited));
  if (options_.compute_parents) {
    result.parents.assign(
        num_lanes, std::vector<VertexId>(graph_.num_vertices(),
                                         kInvalidVertex));
  }
  for (int g = 0; g < p; ++g) {
    const LaneState& s = run.state(g).gpu;
    const sim::GpuCoord me = spec.coord_of(g);
    const std::uint64_t n_local = graph_.local(g).num_local_normals();
    for (std::uint64_t v = 0; v < n_local; ++v) {
      const std::uint64_t lanes = s.seen_normal.lanes(v);
      if (lanes == 0) continue;
      const VertexId global = spec.global_vertex(me.rank, me.gpu, v);
      for (std::uint64_t b = lanes; b != 0; b &= b - 1) {
        const int lane = std::countr_zero(b);
        if (static_cast<std::size_t>(lane) >= num_lanes) continue;
        const std::size_t sl = s.slot(v, lane);
        result.distances[static_cast<std::size_t>(lane)][global] =
            s.depth_normal[sl];
        if (options_.compute_parents) {
          VertexId enc = s.parent_normal[sl];
          if ((enc & kParentDelegateTag) != 0 && enc != kParentNone &&
              enc != kParentViaNn) {
            enc = graph_.delegates().vertex_of(
                static_cast<LocalId>(enc & ~kParentDelegateTag));
          }
          result.parents[static_cast<std::size_t>(lane)][global] = enc;
        }
      }
    }
  }
  const LaneState& s0 = run.state(0).gpu;
  for (LocalId t = 0; t < graph_.num_delegates(); ++t) {
    const std::uint64_t lanes = s0.delegate_visited.lanes(t);
    if (lanes == 0) continue;
    const VertexId global = graph_.delegates().vertex_of(t);
    for (std::uint64_t b = lanes; b != 0; b &= b - 1) {
      const int lane = std::countr_zero(b);
      if (static_cast<std::size_t>(lane) >= num_lanes) continue;
      result.distances[static_cast<std::size_t>(lane)][global] =
          s0.depth_delegate[s0.slot(t, lane)];
      if (options_.compute_parents) {
        result.parents[static_cast<std::size_t>(lane)][global] =
            s0.parent_delegate[s0.slot(t, lane)].load(
                std::memory_order_relaxed);
      }
    }
  }

  // ---- Model: one shared counter history, lane-scaled mask payload. -----
  BfsOptions equiv;
  equiv.direction_optimized =
      options_.direction == TraversalDirection::kHybrid;
  equiv.overlap = options_.overlap;
  equiv.reduce_mode = options_.reduce_mode;
  equiv.collect_per_iteration = options_.collect_per_iteration;
  equiv.device_model = options_.device_model;
  equiv.net_model = options_.net_model;
  result.metrics = assemble_metrics(graph_, equiv, std::move(run.histories),
                                    run.measured_ms, lane_bits);
  result.metrics.fault = run.fault;
  return result;
}

}  // namespace dsbfs::core

#include "core/pagerank.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/metrics.hpp"
#include "engine/iterative_engine.hpp"

namespace dsbfs::core {

namespace {

/// The contribution exchange's wire, built from the facade options.
comm::UpdateExchangeOptions wire_options(const PagerankOptions& o) {
  return {.combine = o.uniquify ? comm::UpdateCombine::kSumDouble
                                : comm::UpdateCombine::kNone,
          .compress = o.compress,
          .adaptive = o.adaptive_compress,
          .gorilla = o.gorilla,
          .topology = o.exchange_topology,
          .retry = o.resilience.retry};
}

/// Push-style PageRank as engine phases: every vertex distributes
/// rank / out_degree along its edges each iteration; delegate inflows meet
/// in a global SUM reduction, nn inflows travel through the update
/// exchange, and the contribution hook folds dangling mass, applies the
/// new ranks and turns the globally reduced L1 delta into the engine's
/// converged/not-converged control word.
class PagerankAlgorithm {
 public:
  static constexpr const char* kStateLabel = "pagerank.state";

  /// Reduction channels within one iteration (the reducers keep them on
  /// disjoint tags; see comm::kReduceChannelStride).
  enum Channel : int { kInflow = 0, kDangling = 1, kDelta = 2 };
  static_assert(kDelta < comm::kMaxReduceChannels);

  struct State {
    std::vector<double> rank_normal;
    std::vector<double> rank_delegate;  // replicated
    std::vector<double> acc_normal;
    std::vector<double> acc_delegate;  // local contributions, then reduced
    std::vector<bool> dead;            // normal slots owned by delegates
    std::vector<std::vector<comm::VertexUpdate>> bins;
    sim::GpuIterationCounters iter;
    double dangling = 0.0;
    double last_delta = 0.0;
  };

  PagerankAlgorithm(const graph::DistributedGraph& graph,
                    const PagerankOptions& options,
                    const std::vector<double>& delegate_inv_degree)
      : graph_(graph),
        options_(options),
        delegate_inv_degree_(delegate_inv_degree) {}

  std::unique_ptr<State> init(engine::GpuContext& ctx) {
    const sim::ClusterSpec& spec = graph_.spec();
    const LocalId d = graph_.num_delegates();
    const std::uint64_t n_local = graph_.local(ctx.gpu).num_local_normals();
    const double n = static_cast<double>(graph_.num_vertices());

    auto state = std::make_unique<State>();
    State& s = *state;

    // A delegate's original vertex id still owns a (dead) normal slot on
    // this GPU; its rank lives in the replicated delegate array instead.
    s.dead.assign(n_local, false);
    for (std::uint64_t v = 0; v < n_local; ++v) {
      s.dead[v] = graph_.delegates().is_delegate(
          spec.global_vertex(ctx.me.rank, ctx.me.gpu, v));
    }

    s.rank_normal.assign(n_local, 0.0);
    for (std::uint64_t v = 0; v < n_local; ++v) {
      if (!s.dead[v]) s.rank_normal[v] = 1.0 / n;
    }
    s.rank_delegate.assign(d, 1.0 / n);
    s.acc_normal.assign(n_local, 0.0);
    s.acc_delegate.assign(d, 0.0);
    s.bins.resize(static_cast<std::size_t>(ctx.total_gpus));
    return state;
  }

  std::uint64_t state_bytes(const engine::GpuContext& ctx,
                            const State&) const {
    return (2 * graph_.local(ctx.gpu).num_local_normals() +
            2ULL * graph_.num_delegates()) *
           8;
  }

  /// Epoch checkpoint: the state is value-typed, so a copy is the snapshot.
  using Snapshot = State;
  Snapshot snapshot(engine::GpuContext&, const State& s) const { return s; }
  void restore(engine::GpuContext&, State& s, const Snapshot& snap) {
    s = snap;
  }

  void previsit(engine::GpuContext&, State& s, int) {
    s.iter = sim::GpuIterationCounters{};
    std::fill(s.acc_normal.begin(), s.acc_normal.end(), 0.0);
    std::fill(s.acc_delegate.begin(), s.acc_delegate.end(), 0.0);
    s.dangling = 0.0;
  }

  void visit(engine::GpuContext& ctx, State& s, int) {
    const sim::ClusterSpec& spec = graph_.spec();
    const graph::LocalGraph& lg = graph_.local(ctx.gpu);
    const std::uint64_t n_local = lg.num_local_normals();
    const LocalId d = graph_.num_delegates();
    const std::uint64_t p = static_cast<std::uint64_t>(ctx.total_gpus);

    // Normal vertices: full adjacency lives here (nn + nd rows).
    s.iter.nprev_vertices = n_local;
    s.iter.nn.launched = s.iter.nd.launched = n_local > 0;
    s.iter.nn.vertices = s.iter.nd.vertices = n_local;
    for (std::uint64_t v = 0; v < n_local; ++v) {
      if (s.dead[v]) continue;
      const std::uint32_t degree =
          lg.nn().row_length(v) + lg.nd().row_length(v);
      if (degree == 0) {
        s.dangling += s.rank_normal[v];
        continue;
      }
      const double share = s.rank_normal[v] / degree;
      const auto nn_row = lg.nn().row(v);
      s.iter.nn.edges += nn_row.size();
      for (const VertexId dst : nn_row) {
        s.bins[static_cast<std::size_t>(spec.owner_global_gpu(dst))].push_back(
            comm::VertexUpdate{static_cast<LocalId>(dst / p),
                               std::bit_cast<std::uint64_t>(share)});
      }
      const auto nd_row = lg.nd().row(v);
      s.iter.nd.edges += nd_row.size();
      for (const LocalId c : nd_row) s.acc_delegate[c] += share;
    }

    // Delegates: replicated rank, scattered adjacency; each GPU pushes
    // the delegate's share along its local dd/dn portions.
    s.iter.dprev_vertices = d;
    s.iter.dd.launched = s.iter.dn.launched = d > 0;
    s.iter.dd.vertices = s.iter.dn.vertices = d;
    for (LocalId t = 0; t < d; ++t) {
      const double share = s.rank_delegate[t] * delegate_inv_degree_[t];
      const auto dd_row = lg.dd().row(t);
      s.iter.dd.edges += dd_row.size();
      for (const LocalId c : dd_row) s.acc_delegate[c] += share;
      const auto dn_row = lg.dn().row(t);
      s.iter.dn.edges += dn_row.size();
      for (const LocalId v : dn_row) s.acc_normal[v] += share;
    }
  }

  void reduce(engine::GpuContext& ctx, State& s, int iteration) {
    // Global delegate inflow reduction (d doubles).
    const LocalId d = graph_.num_delegates();
    std::vector<std::uint64_t> words(d);
    for (LocalId t = 0; t < d; ++t) {
      words[t] = std::bit_cast<std::uint64_t>(s.acc_delegate[t]);
    }
    ctx.comm.value_reducer().reduce(ctx.me, words,
                                    comm::ValueReducer::Op::kSumDouble,
                                    iteration, kInflow);
    for (LocalId t = 0; t < d; ++t) {
      s.acc_delegate[t] = std::bit_cast<double>(words[t]);
    }
    s.iter.delegate_update = true;
  }

  void exchange(engine::GpuContext& ctx, State& s, int iteration) {
    // nn inflow exchange; runs on the normal stream, concurrent with the
    // delegate inflow reduction: touches only acc_normal.
    const auto updates = ctx.comm.exchange_value_updates(
        ctx.me, s.bins, iteration, wire_options(options_), s.iter);
    for (const comm::VertexUpdate& u : updates) {
      s.acc_normal[u.vertex] += std::bit_cast<double>(u.value);
    }
  }

  std::uint64_t contribution(engine::GpuContext& ctx, State& s,
                             int iteration) {
    // Join the overlapped inflow reduction and exchange before folding.
    ctx.delegate_stream.synchronize();
    ctx.normal_stream.synchronize();
    const double n = static_cast<double>(graph_.num_vertices());
    const double damping = options_.damping;
    const LocalId d = graph_.num_delegates();
    const std::uint64_t n_local = graph_.local(ctx.gpu).num_local_normals();

    // Dangling mass: summed globally; everyone then computes identical
    // delegate ranks from the identical reduced inflows.
    std::uint64_t dangling_word = std::bit_cast<std::uint64_t>(s.dangling);
    ctx.comm.value_reducer().reduce(
        ctx.me, std::span<std::uint64_t>(&dangling_word, 1),
        comm::ValueReducer::Op::kSumDouble, iteration, kDangling);
    const double dangling_total = std::bit_cast<double>(dangling_word);

    const double base = (1.0 - damping) / n + damping * dangling_total / n;
    double delta = 0.0;
    for (std::uint64_t v = 0; v < n_local; ++v) {
      if (s.dead[v]) continue;
      const double next = base + damping * s.acc_normal[v];
      delta += std::abs(next - s.rank_normal[v]);
      s.rank_normal[v] = next;
    }
    double delegate_delta = 0.0;
    for (LocalId t = 0; t < d; ++t) {
      const double next = base + damping * s.acc_delegate[t];
      delegate_delta += std::abs(next - s.rank_delegate[t]);
      s.rank_delegate[t] = next;
    }

    // Convergence: L1 change across normals (each counted once at its
    // owner) plus delegates (identical everywhere; counted on GPU 0).
    std::uint64_t delta_word = std::bit_cast<std::uint64_t>(
        delta + (ctx.gpu == 0 ? delegate_delta : 0.0));
    ctx.comm.value_reducer().reduce(
        ctx.me, std::span<std::uint64_t>(&delta_word, 1),
        comm::ValueReducer::Op::kSumDouble, iteration, kDelta);
    s.last_delta = std::bit_cast<double>(delta_word);

    // The reduced delta is identical on every GPU, so every GPU casts the
    // same still-running / converged vote.
    const bool stop = s.last_delta < options_.tolerance ||
                      iteration + 1 >= options_.max_iterations;
    return stop ? 0 : 1;
  }

  void post_reduce(engine::GpuContext&, State&, int, std::uint64_t) {}

  bool end_iteration(engine::GpuContext&, State&, int, std::uint64_t control) {
    return control == 0;
  }

  bool collect_counters() const { return options_.collect_counters; }
  sim::GpuIterationCounters iteration_counters(const State& s) const {
    return s.iter;
  }

  void finalize(engine::GpuContext&, State&, int) {}

 private:
  const graph::DistributedGraph& graph_;
  const PagerankOptions& options_;
  const std::vector<double>& delegate_inv_degree_;
};

}  // namespace

DistributedPagerank::DistributedPagerank(const graph::DistributedGraph& graph,
                                         sim::Cluster& cluster,
                                         PagerankOptions options)
    : graph_(graph), cluster_(cluster), options_(options) {
  engine::check_facade_setup(graph, cluster, options_.exchange_topology);
  comm::validate(wire_options(options_));
}

PagerankResult DistributedPagerank::run() {
  const sim::ClusterSpec spec = graph_.spec();
  const int p = spec.total_gpus();
  const LocalId d = graph_.num_delegates();

  if (options_.max_iterations <= 0) {
    // The engine loop always runs at least one iteration; zero iterations
    // means "return the uniform initial ranks", as the pre-engine driver
    // did.
    PagerankResult result;
    result.ranks.assign(graph_.num_vertices(),
                        1.0 / static_cast<double>(graph_.num_vertices()));
    return result;
  }

  // Replicated delegate out-degrees (every GPU would hold these on device).
  std::vector<double> delegate_inv_degree(d);
  for (LocalId t = 0; t < d; ++t) {
    delegate_inv_degree[t] =
        1.0 / graph_.degrees()[graph_.delegates().vertex_of(t)];
  }

  PagerankAlgorithm algo(graph_, options_, delegate_inv_degree);
  engine::IterativeEngine<PagerankAlgorithm> engine(
      graph_, cluster_,
      {.overlap = options_.overlap, .resilience = options_.resilience});
  auto run = engine.run(algo);

  // ---- Gather. ----------------------------------------------------------
  PagerankResult result;
  result.measured_ms = run.measured_ms;
  result.iterations = run.iterations;
  result.final_delta = run.state(0).last_delta;
  result.ranks.assign(graph_.num_vertices(), 0.0);
  for (int g = 0; g < p; ++g) {
    const auto& s = run.state(g);
    const sim::GpuCoord me = spec.coord_of(g);
    for (std::uint64_t v = 0; v < s.rank_normal.size(); ++v) {
      result.ranks[spec.global_vertex(me.rank, me.gpu, v)] = s.rank_normal[v];
    }
  }
  const auto& s0 = run.state(0);
  for (LocalId t = 0; t < d; ++t) {
    result.ranks[graph_.delegates().vertex_of(t)] = s0.rank_delegate[t];
  }

  // ---- Model. ------------------------------------------------------------
  if (options_.collect_counters) {
    ValueAppMetrics vm = assemble_value_app_metrics(
        graph_, run.histories, options_.overlap, options_.device_model,
        options_.net_model);
    result.update_bytes_remote = vm.update_bytes_remote;
    result.reduce_bytes = vm.reduce_bytes;
    result.modeled = vm.modeled;
    result.modeled_ms = vm.modeled_ms;
    result.counters = std::move(vm.counters);
  }
  result.fault = run.fault;
  return result;
}

}  // namespace dsbfs::core

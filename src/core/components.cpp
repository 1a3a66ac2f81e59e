#include "core/components.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "core/metrics.hpp"
#include "engine/iterative_engine.hpp"

namespace dsbfs::core {

namespace {

/// The label exchange's wire, built from the facade options.
comm::UpdateExchangeOptions wire_options(const CcOptions& o) {
  return {.combine = o.uniquify ? comm::UpdateCombine::kMin
                                : comm::UpdateCombine::kNone,
          .compress = o.compress,
          .adaptive = o.adaptive_compress,
          .topology = o.exchange_topology,
          .retry = o.resilience.retry};
}

/// Min-label propagation as engine phases: labels travel along all four
/// subgraphs each iteration; delegate labels meet in a global min-reduction
/// before the normal-label exchange, and the engine's control allreduce
/// counts surviving changes for convergence.
class CcAlgorithm {
 public:
  static constexpr const char* kStateLabel = "cc.state";

  struct State {
    std::vector<VertexId> label_normal;    // per local normal
    std::vector<VertexId> label_delegate;  // per delegate, replicated
    std::vector<VertexId> delegate_cand;   // this iteration's min candidates
    std::vector<LocalId> active_normals;
    std::vector<LocalId> active_delegates;
    std::vector<LocalId> next_normals;
    std::vector<LocalId> next_delegates;
    std::vector<std::vector<comm::VertexUpdate>> bins;
    sim::GpuIterationCounters iter;
  };

  CcAlgorithm(const graph::DistributedGraph& graph, const CcOptions& options)
      : graph_(graph), options_(options) {}

  std::unique_ptr<State> init(engine::GpuContext& ctx) {
    const sim::ClusterSpec& spec = graph_.spec();
    const LocalId d = graph_.num_delegates();
    const std::uint64_t n_local = graph_.local(ctx.gpu).num_local_normals();

    auto state = std::make_unique<State>();
    State& s = *state;
    s.label_normal.resize(n_local);
    for (std::uint64_t v = 0; v < n_local; ++v) {
      s.label_normal[v] = spec.global_vertex(ctx.me.rank, ctx.me.gpu, v);
      s.active_normals.push_back(static_cast<LocalId>(v));
    }
    s.label_delegate.resize(d);
    s.delegate_cand.resize(d);
    for (LocalId t = 0; t < d; ++t) {
      s.label_delegate[t] = graph_.delegates().vertex_of(t);
      s.active_delegates.push_back(t);
    }
    s.bins.resize(static_cast<std::size_t>(ctx.total_gpus));
    return state;
  }

  std::uint64_t state_bytes(const engine::GpuContext& ctx,
                            const State&) const {
    return (graph_.local(ctx.gpu).num_local_normals() +
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
    std::copy(s.label_delegate.begin(), s.label_delegate.end(),
              s.delegate_cand.begin());
    s.next_normals.clear();
    s.next_delegates.clear();
  }

  void visit(engine::GpuContext& ctx, State& s, int) {
    const sim::ClusterSpec& spec = graph_.spec();
    const graph::LocalGraph& lg = graph_.local(ctx.gpu);
    const std::uint64_t p = static_cast<std::uint64_t>(ctx.total_gpus);

    // Normal pushes: nn updates travel, nd updates land in candidates.
    s.iter.nprev_vertices = s.active_normals.size();
    s.iter.nn.launched = s.iter.nd.launched = !s.active_normals.empty();
    for (const LocalId v : s.active_normals) {
      const VertexId lbl = s.label_normal[v];
      const auto nn_row = lg.nn().row(v);
      s.iter.nn.edges += nn_row.size();
      for (const VertexId dst : nn_row) {
        // Send only improving candidates coarsely: the label might not
        // beat the destination's, the receiver checks.
        if (lbl < dst) {
          s.bins[static_cast<std::size_t>(spec.owner_global_gpu(dst))]
              .push_back(comm::VertexUpdate{static_cast<LocalId>(dst / p),
                                            lbl});
        }
      }
      const auto nd_row = lg.nd().row(v);
      s.iter.nd.edges += nd_row.size();
      for (const LocalId c : nd_row) {
        if (lbl < s.delegate_cand[c]) s.delegate_cand[c] = lbl;
      }
    }
    s.iter.nn.vertices = s.iter.nd.vertices = s.active_normals.size();

    // Delegate pushes: dd into candidates, dn into local labels.
    s.iter.dprev_vertices = s.active_delegates.size();
    s.iter.dd.launched = s.iter.dn.launched = !s.active_delegates.empty();
    for (const LocalId t : s.active_delegates) {
      const VertexId lbl = s.label_delegate[t];
      const auto dd_row = lg.dd().row(t);
      s.iter.dd.edges += dd_row.size();
      for (const LocalId c : dd_row) {
        if (lbl < s.delegate_cand[c]) s.delegate_cand[c] = lbl;
      }
      const auto dn_row = lg.dn().row(t);
      s.iter.dn.edges += dn_row.size();
      for (const LocalId v : dn_row) {
        if (lbl < s.label_normal[v]) {
          s.label_normal[v] = lbl;
          s.next_normals.push_back(v);
        }
      }
    }
    s.iter.dd.vertices = s.iter.dn.vertices = s.active_delegates.size();
  }

  void reduce(engine::GpuContext& ctx, State& s, int iteration) {
    // Global delegate label min-reduction (d x 8 bytes).
    const LocalId d = graph_.num_delegates();
    ctx.comm.value_reducer().reduce(
        ctx.me, std::span<std::uint64_t>(s.delegate_cand.data(), d),
        comm::ValueReducer::Op::kMin, iteration);
    s.iter.delegate_update = true;
    for (LocalId t = 0; t < d; ++t) {
      if (s.delegate_cand[t] < s.label_delegate[t]) {
        s.label_delegate[t] = s.delegate_cand[t];
        s.next_delegates.push_back(t);
      }
    }
  }

  void exchange(engine::GpuContext& ctx, State& s, int iteration) {
    // Runs on the normal stream, concurrent with `reduce` on the delegate
    // stream: touches only normal-label state.
    const auto updates = ctx.comm.exchange_value_updates(
        ctx.me, s.bins, iteration, wire_options(options_), s.iter);
    for (const comm::VertexUpdate& u : updates) {
      if (u.value < s.label_normal[u.vertex]) {
        s.label_normal[u.vertex] = u.value;
        s.next_normals.push_back(u.vertex);
      }
    }
    // A vertex may be improved twice in one round; dedup the frontier.
    std::sort(s.next_normals.begin(), s.next_normals.end());
    s.next_normals.erase(
        std::unique(s.next_normals.begin(), s.next_normals.end()),
        s.next_normals.end());
  }

  std::uint64_t contribution(engine::GpuContext& ctx, State& s, int) {
    // Join the overlapped reduce/exchange: both feed the control word.
    ctx.delegate_stream.synchronize();
    ctx.normal_stream.synchronize();
    return s.next_normals.size() + s.next_delegates.size();
  }

  void post_reduce(engine::GpuContext&, State&, int, std::uint64_t) {}

  bool end_iteration(engine::GpuContext&, State& s, int,
                     std::uint64_t control) {
    s.active_normals = std::move(s.next_normals);
    s.active_delegates = std::move(s.next_delegates);
    s.next_normals = {};
    s.next_delegates = {};
    return control == 0;
  }

  bool collect_counters() const { return options_.collect_counters; }
  sim::GpuIterationCounters iteration_counters(const State& s) const {
    return s.iter;
  }

  void finalize(engine::GpuContext&, State&, int) {}

 private:
  const graph::DistributedGraph& graph_;
  const CcOptions& options_;
};

}  // namespace

ConnectedComponents::ConnectedComponents(const graph::DistributedGraph& graph,
                                         sim::Cluster& cluster,
                                         CcOptions options)
    : graph_(graph), cluster_(cluster), options_(options) {
  engine::check_facade_setup(graph, cluster, options_.exchange_topology);
  comm::validate(wire_options(options_));
}

CcResult ConnectedComponents::run() {
  const sim::ClusterSpec spec = graph_.spec();
  const int p = spec.total_gpus();
  const LocalId d = graph_.num_delegates();

  CcAlgorithm algo(graph_, options_);
  engine::IterativeEngine<CcAlgorithm> engine(
      graph_, cluster_,
      {.overlap = options_.overlap, .resilience = options_.resilience});
  auto run = engine.run(algo);

  // ---- Gather. ----------------------------------------------------------
  CcResult result;
  result.measured_ms = run.measured_ms;
  result.iterations = run.iterations;
  result.labels.assign(graph_.num_vertices(), kInvalidVertex);
  for (int g = 0; g < p; ++g) {
    const auto& s = run.state(g);
    const sim::GpuCoord me = spec.coord_of(g);
    for (std::uint64_t v = 0; v < s.label_normal.size(); ++v) {
      result.labels[spec.global_vertex(me.rank, me.gpu, v)] =
          s.label_normal[v];
    }
  }
  const auto& s0 = run.state(0);
  for (LocalId t = 0; t < d; ++t) {
    result.labels[graph_.delegates().vertex_of(t)] = s0.label_delegate[t];
  }
  {
    std::unordered_set<VertexId> roots(result.labels.begin(),
                                       result.labels.end());
    result.num_components = roots.size();
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

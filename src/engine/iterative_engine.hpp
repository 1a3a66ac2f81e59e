#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "engine/comm_context.hpp"
#include "graph/builder.hpp"
#include "sim/cluster.hpp"
#include "sim/fault.hpp"
#include "sim/perf_model.hpp"
#include "sim/stream.hpp"
#include "sim/topology.hpp"
#include "util/timer.hpp"

/// Shared driver skeleton for iterative distributed algorithms.
///
/// Every algorithm on the degree-separated substrate (BFS, connected
/// components, PageRank, SSSP, ...) runs the same cluster loop: one thread
/// per simulated GPU, per-GPU state, a per-iteration sequence of compute and
/// communication phases, a cluster-wide termination allreduce, and host-side
/// assembly of per-iteration counter histories and wall-clock time.  The
/// IterativeEngine owns that skeleton; an algorithm only supplies the phase
/// hooks (paper Section VI-D: the framework generalizes beyond BFS by
/// swapping what delegates/normals carry and how values combine).
///
/// Per-GPU phase order, every iteration:
///   previsit -> visit -> reduce -> exchange -> contribution
///     -> [engine control allreduce] -> post_reduce -> end_iteration
/// `reduce` runs before the control allreduce (CC labels, PageRank inflows);
/// `post_reduce` runs after it, which is what lets BFS condition its mask
/// reduction on the control word and overlap it with the in-flight normal
/// exchange.  Hooks an algorithm does not need are empty.
///
/// The engine owns a *delegate stream* and a *normal stream* per GPU (the
/// paper's Fig. 3 pipeline), exposed through the GpuContext.  With
/// EngineOptions::overlap (the default) the engine enqueues `reduce` on the
/// delegate stream and `exchange` on the normal stream, so the delegate-side
/// value reduction runs concurrently with the normal-vertex exchange on
/// every algorithm -- `contribution` joins whatever the control word needs
/// (both streams for the value algorithms; only the delegate stream for
/// BFS, whose exchange keeps running through the control allreduce and the
/// post-control mask reduction).  With overlap off the engine drains both
/// streams and calls the two hooks sequentially inline -- the ablation
/// baseline.
namespace dsbfs::engine {

/// Everything a phase hook may touch, bundled per GPU.  Hooks for different
/// GPUs run concurrently: an algorithm's own members must be treated as
/// read-only inside hooks; per-GPU mutable data belongs in the State.
/// The two streams are engine-owned; `visit` may enqueue kernels on them,
/// and under overlap the engine itself enqueues `reduce` / `exchange` there.
struct GpuContext {
  sim::GpuCoord me;
  sim::Device& device;
  int gpu;         // global GPU index
  int total_gpus;  // p
  const graph::DistributedGraph& graph;
  CommContext& comm;
  sim::Stream& delegate_stream;
  sim::Stream& normal_stream;
};

/// Engine-level scheduling knobs, shared by every algorithm.
struct EngineOptions {
  /// Run `reduce` (delegate stream) concurrently with `exchange` (normal
  /// stream).  Off = the historic sequential per-GPU phase order.
  bool overlap = true;
  /// Fault schedule, wire retry policy and checkpoint cadence.  Defaults to
  /// a clean run with checkpointing off; see sim::ResilienceOptions.
  sim::ResilienceOptions resilience{};
};

/// The phase-hook interface an algorithm implements to run on the engine.
template <typename A>
concept IterativeAlgorithm = requires(
    A a, const A ca, typename A::State& s, const typename A::State& cs,
    const typename A::Snapshot& snap, GpuContext& ctx, int iteration,
    std::uint64_t control) {
  { A::kStateLabel } -> std::convertible_to<const char*>;
  /// Build this GPU's state and seed it (source vertex, initial labels...).
  { a.init(ctx) } -> std::same_as<std::unique_ptr<typename A::State>>;
  /// Device footprint of the state; the engine registers/releases it.
  { ca.state_bytes(ctx, cs) } -> std::convertible_to<std::uint64_t>;
  /// Frontier/queue formation ahead of the visit kernels.
  a.previsit(ctx, s, iteration);
  /// The compute kernels (may enqueue on streams owned by the State).
  a.visit(ctx, s, iteration);
  /// Pre-control value reductions (delegate labels, inflows).
  a.reduce(ctx, s, iteration);
  /// Normal-vertex communication (ids or (id, value) updates).
  a.exchange(ctx, s, iteration);
  /// This GPU's word for the termination allreduce; also the
  /// synchronization point for anything `contribution` needs finished.
  { a.contribution(ctx, s, iteration) } -> std::convertible_to<std::uint64_t>;
  /// Post-control reductions (may overlap communication still in flight).
  a.post_reduce(ctx, s, iteration, control);
  /// Close the iteration; true when the cluster has converged.
  { a.end_iteration(ctx, s, iteration, control) } -> std::convertible_to<bool>;
  /// Whether the engine should record per-iteration counter history.
  { ca.collect_counters() } -> std::convertible_to<bool>;
  /// The just-ended iteration's counters (engine owns the history).
  { ca.iteration_counters(cs) } -> std::convertible_to<sim::GpuIterationCounters>;
  /// Post-loop work (e.g. the BFS parent exchange); `iteration` here is the
  /// total iteration count, identical on every GPU.
  a.finalize(ctx, s, iteration);
  /// Epoch checkpoint: a value copy of everything the iteration loop
  /// mutates, taken at an iteration boundary.  Value-typed States use
  /// `Snapshot = State`; states holding atomics define an explicit struct.
  { ca.snapshot(ctx, cs) } -> std::same_as<typename A::Snapshot>;
  /// Rewind the state to a snapshot taken at the same boundary (rollback
  /// recovery after a device failure); the run then replays bit-exactly.
  a.restore(ctx, s, snap);
};

/// What one engine run leaves behind for host-side result assembly.
template <typename State>
struct EngineRun {
  std::vector<std::unique_ptr<State>> states;  // per global GPU
  std::vector<std::vector<sim::GpuIterationCounters>> histories;
  int iterations = 0;
  double measured_ms = 0;
  /// Fault log + recovery work of the run (empty/zero on a clean run).
  /// With rollback recovery the histories hold one row per *executed*
  /// iteration -- replayed rows append -- while `iterations` stays the
  /// logical count; the modeled time then honestly includes the replays.
  sim::FaultReport fault;

  const State& state(int gpu) const {
    return *states[static_cast<std::size_t>(gpu)];
  }
};

/// Shared entry-point validation: `graph` and `cluster` share a spec.
/// Throws std::invalid_argument on mismatch.
void check_specs_match(const graph::DistributedGraph& graph,
                       const sim::Cluster& cluster);

/// The check every facade constructor runs: the specs match, and the
/// cluster can route the facade's exchange topology (the butterfly needs a
/// power-of-two node count; see sim::check_routable).  Throws
/// std::invalid_argument, so a bad combination fails on the caller's
/// thread instead of inside a simulated GPU's exchange.
void check_facade_setup(const graph::DistributedGraph& graph,
                        const sim::Cluster& cluster,
                        sim::ExchangeTopology topology);

template <IterativeAlgorithm Algo>
class IterativeEngine {
 public:
  using State = typename Algo::State;

  /// `graph` and `cluster` must outlive the engine and share their spec.
  IterativeEngine(const graph::DistributedGraph& graph, sim::Cluster& cluster,
                  EngineOptions options = {})
      : graph_(graph), cluster_(cluster), options_(options) {
    check_specs_match(graph, cluster);
  }

  /// One collective run: executes the phase loop on every simulated GPU
  /// concurrently until the termination allreduce reports convergence, then
  /// the finalize hooks.  Callable repeatedly; each run rebuilds all state.
  ///
  /// Under a resilience plan the loop grows three deterministic steps at
  /// each iteration top: injected device events (stall, permanent failure
  /// with cluster-wide rollback to the last checkpoint), then the epoch
  /// checkpoint itself.  All are no-ops on a clean run, whose executed
  /// phase sequence -- and counters -- are untouched.
  EngineRun<State> run(Algo& algo) {
    const sim::ClusterSpec spec = graph_.spec();
    const int p = spec.total_gpus();
    const sim::FaultPlanConfig& fc = options_.resilience.faults;

    CommContext comm(spec);
    sim::FaultPlan plan(fc);
    if (fc.message_faults()) comm.transport().set_fault_plan(&plan);
    // Rollback needs a recovery point: a scheduled permanent failure forces
    // per-iteration checkpointing when no cadence was chosen.
    int checkpoint_interval = options_.resilience.checkpoint_interval;
    if (fc.failure_planned() && checkpoint_interval <= 0) {
      checkpoint_interval = 1;
    }

    EngineRun<State> out;
    out.states.resize(static_cast<std::size_t>(p));
    out.histories.resize(static_cast<std::size_t>(p));
    std::vector<int> iterations(static_cast<std::size_t>(p), 0);
    std::vector<int> checkpoints(static_cast<std::size_t>(p), 0);
    std::vector<int> rollbacks(static_cast<std::size_t>(p), 0);
    std::vector<int> replayed(static_cast<std::size_t>(p), 0);

    util::Timer wall;
    cluster_.run([&](sim::GpuCoord me, sim::Device& device) {
      const int g = spec.global_gpu(me);
      // Engine-owned two-stream pipeline.
      sim::Stream delegate_stream;
      sim::Stream normal_stream;
      GpuContext ctx{me,     device, g,    p, graph_, comm, delegate_stream,
                     normal_stream};
      // Queued hook tasks reference ctx (and the algorithm state); drain
      // both streams before ctx goes out of scope on every path, including
      // exception unwinding out of a hook.
      struct StreamDrain {
        sim::Stream& delegate_stream;
        sim::Stream& normal_stream;
        ~StreamDrain() {
          delegate_stream.synchronize();
          normal_stream.synchronize();
        }
      } drain{delegate_stream, normal_stream};

      auto state_ptr = algo.init(ctx);
      State& s = *state_ptr;
      out.states[static_cast<std::size_t>(g)] = std::move(state_ptr);
      device.allocate(Algo::kStateLabel, algo.state_bytes(ctx, s));

      auto& history = out.histories[static_cast<std::size_t>(g)];
      const auto gi = static_cast<std::size_t>(g);
      std::optional<typename Algo::Snapshot> snap;
      int snap_iteration = -1;
      bool stall_done = false;    // transient events fire once, not on replay
      bool failure_done = false;
      std::uint64_t pending_stall_ns = 0;
      std::uint64_t pending_recovery_ns = 0;
      std::uint64_t pending_checkpoint_bytes = 0;

      bool done = false;
      int iteration = 0;
      while (!done) {
        // ---- injected device events (deterministic iteration top) --------
        if (!stall_done && plan.stall_due(g, iteration)) {
          stall_done = true;
          pending_stall_ns += fc.stall_ns;
          plan.record({sim::FaultKind::kStall, g, -1, -1,
                       static_cast<std::uint64_t>(iteration)});
        }
        if (!failure_done && fc.failure_planned() &&
            iteration == fc.fail_iteration) {
          // Permanent GPU failure: the cluster detects it at the iteration
          // boundary (every thread reaches this top in lockstep -- the
          // control allreduce guarantees it), quiesces, discards all
          // in-flight wire state, rewinds every GPU to the last checkpoint
          // and replays.  The respawned device inherits the snapshot, so
          // the replay -- drawing fresh fault decisions -- finishes the
          // traversal bit-exactly.
          comm.transport().barrier();
          if (g == 0) {
            plan.record({sim::FaultKind::kGpuFailure, fc.fail_gpu, -1, -1,
                         static_cast<std::uint64_t>(iteration)});
            comm.transport().purge();
          }
          comm.transport().barrier();
          failure_done = true;
          ++rollbacks[gi];
          pending_recovery_ns += fc.fail_recovery_ns;
          if (snap) {
            algo.restore(ctx, s, *snap);
            replayed[gi] += iteration - snap_iteration;
            iteration = snap_iteration;
          }
          // No snapshot yet means the failure hit before any state mutated
          // (iteration 0); the freshly initialized state replays from the
          // start as-is.
        }
        // ---- epoch checkpoint (skipped right after a rollback restored
        // this very boundary; re-saving it would be pure churn) ------------
        if (checkpoint_interval > 0 && iteration % checkpoint_interval == 0 &&
            (!snap || snap_iteration != iteration)) {
          snap = algo.snapshot(ctx, s);
          snap_iteration = iteration;
          ++checkpoints[gi];
          pending_checkpoint_bytes += algo.state_bytes(ctx, s);
        }

        algo.previsit(ctx, s, iteration);
        algo.visit(ctx, s, iteration);
        if (options_.overlap) {
          // Delegate-side reduction and normal-side exchange run
          // concurrently; `contribution` joins what the control word needs.
          delegate_stream.enqueue(
              [&algo, &ctx, &s, iteration] { algo.reduce(ctx, s, iteration); });
          normal_stream.enqueue([&algo, &ctx, &s, iteration] {
            algo.exchange(ctx, s, iteration);
          });
        } else {
          delegate_stream.synchronize();
          normal_stream.synchronize();
          algo.reduce(ctx, s, iteration);
          algo.exchange(ctx, s, iteration);
        }
        const std::uint64_t local = algo.contribution(ctx, s, iteration);
        const std::uint64_t control =
            comm.control_allreduce(g, local, iteration);
        algo.post_reduce(ctx, s, iteration, control);
        done = algo.end_iteration(ctx, s, iteration, control);
        // Iteration barrier: counters and carried state must be settled
        // before the engine snapshots history and previsit mutates again.
        delegate_stream.synchronize();
        normal_stream.synchronize();
        if (algo.collect_counters()) {
          sim::GpuIterationCounters row = algo.iteration_counters(s);
          row.stall_ns += pending_stall_ns;
          row.recovery_ns += pending_recovery_ns;
          row.checkpoint_bytes += pending_checkpoint_bytes;
          pending_stall_ns = 0;
          pending_recovery_ns = 0;
          pending_checkpoint_bytes = 0;
          history.push_back(row);
        }
        ++iteration;
      }
      iterations[gi] = iteration;

      algo.finalize(ctx, s, iteration);
      device.release(Algo::kStateLabel);
    });
    out.measured_ms = wall.elapsed_ms();
    out.iterations = iterations[0];
    if (fc.enabled() || checkpoint_interval > 0) {
      out.fault.events = plan.log();
      for (int g = 0; g < p; ++g) {
        const auto gi = static_cast<std::size_t>(g);
        out.fault.checkpoints += checkpoints[gi];
        for (const sim::GpuIterationCounters& row : out.histories[gi]) {
          out.fault.retries += row.retries;
          out.fault.corrupt_bins += row.corrupt_bins;
          out.fault.recovery_ns += row.recovery_ns;
          out.fault.checkpoint_bytes += row.checkpoint_bytes;
        }
      }
      // Rollbacks are cluster-wide events every thread observes identically.
      out.fault.rollbacks = rollbacks[0];
      out.fault.replayed_iterations = replayed[0];
    }
    return out;
  }

 private:
  const graph::DistributedGraph& graph_;
  sim::Cluster& cluster_;
  EngineOptions options_;
};

}  // namespace dsbfs::engine

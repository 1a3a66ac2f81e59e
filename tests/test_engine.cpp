#include "engine/iterative_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "baseline/host_apps.hpp"
#include "baseline/serial_bfs.hpp"
#include "core/batch_bfs.hpp"
#include "core/batch_sssp.hpp"
#include "core/betweenness.hpp"
#include "core/bfs.hpp"
#include "core/components.hpp"
#include "core/delta_sssp.hpp"
#include "core/packing.hpp"
#include "core/pagerank.hpp"
#include "core/query_scheduler.hpp"
#include "core/sssp.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"

namespace dsbfs::engine {
namespace {

sim::ClusterSpec spec_of(int ranks, int gpus) {
  sim::ClusterSpec s;
  s.num_ranks = ranks;
  s.gpus_per_rank = gpus;
  return s;
}

// ---- TagBlocks -----------------------------------------------------------

TEST(TagBlocks, MatchesTheHistoricTagArithmetic) {
  EXPECT_EQ(TagBlocks::control(0), comm::kTagControl);
  EXPECT_EQ(TagBlocks::control(3), comm::kTagControl + 3 * comm::kTagBlock);
  EXPECT_EQ(TagBlocks::user(5), comm::kTagUser + 5 * comm::kTagBlock);
  EXPECT_EQ(TagBlocks::user(5, 4), comm::kTagUser + 5 * comm::kTagBlock + 4);
  // The BFS parent exchange historically ran on block depth + 2.
  EXPECT_EQ(TagBlocks::user(TagBlocks::after_loop(7)),
            comm::kTagUser + (7 + 2) * comm::kTagBlock);
  // Channel spacing lives with the reducers now (comm::kReduceChannelStride);
  // PageRank's three per-iteration reductions must fit.
  static_assert(comm::kMaxReduceChannels >= 3);
  static_assert(comm::kReduceChannelStride > 0);
}

TEST(TagBlocks, PostLoopBlocksStayDisjointFromIterations) {
  const int iterations = 11;
  for (int phase = 0; phase < 3; ++phase) {
    const int block = TagBlocks::after_loop(iterations, phase);
    // Strictly past every iteration's block, and per-phase distinct.
    EXPECT_GT(TagBlocks::user(block), TagBlocks::control(iterations));
    EXPECT_GT(TagBlocks::user(block), TagBlocks::user(iterations));
    if (phase > 0) {
      EXPECT_GT(block, TagBlocks::after_loop(iterations, phase - 1));
    }
  }
}

// ---- parent-probe packing (core/packing.hpp) -----------------------------

TEST(ParentPacking, RoundTripsAtMaximumLocalIdWidth) {
  // The exchange delivers any 32-bit local id; the deepest representable
  // level and the lane (0 for a single-source run, up to 63) must not
  // bleed into it (and vice versa).
  const std::uint64_t max_local = kInvalidLocal;  // 0xffffffff
  const Depth max_level = static_cast<Depth>(core::kParentDepthMask);
  for (const int lane : {0, 63}) {
    const std::uint64_t word =
        core::pack_lane_parent_probe(max_local, lane, max_level);
    EXPECT_EQ(core::lane_parent_probe_local(word), max_local);
    EXPECT_EQ(core::lane_parent_probe_lane(word), lane);
    EXPECT_EQ(core::lane_parent_probe_level(word), max_level);

    const std::uint64_t word2 =
        core::pack_lane_parent_probe(max_local, lane, 0);
    EXPECT_EQ(core::lane_parent_probe_local(word2), max_local);
    EXPECT_EQ(core::lane_parent_probe_lane(word2), lane);
    EXPECT_EQ(core::lane_parent_probe_level(word2), 0);

    const std::uint64_t word3 = core::pack_lane_parent_probe(0, lane, max_level);
    EXPECT_EQ(core::lane_parent_probe_local(word3), 0u);
    EXPECT_EQ(core::lane_parent_probe_lane(word3), lane);
    EXPECT_EQ(core::lane_parent_probe_level(word3), max_level);
  }
}

// ---- CommContext ---------------------------------------------------------

TEST(CommContext, OwnsTheClusterWideCollectives) {
  const auto spec = spec_of(2, 2);
  CommContext comm(spec);
  ASSERT_EQ(comm.everyone().size(), 4u);
  for (int g = 0; g < 4; ++g) EXPECT_EQ(comm.everyone()[g], g);

  // control_allreduce sums every GPU's word.
  std::vector<std::uint64_t> results(4);
  std::vector<std::thread> threads;
  for (int g = 0; g < 4; ++g) {
    threads.emplace_back([&, g] {
      results[static_cast<std::size_t>(g)] = comm.control_allreduce(
          g, static_cast<std::uint64_t>(10 + g), /*iteration=*/0);
    });
  }
  for (auto& th : threads) th.join();
  for (const std::uint64_t r : results) EXPECT_EQ(r, 10u + 11 + 12 + 13);
}

// ---- IterativeEngine with a toy algorithm --------------------------------

/// Countdown: GPU g starts with g + 1 units of work and burns one per
/// iteration; the cluster converges when the control allreduce sees zero
/// remaining anywhere.  Records the phase sequence to pin the engine's
/// calling order.
class CountdownAlgorithm {
 public:
  static constexpr const char* kStateLabel = "countdown.state";

  struct State {
    int remaining = 0;
    std::vector<std::string> trace;
    int finalize_iterations = -1;
    sim::GpuIterationCounters iter;
  };

  std::unique_ptr<State> init(GpuContext& ctx) {
    auto s = std::make_unique<State>();
    s->remaining = ctx.gpu + 1;
    return s;
  }
  std::uint64_t state_bytes(const GpuContext&, const State&) const {
    return 64;
  }
  using Snapshot = State;
  Snapshot snapshot(GpuContext&, const State& s) const { return s; }
  void restore(GpuContext&, State& s, const Snapshot& snap) { s = snap; }
  void previsit(GpuContext&, State& s, int) {
    s.iter = sim::GpuIterationCounters{};
    s.trace.push_back("previsit");
  }
  void visit(GpuContext&, State& s, int iteration) {
    s.iter.nn.edges = static_cast<std::uint64_t>(iteration);
    s.trace.push_back("visit");
  }
  void reduce(GpuContext&, State& s, int) { s.trace.push_back("reduce"); }
  void exchange(GpuContext&, State& s, int) { s.trace.push_back("exchange"); }
  std::uint64_t contribution(GpuContext&, State& s, int) {
    s.trace.push_back("contribution");
    return static_cast<std::uint64_t>(s.remaining);
  }
  void post_reduce(GpuContext&, State& s, int, std::uint64_t) {
    s.trace.push_back("post_reduce");
  }
  bool end_iteration(GpuContext&, State& s, int, std::uint64_t control) {
    s.trace.push_back("end");
    if (s.remaining > 0) --s.remaining;
    return control == 0;
  }
  bool collect_counters() const { return true; }
  sim::GpuIterationCounters iteration_counters(const State& s) const {
    return s.iter;
  }
  void finalize(GpuContext&, State& s, int iterations) {
    s.finalize_iterations = iterations;
  }
};

TEST(IterativeEngine, RunsPhasesInOrderUntilControlConverges) {
  const auto spec = spec_of(2, 2);  // p = 4; slowest GPU holds 4 units
  sim::Cluster cluster(spec);
  const graph::EdgeList g = graph::path_graph(16);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 4);

  CountdownAlgorithm algo;
  // Sequential schedule: hook order is only deterministic without the
  // two-stream overlap (overlapped reduce/exchange run on stream threads).
  IterativeEngine<CountdownAlgorithm> engine(dg, cluster, {.overlap = false});
  const auto run = engine.run(algo);

  // GPU 3 needs 4 iterations to drain, plus the all-zero round that
  // announces convergence.
  EXPECT_EQ(run.iterations, 5);
  EXPECT_GT(run.measured_ms, 0.0);
  const std::vector<std::string> phases = {
      "previsit", "visit", "reduce", "exchange", "contribution",
      "post_reduce", "end"};
  for (int g_idx = 0; g_idx < 4; ++g_idx) {
    const auto& s = run.state(g_idx);
    EXPECT_EQ(s.remaining, 0);
    EXPECT_EQ(s.finalize_iterations, 5);
    ASSERT_EQ(s.trace.size(), phases.size() * 5);
    for (std::size_t i = 0; i < s.trace.size(); ++i) {
      EXPECT_EQ(s.trace[i], phases[i % phases.size()]) << i;
    }
    // Engine-owned history: one snapshot per iteration, taken after the
    // iteration ended.
    const auto& history = run.histories[static_cast<std::size_t>(g_idx)];
    ASSERT_EQ(history.size(), 5u);
    for (std::size_t it = 0; it < history.size(); ++it) {
      EXPECT_EQ(history[it].nn.edges, it);
    }
  }
}

TEST(IterativeEngine, RejectsMismatchedSpecs) {
  const graph::EdgeList g = graph::path_graph(16);
  const graph::DistributedGraph dg =
      graph::build_distributed(g, spec_of(2, 1), 4);
  sim::Cluster wrong(spec_of(2, 2));
  EXPECT_THROW((IterativeEngine<CountdownAlgorithm>(dg, wrong)),
               std::invalid_argument);
}

TEST(IterativeEngine, SpecCheckIsSharedByEveryAlgorithmConstructor) {
  const graph::EdgeList g = graph::path_graph(16);
  const graph::DistributedGraph dg =
      graph::build_distributed(g, spec_of(2, 1), 4);
  sim::Cluster wrong(spec_of(4, 1));
  EXPECT_THROW(core::DistributedBfs(dg, wrong), std::invalid_argument);
  EXPECT_THROW(core::ConnectedComponents(dg, wrong), std::invalid_argument);
  EXPECT_THROW(core::DistributedPagerank(dg, wrong), std::invalid_argument);
}

// ---- regression: ported algorithms still match the serial references -----

TEST(EnginePortRegression, BfsDistancesMatchSerialReference) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 31});
  const graph::HostCsr host = graph::build_host_csr(g);
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  core::DistributedBfs bfs(dg, cluster);
  for (const VertexId source : {VertexId{2}, VertexId{77}}) {
    const core::BfsResult r = bfs.run(source);
    const auto expected = baseline::serial_bfs(host, source);
    ASSERT_EQ(r.distances.size(), expected.size());
    for (VertexId v = 0; v < expected.size(); ++v) {
      ASSERT_EQ(r.distances[v], expected[v]) << "vertex " << v;
    }
  }
}

TEST(EnginePortRegression, ComponentLabelsMatchSerialReference) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 32});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  const core::CcResult r = core::ConnectedComponents(dg, cluster).run();
  const auto expected =
      baseline::serial_components(graph::build_host_csr(g));
  ASSERT_EQ(r.labels.size(), expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(r.labels[v], expected[v]) << "vertex " << v;
  }
}

TEST(EnginePortRegression, PagerankMatchesSerialReference) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 33});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  const core::PagerankResult r = core::DistributedPagerank(dg, cluster).run();
  const auto expected = baseline::serial_pagerank(graph::build_host_csr(g));
  ASSERT_EQ(r.ranks.size(), expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_NEAR(r.ranks[v], expected[v], 1e-9) << "vertex " << v;
  }
}

// ---- two-stream overlap --------------------------------------------------

TEST(EngineOverlap, ValueAlgorithmResultsIdenticalAndModeledTimeLower) {
  // The delegate label reduction runs concurrently with the normal-label
  // exchange under overlap; results must be identical either way, and the
  // replayed cluster time must strictly favour the overlapped schedule.
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 35});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);

  core::CcOptions on;
  on.overlap = true;
  core::CcOptions off;
  off.overlap = false;
  const core::CcResult r_on = core::ConnectedComponents(dg, cluster, on).run();
  const core::CcResult r_off =
      core::ConnectedComponents(dg, cluster, off).run();

  EXPECT_EQ(r_on.labels, r_off.labels);
  EXPECT_EQ(r_on.update_bytes_remote, r_off.update_bytes_remote);
  EXPECT_LT(r_on.modeled_ms, r_off.modeled_ms);
}

TEST(EngineOverlap, BfsSequentialScheduleMatchesOverlapped) {
  // BFS on the engine's sequential branch: same distances, and the replayed
  // cluster time must not beat the overlapped schedule.
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 36});
  const graph::HostCsr host = graph::build_host_csr(g);
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);

  core::BfsOptions off;
  off.overlap = false;
  const core::BfsResult r_on = core::DistributedBfs(dg, cluster).run(7);
  const core::BfsResult r_off =
      core::DistributedBfs(dg, cluster, off).run(7);

  EXPECT_EQ(r_on.distances, r_off.distances);
  const auto expected = baseline::serial_bfs(host, 7);
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(r_off.distances[v], expected[v]) << "vertex " << v;
  }
  EXPECT_LT(r_on.metrics.modeled_ms, r_off.metrics.modeled_ms);
}

TEST(EnginePortRegression, BfsParentsStillFormValidTree) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 34});
  const graph::HostCsr host = graph::build_host_csr(g);
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 8);
  core::BfsOptions options;
  options.compute_parents = true;
  core::DistributedBfs bfs(dg, cluster, options);
  const VertexId source = 5;
  const core::BfsResult r = bfs.run(source);
  ASSERT_EQ(r.parents.size(), r.distances.size());
  EXPECT_EQ(r.parents[source], source);
  for (VertexId v = 0; v < r.parents.size(); ++v) {
    if (v == source || r.distances[v] == kUnvisited) continue;
    const VertexId parent = r.parents[v];
    ASSERT_NE(parent, kInvalidVertex) << v;
    // Parent sits exactly one level closer to the source.
    EXPECT_EQ(r.distances[parent] + 1, r.distances[v]) << v;
  }
}

// ---- facade construction -------------------------------------------------

TEST(FacadeSetup, ButterflyOnNonPowerOfTwoNodesIsRejectedAtConstruction) {
  // Three nodes cannot route a butterfly.  Every facade must refuse the
  // combination on the caller's thread; the same call used to throw on a
  // simulated GPU's thread and terminate the process.
  const graph::EdgeList g = graph::grid_graph(6, 6);
  const auto spec = spec_of(3, 1);  // one rank per node: 3 nodes
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 3);
  constexpr auto kFly = sim::ExchangeTopology::kButterfly;
  EXPECT_THROW(core::DistributedBfs(dg, cluster, {.exchange_topology = kFly}),
               std::invalid_argument);
  EXPECT_THROW(
      core::DistributedBatchBfs(dg, cluster, {.exchange_topology = kFly}),
      std::invalid_argument);
  EXPECT_THROW(core::QueryScheduler(dg, cluster, {.exchange_topology = kFly}),
               std::invalid_argument);
  EXPECT_THROW(core::DistributedSssp(dg, cluster, {.exchange_topology = kFly}),
               std::invalid_argument);
  EXPECT_THROW(
      core::DistributedDeltaSssp(dg, cluster, {.exchange_topology = kFly}),
      std::invalid_argument);
  EXPECT_THROW(
      core::DistributedBatchSssp(dg, cluster, {.exchange_topology = kFly}),
      std::invalid_argument);
  EXPECT_THROW(
      core::ConnectedComponents(dg, cluster, {.exchange_topology = kFly}),
      std::invalid_argument);
  EXPECT_THROW(
      core::DistributedPagerank(dg, cluster, {.exchange_topology = kFly}),
      std::invalid_argument);
  EXPECT_THROW(
      core::BetweennessCentrality(dg, cluster, {.exchange_topology = kFly}),
      std::invalid_argument);
  // The other topologies route any node count.
  EXPECT_NO_THROW(core::DistributedBfs(
      dg, cluster,
      {.exchange_topology = sim::ExchangeTopology::kHierarchical}));
}

}  // namespace
}  // namespace dsbfs::engine

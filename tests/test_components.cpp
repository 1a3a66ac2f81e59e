#include "core/components.hpp"

#include <gtest/gtest.h>

#include "baseline/host_apps.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"

namespace dsbfs::core {
namespace {

sim::ClusterSpec spec_of(int ranks, int gpus) {
  sim::ClusterSpec s;
  s.num_ranks = ranks;
  s.gpus_per_rank = gpus;
  return s;
}

CcResult run_cc(const graph::EdgeList& g, sim::ClusterSpec spec,
                std::uint32_t th) {
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, th);
  ConnectedComponents cc(dg, cluster);
  return cc.run();
}

void expect_matches_host(const graph::EdgeList& g, sim::ClusterSpec spec,
                         std::uint32_t th) {
  const CcResult r = run_cc(g, spec, th);
  const auto expected = baseline::serial_components(graph::build_host_csr(g));
  ASSERT_EQ(r.labels.size(), expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(r.labels[v], expected[v])
        << "vertex " << v << " spec " << spec.to_string() << " th " << th;
  }
}

TEST(HostComponents, TwoCliques) {
  const auto labels =
      baseline::serial_components(graph::build_host_csr(graph::two_cliques(4)));
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(labels[v], 0u);
  for (VertexId v = 4; v < 8; ++v) EXPECT_EQ(labels[v], 4u);
}

TEST(HostComponents, IsolatedVerticesLabelThemselves) {
  graph::EdgeList g;
  g.num_vertices = 5;
  g.add(1, 3);
  g.add(3, 1);
  const auto labels = baseline::serial_components(graph::build_host_csr(g));
  EXPECT_EQ(labels[0], 0u);
  EXPECT_EQ(labels[1], 1u);
  EXPECT_EQ(labels[3], 1u);
  EXPECT_EQ(labels[4], 4u);
}

TEST(Components, SingleComponentGraphs) {
  expect_matches_host(graph::path_graph(30), spec_of(2, 2), 4);
  expect_matches_host(graph::star_graph(40), spec_of(2, 2), 8);
  expect_matches_host(graph::cycle_graph(25), spec_of(2, 2), 4);
}

TEST(Components, MultiComponent) {
  expect_matches_host(graph::two_cliques(8), spec_of(2, 2), 4);
}

TEST(Components, CountsComponents) {
  const CcResult r = run_cc(graph::two_cliques(8), spec_of(2, 1), 4);
  EXPECT_EQ(r.num_components, 2u);
  EXPECT_GT(r.iterations, 0);
}

TEST(Components, IsolatedVerticesCounted) {
  graph::EdgeList g;
  g.num_vertices = 10;
  g.add(0, 1);
  g.add(1, 0);
  const CcResult r = run_cc(g, spec_of(2, 1), 4);
  EXPECT_EQ(r.num_components, 9u);  // {0,1} plus 8 singletons
}

struct CcCase {
  const char* name;
  int ranks, gpus;
  std::uint32_t th;
};

class ComponentsSweep : public ::testing::TestWithParam<CcCase> {};

TEST_P(ComponentsSweep, RandomGraphsMatchHost) {
  const CcCase c = GetParam();
  // Erdos-Renyi below the connectivity threshold: many components.
  const graph::EdgeList g = graph::erdos_renyi(1 << 10, 1 << 9, 91);
  expect_matches_host(g, spec_of(c.ranks, c.gpus), c.th);
  // RMAT: one giant component plus isolated vertices.
  const graph::EdgeList r = graph::rmat_graph500({.scale = 10, .seed = 92});
  expect_matches_host(r, spec_of(c.ranks, c.gpus), c.th);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ComponentsSweep,
    ::testing::Values(CcCase{"single", 1, 1, 16}, CcCase{"quad", 2, 2, 16},
                      CcCase{"wide", 4, 2, 32},
                      CcCase{"all_delegates", 2, 2, 0},
                      CcCase{"no_delegates", 2, 2, 1u << 20}),
    [](const auto& info) { return info.param.name; });

TEST(Components, DelegateTrafficIsValueSized) {
  // Section VI-D: beyond BFS, delegates carry values -- d x 8 bytes per
  // reduction instead of d/8.  The counters must reflect that.
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 93});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const auto dg = graph::build_distributed(g, spec, 16);
  ConnectedComponents cc(dg, cluster);
  const CcResult r = cc.run();
  EXPECT_EQ(r.reduce_bytes,
            2ULL * dg.num_delegates() * 8 * 2 *
                static_cast<std::uint64_t>(r.iterations));
  EXPECT_GT(r.modeled_ms, 0.0);
}

TEST(Components, ConvergesInDiameterIterations) {
  // Min labels propagate one hop per iteration: the path graph needs ~n
  // iterations, dense graphs only a few.
  const CcResult path = run_cc(graph::path_graph(64), spec_of(2, 1), 4);
  EXPECT_GE(path.iterations, 32);
  const CcResult clique = run_cc(graph::complete_graph(64), spec_of(2, 1), 4);
  EXPECT_LE(clique.iterations, 4);
}

TEST(Components, LabelsIdenticalAcrossTopologies) {
  // Component labels are integers: every cluster shape must produce the
  // exact same result (no floating-point or ordering leeway).
  const graph::EdgeList g = graph::erdos_renyi(1 << 11, 1 << 10, 94);
  const CcResult reference = run_cc(g, spec_of(1, 1), 16);
  for (const auto& [ranks, gpus] : {std::pair{1, 4}, {4, 1}, {2, 2}, {3, 2}}) {
    const CcResult r = run_cc(g, spec_of(ranks, gpus), 16);
    EXPECT_EQ(r.labels, reference.labels) << ranks << "x" << gpus;
    EXPECT_EQ(r.num_components, reference.num_components);
  }
}

TEST(Components, WebGraphMatchesHost) {
  graph::WebGraphLikeParams p;
  p.chain_length = 12;
  p.community_size = 64;
  expect_matches_host(graph::webgraph_like(p), spec_of(2, 2), 16);
}

TEST(Components, RejectsBadArguments) {
  const graph::EdgeList g = graph::path_graph(8);
  const auto spec = spec_of(2, 1);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 4);
  EXPECT_THROW(ConnectedComponents(dg, cluster, {.adaptive_compress = true}),
               std::invalid_argument);
  sim::Cluster wrong(spec_of(4, 1));
  EXPECT_THROW(ConnectedComponents(dg, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace dsbfs::core

#include "core/pagerank.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

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

PagerankResult run_pr(const graph::EdgeList& g, sim::ClusterSpec spec,
                      std::uint32_t th, PagerankOptions options = {}) {
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, th);
  DistributedPagerank pr(dg, cluster, options);
  return pr.run();
}

void expect_matches_host(const graph::EdgeList& g, sim::ClusterSpec spec,
                         std::uint32_t th, double tolerance = 1e-9) {
  const PagerankResult r = run_pr(g, spec, th);
  const auto expected = baseline::serial_pagerank(graph::build_host_csr(g));
  ASSERT_EQ(r.ranks.size(), expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_NEAR(r.ranks[v], expected[v], tolerance)
        << "vertex " << v << " spec " << spec.to_string() << " th " << th;
  }
}

TEST(HostPagerank, RanksSumToOne) {
  const auto ranks = baseline::serial_pagerank(
      graph::build_host_csr(graph::star_graph(20)));
  const double total = std::accumulate(ranks.begin(), ranks.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(HostPagerank, StarCenterDominates) {
  const auto ranks = baseline::serial_pagerank(
      graph::build_host_csr(graph::star_graph(20)));
  for (VertexId v = 1; v < 20; ++v) EXPECT_GT(ranks[0], ranks[v]);
}

TEST(HostPagerank, RegularGraphIsUniform) {
  // On a cycle every vertex has the same rank 1/n.
  const auto ranks = baseline::serial_pagerank(
      graph::build_host_csr(graph::cycle_graph(16)));
  for (const double r : ranks) EXPECT_NEAR(r, 1.0 / 16, 1e-9);
}

TEST(Pagerank, MatchesHostOnNamedGraphs) {
  expect_matches_host(graph::star_graph(40), spec_of(2, 2), 8);
  expect_matches_host(graph::path_graph(30), spec_of(2, 2), 4);
  expect_matches_host(graph::grid_graph(6, 5), spec_of(2, 2), 4);
}

TEST(Pagerank, HandlesDanglingVertices) {
  // Vertices with no out-edges exist under symmetry only as isolated
  // vertices; their mass must be redistributed, keeping the sum at 1.
  graph::EdgeList g;
  g.num_vertices = 8;
  g.add(0, 1);
  g.add(1, 0);
  const PagerankResult r = run_pr(g, spec_of(2, 1), 4);
  const double total = std::accumulate(r.ranks.begin(), r.ranks.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
  const auto expected = baseline::serial_pagerank(graph::build_host_csr(g));
  for (VertexId v = 0; v < 8; ++v) EXPECT_NEAR(r.ranks[v], expected[v], 1e-9);
}

struct PrCase {
  const char* name;
  int ranks, gpus;
  std::uint32_t th;
};

class PagerankSweep : public ::testing::TestWithParam<PrCase> {};

TEST_P(PagerankSweep, RandomGraphsMatchHost) {
  const PrCase c = GetParam();
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 95});
  // Distributed summation reassociates floating point adds; tolerance
  // covers the tiny divergence over 50 iterations.
  expect_matches_host(g, spec_of(c.ranks, c.gpus), c.th, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PagerankSweep,
    ::testing::Values(PrCase{"single", 1, 1, 16}, PrCase{"quad", 2, 2, 16},
                      PrCase{"wide", 4, 2, 32},
                      PrCase{"all_delegates", 2, 1, 0},
                      PrCase{"no_delegates", 2, 2, 1u << 20}),
    [](const auto& info) { return info.param.name; });

TEST(Pagerank, SumInvariantEveryConfiguration) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 96});
  const PagerankResult r = run_pr(g, spec_of(2, 2), 16);
  const double total = std::accumulate(r.ranks.begin(), r.ranks.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-6);
  EXPECT_GT(r.iterations, 2);
  EXPECT_GT(r.modeled_ms, 0.0);
}

TEST(Pagerank, ConvergenceStopsEarly) {
  PagerankOptions loose;
  loose.tolerance = 1e-3;
  PagerankOptions tight;
  tight.tolerance = 1e-12;
  tight.max_iterations = 60;
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 97});
  const auto fast = run_pr(g, spec_of(2, 1), 16, loose);
  const auto slow = run_pr(g, spec_of(2, 1), 16, tight);
  EXPECT_LT(fast.iterations, slow.iterations);
  EXPECT_LT(slow.final_delta, 1e-10);
}

TEST(Pagerank, HubsOutrankLeaves) {
  // Scale-free graph: delegate (hub) vertices should collect high rank.
  const graph::EdgeList g = graph::rmat_graph500({.scale = 11, .seed = 98});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const auto dg = graph::build_distributed(g, spec, 64);
  DistributedPagerank pr(dg, cluster);
  const PagerankResult r = pr.run();
  // Mean rank of delegates far exceeds the global mean.
  double delegate_sum = 0;
  for (LocalId t = 0; t < dg.num_delegates(); ++t) {
    delegate_sum += r.ranks[dg.delegates().vertex_of(t)];
  }
  const double delegate_mean =
      delegate_sum / std::max<LocalId>(1, dg.num_delegates());
  EXPECT_GT(delegate_mean, 4.0 / static_cast<double>(g.num_vertices));
}

TEST(Pagerank, RejectsBadArguments) {
  const graph::EdgeList g = graph::path_graph(8);
  const auto spec = spec_of(2, 1);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 4);
  // Codec refinements are meaningless without the codec.
  EXPECT_THROW(DistributedPagerank(dg, cluster, {.adaptive_compress = true}),
               std::invalid_argument);
  EXPECT_THROW(DistributedPagerank(dg, cluster, {.gorilla = true}),
               std::invalid_argument);
  sim::Cluster wrong(spec_of(4, 1));
  EXPECT_THROW(DistributedPagerank(dg, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace dsbfs::core

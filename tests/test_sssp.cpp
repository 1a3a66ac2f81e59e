#include "core/sssp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "baseline/host_apps.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "util/hash.hpp"

namespace dsbfs::core {
namespace {

sim::ClusterSpec spec_of(int ranks, int gpus) {
  sim::ClusterSpec s;
  s.num_ranks = ranks;
  s.gpus_per_rank = gpus;
  return s;
}

SsspResult run_sssp(const graph::EdgeList& g, sim::ClusterSpec spec,
                    std::uint32_t th, VertexId source,
                    SsspOptions options = {}) {
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, th);
  DistributedSssp sssp(dg, cluster, options);
  return sssp.run(source);
}

void expect_matches_serial(const graph::EdgeList& g, sim::ClusterSpec spec,
                           std::uint32_t th, VertexId source) {
  const SsspResult r = run_sssp(g, spec, th, source);
  const auto expected =
      baseline::serial_sssp(graph::build_host_csr(g), source);
  ASSERT_EQ(r.distances.size(), expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(r.distances[v], expected[v])
        << "vertex " << v << " source " << source << " spec "
        << spec.to_string() << " th " << th;
  }
}

TEST(EdgeWeight, SymmetricAndInRange) {
  for (VertexId u = 0; u < 50; ++u) {
    for (VertexId v = 0; v < 50; ++v) {
      const std::uint32_t w = util::edge_weight(u, v, 15);
      EXPECT_EQ(w, util::edge_weight(v, u, 15));
      EXPECT_GE(w, 1u);
      EXPECT_LE(w, 15u);
    }
  }
}

TEST(EdgeWeight, SpreadsAcrossRange) {
  // The hash should hit every weight class over a few thousand edges.
  std::vector<int> seen(16, 0);
  for (VertexId u = 0; u < 100; ++u) {
    for (VertexId v = u + 1; v < 100; ++v) {
      ++seen[util::edge_weight(u, v, 15)];
    }
  }
  for (std::uint32_t w = 1; w <= 15; ++w) EXPECT_GT(seen[w], 0) << w;
}

TEST(SerialSssp, PathDistancesAreWeightPrefixSums) {
  const auto dist =
      baseline::serial_sssp(graph::build_host_csr(graph::path_graph(12)), 0);
  std::uint64_t acc = 0;
  EXPECT_EQ(dist[0], 0u);
  for (VertexId v = 1; v < 12; ++v) {
    acc += util::edge_weight(v - 1, v, 15);
    EXPECT_EQ(dist[v], acc) << v;
  }
}

TEST(SerialSssp, UnreachableStaysInfinite) {
  graph::EdgeList g;
  g.num_vertices = 6;
  g.add(0, 1);
  g.add(1, 0);
  g.add(3, 4);
  g.add(4, 3);
  const auto dist = baseline::serial_sssp(graph::build_host_csr(g), 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_NE(dist[1], kInfiniteDistance);
  EXPECT_EQ(dist[3], kInfiniteDistance);
  EXPECT_EQ(dist[5], kInfiniteDistance);
}

TEST(Sssp, MatchesSerialOnNamedGraphs) {
  expect_matches_serial(graph::star_graph(40), spec_of(2, 2), 8, 1);
  expect_matches_serial(graph::path_graph(30), spec_of(2, 2), 4, 0);
  expect_matches_serial(graph::grid_graph(6, 5), spec_of(2, 2), 4, 7);
  expect_matches_serial(graph::cycle_graph(24), spec_of(2, 1), 4, 5);
}

TEST(Sssp, DelegateSourceMatchesSerial) {
  // Threshold 0 makes every vertex with an edge a delegate, so the source
  // is seeded through the replicated delegate path on every GPU.
  expect_matches_serial(graph::star_graph(20), spec_of(2, 2), 0, 0);
}

TEST(Sssp, UnreachableVerticesReportInfinity) {
  graph::EdgeList g;
  g.num_vertices = 8;
  g.add(0, 1);
  g.add(1, 0);
  const SsspResult r = run_sssp(g, spec_of(2, 1), 4, 0);
  EXPECT_EQ(r.distances[0], 0u);
  EXPECT_NE(r.distances[1], kInfiniteDistance);
  for (VertexId v = 2; v < 8; ++v) {
    EXPECT_EQ(r.distances[v], kInfiniteDistance) << v;
  }
}

struct SsspCase {
  const char* name;
  int ranks, gpus;
  std::uint32_t th;
};

class SsspSweep : public ::testing::TestWithParam<SsspCase> {};

TEST_P(SsspSweep, RandomGraphsMatchSerial) {
  const SsspCase c = GetParam();
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 77});
  const auto spec = spec_of(c.ranks, c.gpus);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, c.th);
  DistributedSssp sssp(dg, cluster);
  const graph::HostCsr host = graph::build_host_csr(g);
  for (const VertexId source : {VertexId{1}, VertexId{42}}) {
    const SsspResult r = sssp.run(source);
    const auto expected = baseline::serial_sssp(host, source);
    ASSERT_EQ(r.distances.size(), expected.size());
    for (VertexId v = 0; v < expected.size(); ++v) {
      ASSERT_EQ(r.distances[v], expected[v])
          << "vertex " << v << " source " << source << " case " << c.name;
    }
    EXPECT_GT(r.iterations, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SsspSweep,
    ::testing::Values(SsspCase{"single", 1, 1, 16}, SsspCase{"quad", 2, 2, 16},
                      SsspCase{"wide", 4, 2, 32},
                      SsspCase{"all_delegates", 2, 1, 0},
                      SsspCase{"no_delegates", 2, 2, 1u << 20}),
    [](const auto& info) { return info.param.name; });

/// Factors that force pull from the first non-empty round (to_backward = 0
/// switches as soon as any frontier edge exists; to_forward = 0 never
/// switches back).
SsspOptions forced_pull_options() {
  SsspOptions o;
  o.direction_optimized = true;
  o.dd_factors = {0.0, 0.0};
  o.dn_factors = {0.0, 0.0};
  o.nd_factors = {0.0, 0.0};
  return o;
}

TEST(Sssp, PushAndPullBitExactOnHashedWeights) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 31});
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  const auto expected = baseline::serial_sssp(graph::build_host_csr(g), 1);

  SsspOptions push;
  push.direction_optimized = false;
  const SsspResult rp = DistributedSssp(dg, cluster, push).run(1);
  EXPECT_EQ(rp.pull_iterations, 0);

  const SsspResult rb =
      DistributedSssp(dg, cluster, forced_pull_options()).run(1);
  EXPECT_GT(rb.pull_iterations, 0);

  const SsspResult rd = DistributedSssp(dg, cluster, SsspOptions{}).run(1);

  ASSERT_EQ(rp.distances, expected);
  ASSERT_EQ(rb.distances, expected);
  ASSERT_EQ(rd.distances, expected);
}

TEST(Sssp, PushAndPullBitExactOnStoredWeights) {
  graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 32});
  graph::assign_uniform_weights(g, 24, 13);
  const auto spec = spec_of(2, 2);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  ASSERT_TRUE(dg.weighted());
  const graph::WeightedHostCsr host = graph::build_weighted_host_csr(g);
  const auto expected = baseline::serial_sssp(
      host.csr, std::span<const std::uint32_t>(host.weights), 1);

  SsspOptions push;
  push.direction_optimized = false;
  const SsspResult rp = DistributedSssp(dg, cluster, push).run(1);
  const SsspResult rb =
      DistributedSssp(dg, cluster, forced_pull_options()).run(1);
  EXPECT_GT(rb.pull_iterations, 0);

  ASSERT_EQ(rp.distances, expected);
  ASSERT_EQ(rb.distances, expected);

  // Stored weights came from a different generator seed than the hashed
  // fallback, so they must actually change the answer somewhere.
  const auto hashed = baseline::serial_sssp(host.csr, 1);
  EXPECT_NE(expected, hashed);
}

TEST(Sssp, StoredWeightsMatchSerialOnNamedGraphs) {
  for (const std::uint32_t th : {std::uint32_t{0}, std::uint32_t{4}}) {
    graph::EdgeList g = graph::grid_graph(7, 5);
    graph::assign_uniform_weights(g, 100, 3);
    const auto spec = spec_of(2, 2);
    sim::Cluster cluster(spec);
    const graph::DistributedGraph dg = graph::build_distributed(g, spec, th);
    const graph::WeightedHostCsr host = graph::build_weighted_host_csr(g);
    const auto expected = baseline::serial_sssp(
        host.csr, std::span<const std::uint32_t>(host.weights), 0);
    const SsspResult r = DistributedSssp(dg, cluster).run(0);
    ASSERT_EQ(r.distances, expected) << "threshold " << th;
  }
}

TEST(Sssp, CollectsCountersAndModel) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 10, .seed = 78});
  const SsspResult r = run_sssp(g, spec_of(2, 2), 16, 3);
  EXPECT_GT(r.iterations, 1);
  EXPECT_GT(r.modeled_ms, 0.0);
  EXPECT_GT(r.update_bytes_remote, 0u);
  EXPECT_GT(r.reduce_bytes, 0u);
}

TEST(Sssp, RejectsBadArguments) {
  const graph::EdgeList g = graph::path_graph(8);
  const auto spec = spec_of(2, 1);
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 4);
  DistributedSssp sssp(dg, cluster);
  EXPECT_THROW(sssp.run(1000), std::out_of_range);
  EXPECT_THROW(DistributedSssp(dg, cluster, SsspOptions{.max_weight = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      DistributedSssp(dg, cluster, SsspOptions{.adaptive_compress = true}),
      std::invalid_argument);
  sim::Cluster wrong(spec_of(4, 1));
  EXPECT_THROW(DistributedSssp(dg, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace dsbfs::core

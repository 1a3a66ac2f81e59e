#include "core/pagerank.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>

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

// ---- golden pins ----------------------------------------------------------
// Every row runs 20 fixed power iterations on a fixed graph, cluster shape,
// exchange topology and wire, and pins the per-run sums of the exchange
// counters the perf model replays.  The modeled cluster runs a uniquify
// kernel over every raw nn contribution whatever the host does to produce
// the coalesced bins, so these sums are independent of how the facade
// builds them.  The raw and uniquify-off rows, whose wire bytes do not
// depend on the rank values, also pin the wire volumes and the modeled
// makespan as an exact double; the uniquify-off rows, whose fold order is
// the exchange's receive order, pin a digest of the rank bits too.

enum class Wire {
  kOff,      // uniquify off: every (id, share) candidate on the wire
  kRaw,      // uniquify on, raw 12-byte records
  kGorilla,  // uniquify on, compress + adaptive + gorilla
};

struct PrGoldenRow {
  const char* name;
  int scale;  // RMAT scale: 10 or 12
  int ranks_per_node;
  sim::ExchangeTopology topology;
  Wire wire;
  // Pinned on every row.
  std::uint64_t bin_vertices;
  std::uint64_t uniquify_vertices;
  std::uint64_t uniquify_bytes;
  std::uint64_t encode_bytes;
  std::uint64_t nn_edges;
  // Pinned on the kOff and kRaw rows (0 on kGorilla rows).
  std::uint64_t update_bytes_remote;
  std::uint64_t reduce_bytes;
  double elapsed_ms;
  // Pinned on the kOff rows (0 elsewhere).
  std::uint64_t rank_digest;
};

constexpr auto kFlat = sim::ExchangeTopology::kFlat;
constexpr auto kHier = sim::ExchangeTopology::kHierarchical;
constexpr auto kFly = sim::ExchangeTopology::kButterfly;

// clang-format off
const PrGoldenRow kGoldenRows[] = {
    {"rmat10 2x1x2 flat off", 10, 1, kFlat, Wire::kOff,
     54640, 0, 0, 0, 54640, 312960, 80000, 1.5024267648767933, 0xad3a7d16b1ff4fc6ull},
    {"rmat10 2x1x2 flat raw", 10, 1, kFlat, Wire::kRaw,
     54640, 40280, 483360, 0, 54640, 165120, 80000, 1.4944435608994469, 0x0000000000000000ull},
    {"rmat10 2x1x2 flat gorilla", 10, 1, kFlat, Wire::kGorilla,
     54640, 40280, 483360, 248880, 54640, 0, 0, 0, 0x0000000000000000ull},
    {"rmat10 2x1x2 hierarchical off", 10, 1, kHier, Wire::kOff,
     54640, 0, 0, 0, 54640, 315840, 80000, 1.9605241994153964, 0xad3a7d16b1ff4fc6ull},
    {"rmat10 2x1x2 hierarchical raw", 10, 1, kHier, Wire::kRaw,
     54640, 40280, 483360, 0, 54640, 168000, 80000, 1.9487537721883761, 0x0000000000000000ull},
    {"rmat10 2x1x2 hierarchical gorilla", 10, 1, kHier, Wire::kGorilla,
     54640, 40280, 483360, 248880, 54640, 0, 0, 0, 0x0000000000000000ull},
    {"rmat10 2x1x2 butterfly off", 10, 1, kFly, Wire::kOff,
     54640, 0, 0, 0, 54640, 315840, 80000, 1.9605241994153964, 0xad3a7d16b1ff4fc6ull},
    {"rmat10 2x1x2 butterfly raw", 10, 1, kFly, Wire::kRaw,
     54640, 40280, 483360, 0, 54640, 168000, 80000, 1.9487537721883761, 0x0000000000000000ull},
    {"rmat10 2x1x2 butterfly gorilla", 10, 1, kFly, Wire::kGorilla,
     54640, 40280, 483360, 248880, 54640, 0, 0, 0, 0x0000000000000000ull},
    {"rmat10 2x2x2 flat off", 10, 2, kFlat, Wire::kOff,
     54640, 0, 0, 0, 54640, 483360, 160000, 2.3537591841155967, 0xdab3faef71516531ull},
    {"rmat10 2x2x2 flat raw", 10, 2, kFlat, Wire::kRaw,
     54640, 46480, 557760, 0, 54640, 328080, 160000, 2.349362596505352, 0x0000000000000000ull},
    {"rmat10 2x2x2 flat gorilla", 10, 2, kFlat, Wire::kGorilla,
     54640, 46480, 557760, 378000, 54640, 0, 0, 0, 0x0000000000000000ull},
    {"rmat10 2x2x2 hierarchical off", 10, 2, kHier, Wire::kOff,
     54640, 0, 0, 0, 54640, 338880, 160000, 2.2211125680620163, 0xdab3faef71516531ull},
    {"rmat10 2x2x2 hierarchical raw", 10, 2, kHier, Wire::kRaw,
     54640, 46480, 557760, 0, 54640, 233040, 160000, 2.2463305345252187, 0x0000000000000000ull},
    {"rmat10 2x2x2 hierarchical gorilla", 10, 2, kHier, Wire::kGorilla,
     54640, 46480, 557760, 378000, 54640, 0, 0, 0, 0x0000000000000000ull},
    {"rmat10 2x2x2 butterfly off", 10, 2, kFly, Wire::kOff,
     54640, 0, 0, 0, 54640, 338880, 160000, 2.2211125680620163, 0xdab3faef71516531ull},
    {"rmat10 2x2x2 butterfly raw", 10, 2, kFly, Wire::kRaw,
     54640, 46480, 557760, 0, 54640, 233040, 160000, 2.2463305345252187, 0x0000000000000000ull},
    {"rmat10 2x2x2 butterfly gorilla", 10, 2, kFly, Wire::kGorilla,
     54640, 46480, 557760, 378000, 54640, 0, 0, 0, 0x0000000000000000ull},
    {"rmat12 2x1x2 flat off", 12, 1, kFlat, Wire::kOff,
     257360, 0, 0, 0, 257360, 1579680, 188800, 1.8603504225389511, 0xc14e8e2088a819afull},
    {"rmat12 2x1x2 flat raw", 12, 1, kFlat, Wire::kRaw,
     257360, 193280, 2319360, 0, 257360, 678000, 188800, 1.8379780041175775, 0x0000000000000000ull},
    {"rmat12 2x1x2 flat gorilla", 12, 1, kFlat, Wire::kGorilla,
     257360, 193280, 2319360, 1000320, 257360, 0, 0, 0, 0x0000000000000000ull},
    {"rmat12 2x1x2 hierarchical off", 12, 1, kHier, Wire::kOff,
     257360, 0, 0, 0, 257360, 1582560, 188800, 2.3558653291389482, 0xc14e8e2088a819afull},
    {"rmat12 2x1x2 hierarchical raw", 12, 1, kHier, Wire::kRaw,
     257360, 193280, 2319360, 0, 257360, 680880, 188800, 2.3109259402798097, 0x0000000000000000ull},
    {"rmat12 2x1x2 hierarchical gorilla", 12, 1, kHier, Wire::kGorilla,
     257360, 193280, 2319360, 1000320, 257360, 0, 0, 0, 0x0000000000000000ull},
    {"rmat12 2x1x2 butterfly off", 12, 1, kFly, Wire::kOff,
     257360, 0, 0, 0, 257360, 1582560, 188800, 2.3558653291389482, 0xc14e8e2088a819afull},
    {"rmat12 2x1x2 butterfly raw", 12, 1, kFly, Wire::kRaw,
     257360, 193280, 2319360, 0, 257360, 680880, 188800, 2.3109259402798097, 0x0000000000000000ull},
    {"rmat12 2x1x2 butterfly gorilla", 12, 1, kFly, Wire::kGorilla,
     257360, 193280, 2319360, 1000320, 257360, 0, 0, 0, 0x0000000000000000ull},
    {"rmat12 2x2x2 flat off", 12, 2, kFlat, Wire::kOff,
     257360, 0, 0, 0, 257360, 2319360, 377600, 2.560208754007721, 0x78d128f3b0a390f1ull},
    {"rmat12 2x2x2 flat raw", 12, 2, kFlat, Wire::kRaw,
     257360, 225080, 2700960, 0, 257360, 1394160, 377600, 2.5332827282594677, 0x0000000000000000ull},
    {"rmat12 2x2x2 flat gorilla", 12, 2, kFlat, Wire::kGorilla,
     257360, 225080, 2700960, 1615680, 257360, 0, 0, 0, 0x0000000000000000ull},
    {"rmat12 2x2x2 hierarchical off", 12, 2, kHier, Wire::kOff,
     257360, 0, 0, 0, 257360, 1547520, 377600, 2.4906296307043072, 0x78d128f3b0a390f1ull},
    {"rmat12 2x2x2 hierarchical raw", 12, 2, kHier, Wire::kRaw,
     257360, 225080, 2700960, 0, 257360, 935280, 377600, 2.4936456007460408, 0x0000000000000000ull},
    {"rmat12 2x2x2 hierarchical gorilla", 12, 2, kHier, Wire::kGorilla,
     257360, 225080, 2700960, 1615680, 257360, 0, 0, 0, 0x0000000000000000ull},
    {"rmat12 2x2x2 butterfly off", 12, 2, kFly, Wire::kOff,
     257360, 0, 0, 0, 257360, 1547520, 377600, 2.4906296307043072, 0x78d128f3b0a390f1ull},
    {"rmat12 2x2x2 butterfly raw", 12, 2, kFly, Wire::kRaw,
     257360, 225080, 2700960, 0, 257360, 935280, 377600, 2.4936456007460408, 0x0000000000000000ull},
    {"rmat12 2x2x2 butterfly gorilla", 12, 2, kFly, Wire::kGorilla,
     257360, 225080, 2700960, 1615680, 257360, 0, 0, 0, 0x0000000000000000ull},
};
// clang-format on

std::uint64_t rank_digest(const std::vector<double>& ranks) {
  std::uint64_t h = util::splitmix64(ranks.size());
  for (const double r : ranks) {
    h = util::hash_combine(h, std::bit_cast<std::uint64_t>(r));
  }
  return h;
}

/// The pinned fields of a row as a C++ initializer tail; fields a wire does
/// not pin print as 0, so a failure shows the actual row ready to compare
/// (and a deliberate re-pin is one paste).  %.17g round-trips a double.
std::string pinned_values(Wire wire, std::uint64_t bin_vertices,
                          std::uint64_t uniquify_vertices,
                          std::uint64_t uniquify_bytes,
                          std::uint64_t encode_bytes, std::uint64_t nn_edges,
                          std::uint64_t update_bytes_remote,
                          std::uint64_t reduce_bytes, double elapsed_ms,
                          std::uint64_t digest) {
  if (wire == Wire::kGorilla) {
    update_bytes_remote = reduce_bytes = 0;
    elapsed_ms = 0;
  }
  if (wire != Wire::kOff) digest = 0;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%llu, %llu, %llu, %llu, %llu, %llu, %llu, %.17g, 0x%016llxull",
                static_cast<unsigned long long>(bin_vertices),
                static_cast<unsigned long long>(uniquify_vertices),
                static_cast<unsigned long long>(uniquify_bytes),
                static_cast<unsigned long long>(encode_bytes),
                static_cast<unsigned long long>(nn_edges),
                static_cast<unsigned long long>(update_bytes_remote),
                static_cast<unsigned long long>(reduce_bytes), elapsed_ms,
                static_cast<unsigned long long>(digest));
  return buf;
}

TEST(Pagerank, GoldenCountersAndModeledTime) {
  const graph::EdgeList rmat10 =
      graph::rmat_graph500({.scale = 10, .seed = 171});
  const graph::EdgeList rmat12 =
      graph::rmat_graph500({.scale = 12, .seed = 172});

  for (const PrGoldenRow& row : kGoldenRows) {
    SCOPED_TRACE(row.name);
    const graph::EdgeList& g = row.scale == 10 ? rmat10 : rmat12;
    sim::ClusterSpec spec;
    spec.num_ranks = 2 * row.ranks_per_node;  // two modeled nodes
    spec.ranks_per_node = row.ranks_per_node;
    spec.gpus_per_rank = 2;
    sim::Cluster cluster(spec);
    const graph::DistributedGraph dg =
        graph::build_distributed(g, spec, row.scale == 10 ? 64 : 128);

    PagerankOptions options;
    options.max_iterations = 20;
    options.tolerance = 0;
    options.uniquify = row.wire != Wire::kOff;
    options.compress = options.adaptive_compress = options.gorilla =
        row.wire == Wire::kGorilla;
    options.exchange_topology = row.topology;
    const PagerankResult r = DistributedPagerank(dg, cluster, options).run();
    ASSERT_EQ(r.iterations, 20);

    std::uint64_t bin_vertices = 0, uniquify_vertices = 0, uniquify_bytes = 0,
                  encode_bytes = 0, nn_edges = 0;
    for (const sim::IterationCounters& it : r.counters.iterations) {
      for (const sim::GpuIterationCounters& c : it.gpu) {
        bin_vertices += c.bin_vertices;
        uniquify_vertices += c.uniquify_vertices;
        uniquify_bytes += c.uniquify_bytes;
        encode_bytes += c.encode_bytes;
        nn_edges += c.nn.edges;
      }
    }
    EXPECT_EQ(pinned_values(row.wire, bin_vertices, uniquify_vertices,
                            uniquify_bytes, encode_bytes, nn_edges,
                            r.update_bytes_remote, r.reduce_bytes,
                            r.modeled.elapsed_ms, rank_digest(r.ranks)),
              pinned_values(row.wire, row.bin_vertices, row.uniquify_vertices,
                            row.uniquify_bytes, row.encode_bytes, row.nn_edges,
                            row.update_bytes_remote, row.reduce_bytes,
                            row.elapsed_ms, row.rank_digest));
  }
}

}  // namespace
}  // namespace dsbfs::core

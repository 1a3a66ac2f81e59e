#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "util/hash.hpp"

/// Golden pins of the distributed BFS: the paper's numbers in one table.
///
/// Every row runs DistributedBfs on a fixed graph, cluster shape and option
/// set, and pins the traversal counters (S, S', m'), the wire volumes, the
/// modeled makespan and computation time as exact doubles, and one digest
/// of the distances and parents.  The values were captured from the
/// single-source engine before it became the width-1 lane round; a change
/// to any kernel, exchange or replay charge that moves a paper number
/// fails here even when every answer stays correct.
namespace dsbfs::core {
namespace {

enum class Family { kRmat10, kRmat12, kGrid };

struct GoldenRow {
  const char* name;
  Family family;
  int nodes;
  int ranks_per_node;
  // Options.
  bool direction_optimized;
  bool adaptive;
  bool local_all2all;
  bool uniquify;
  comm::ReduceMode reduce_mode;
  sim::ExchangeTopology topology;
  bool parents;
  std::uint64_t source_k;
  // Pinned values.
  int iterations;
  int delegate_reduce_iterations;
  std::uint64_t edges;
  std::uint64_t remote_bytes;
  std::uint64_t local_bytes;
  std::uint64_t mask_bytes;
  double elapsed_ms;
  double computation_ms;
  std::uint64_t digest;
};

constexpr auto kBR = comm::ReduceMode::kBlocking;
constexpr auto kIR = comm::ReduceMode::kNonBlocking;
constexpr auto kFlat = sim::ExchangeTopology::kFlat;
constexpr auto kHier = sim::ExchangeTopology::kHierarchical;
constexpr auto kFly = sim::ExchangeTopology::kButterfly;

// clang-format off
const GoldenRow kRows[] = {
    {"rmat10 2x2x2 DO adaptive parents", Family::kRmat10, 2, 2, true, true, false, false, kBR, kFlat, true, 1,
     6, 3, 2558, 480, 120, 1056, 0.47812916751615436, 0.20749551200000002, 0x882d45250e2bcc61ull},
    {"rmat10 2x1x2 DO static", Family::kRmat10, 2, 1, true, false, false, false, kBR, kFlat, false, 2,
     6, 3, 3090, 304, 176, 528, 0.3463974820629922, 0.20804914800000002, 0x94fa002ef5eb2a52ull},
    {"rmat10 2x2x2 push L U parents", Family::kRmat10, 2, 2, false, true, true, true, kBR, kFlat, true, 3,
     6, 3, 32768, 460, 392, 1056, 0.32106954644421953, 0.13203157199999996, 0x76c2a3c20087adebull},
    {"rmat10 2x1x2 DO static hierarchical IR parents", Family::kRmat10, 2, 1, true, false, false, false, kIR, kHier, true, 4,
     6, 3, 2886, 688, 1152, 528, 0.71967966981652476, 0.20797382800000003, 0xe0a9aa257917d608ull},
    {"rmat12 2x2x2 DO adaptive hierarchical U IR parents", Family::kRmat12, 2, 2, true, true, false, true, kIR, kHier, true, 1,
     6, 3, 11262, 4168, 13296, 2376, 1.0095098222252905, 0.22121766299999995, 0x1c697f78b5bb2b48ull},
    {"rmat12 2x1x2 DO adaptive butterfly U parents", Family::kRmat12, 2, 1, true, true, false, true, kBR, kFly, true, 2,
     7, 3, 34154, 3956, 6740, 1188, 0.63771320939371057, 0.26123982699999992, 0xc5c5e473c3187762ull},
    {"rmat12 2x2x2 DO adaptive L IR", Family::kRmat12, 2, 2, true, true, true, false, kIR, kFlat, false, 3,
     6, 3, 17210, 7000, 4480, 2376, 0.7603007425202758, 0.21121357900000001, 0x661757d97444a2eaull},
    {"rmat12 2x1x2 push L U butterfly", Family::kRmat12, 2, 1, false, true, true, true, kBR, kFly, false, 4,
     6, 3, 131072, 4232, 6956, 1188, 0.48487557635553508, 0.15962668699999999, 0xe9242957f8218ba4ull},
    {"grid 2x2x2 DO adaptive butterfly parents", Family::kGrid, 2, 2, true, true, false, false, kBR, kFly, true, 1,
     31, 27, 2398, 1344, 9664, 10800, 3.5922541720182948, 1.1700757739999998, 0xa6ca7aa339639917ull},
    {"grid 2x1x2 push U hierarchical IR", Family::kGrid, 2, 1, false, true, false, true, kIR, kHier, false, 2,
     34, 30, 1832, 2216, 3312, 6000, 4.7561179160399911, 0.85528450799999955, 0x04f487c29fbcee4dull},
    {"grid 2x2x2 DO static L parents", Family::kGrid, 2, 2, true, false, true, false, kBR, kFlat, true, 3,
     37, 33, 2573, 368, 80, 13200, 3.0941520124205666, 1.4081131539999978, 0xfe53fa481cb3e6d3ull},
};
// clang-format on

std::uint64_t digest_of(const BfsResult& r) {
  std::uint64_t h = util::splitmix64(r.distances.size());
  for (const Depth d : r.distances) {
    h = util::hash_combine(h, static_cast<std::uint64_t>(d));
  }
  for (const VertexId p : r.parents) h = util::hash_combine(h, p);
  return h;
}

/// The pinned fields as a C++ initializer tail, so a failure prints the
/// actual row ready to compare (and a deliberate re-pin is one paste).
/// %.17g round-trips a double, so equal strings mean bit-equal values.
std::string pinned_values(int iterations, int delegate_reduce_iterations,
                          std::uint64_t edges, std::uint64_t remote_bytes,
                          std::uint64_t local_bytes, std::uint64_t mask_bytes,
                          double elapsed_ms, double computation_ms,
                          std::uint64_t digest) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%d, %d, %llu, %llu, %llu, %llu, %.17g, %.17g, 0x%016llxull",
                iterations, delegate_reduce_iterations,
                static_cast<unsigned long long>(edges),
                static_cast<unsigned long long>(remote_bytes),
                static_cast<unsigned long long>(local_bytes),
                static_cast<unsigned long long>(mask_bytes), elapsed_ms,
                computation_ms, static_cast<unsigned long long>(digest));
  return buf;
}

TEST(Bfs, GoldenCountersAndModeledTime) {
  const graph::EdgeList rmat10 =
      graph::rmat_graph500({.scale = 10, .seed = 161});
  const graph::EdgeList rmat12 =
      graph::rmat_graph500({.scale = 12, .seed = 162});
  const graph::EdgeList grid = graph::grid_graph(24, 20);

  for (const GoldenRow& row : kRows) {
    SCOPED_TRACE(row.name);
    const graph::EdgeList& g = row.family == Family::kRmat10   ? rmat10
                               : row.family == Family::kRmat12 ? rmat12
                                                               : grid;
    const std::uint32_t th = row.family == Family::kRmat10   ? 16
                             : row.family == Family::kRmat12 ? 32
                                                             : 3;
    sim::ClusterSpec spec;
    spec.num_ranks = row.nodes * row.ranks_per_node;
    spec.ranks_per_node = row.ranks_per_node;
    spec.gpus_per_rank = 2;
    sim::Cluster cluster(spec);
    const graph::DistributedGraph dg = graph::build_distributed(g, spec, th);

    BfsOptions options;
    options.direction_optimized = row.direction_optimized;
    options.adaptive_direction = row.adaptive;
    options.local_all2all = row.local_all2all;
    options.uniquify = row.uniquify;
    options.reduce_mode = row.reduce_mode;
    options.exchange_topology = row.topology;
    options.compute_parents = row.parents;
    DistributedBfs bfs(dg, cluster, options);
    const BfsResult r = bfs.run(bfs.sample_source(row.source_k));
    const RunMetrics& m = r.metrics;
    EXPECT_EQ(pinned_values(m.iterations, m.delegate_reduce_iterations,
                            m.edges_traversed, m.exchange_remote_bytes,
                            m.exchange_local_bytes, m.mask_reduce_bytes,
                            m.modeled.elapsed_ms, m.modeled.computation_ms,
                            digest_of(r)),
              pinned_values(row.iterations, row.delegate_reduce_iterations,
                            row.edges, row.remote_bytes, row.local_bytes,
                            row.mask_bytes, row.elapsed_ms,
                            row.computation_ms, row.digest));
  }
}

}  // namespace
}  // namespace dsbfs::core

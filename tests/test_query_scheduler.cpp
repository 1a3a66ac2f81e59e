#include "core/query_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "baseline/serial_bfs.hpp"
#include "core/validate.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"

/// Serving-tier soak: random seeded arrival traces (uniform / bursty /
/// adversarial single-lane trickle) across the lane-width ladder and both
/// graph families.  Every retired query must be bit-exact against the
/// serial single-source reference, the replicated lane-ownership event log
/// must show no lane ever serving two queries at once (the claim-word
/// audit), admissions must be FIFO, and the same seed must reproduce the
/// identical schedule, metrics and modeled clock.
namespace dsbfs::core {
namespace {

enum class GraphFamily { kRmat, kGrid };

struct SchedCase {
  std::string name;
  GraphFamily family;
  int ranks, gpus;
  std::uint32_t threshold;
  std::size_t width;
  ArrivalPattern pattern;
  double rate;
  std::uint64_t queries;
  std::uint64_t seed;
  bool recycle = true;
};

graph::EdgeList make_graph(GraphFamily family) {
  switch (family) {
    case GraphFamily::kRmat:
      return graph::rmat_graph500({.scale = 10, .seed = 81});
    case GraphFamily::kGrid:
      return graph::grid_graph(32, 32);
  }
  return {};
}

/// Replay the replicated lane-ownership audit log: admissions are FIFO in
/// trace order, a lane is claimed only while free, released only by its
/// occupant, and every query is admitted and retired exactly once.
void audit_events(const SchedulerOutcome& out, std::size_t width) {
  std::vector<std::int64_t> owner(width, -1);
  std::vector<int> admitted(out.queries.size(), 0);
  std::vector<int> retired(out.queries.size(), 0);
  std::size_t next_fifo = 0;
  for (const LaneEvent& e : out.events) {
    ASSERT_GE(e.lane, 0);
    ASSERT_LT(static_cast<std::size_t>(e.lane), width);
    ASSERT_LT(e.query, out.queries.size());
    const auto li = static_cast<std::size_t>(e.lane);
    if (e.kind == LaneEventKind::kAdmit) {
      EXPECT_EQ(owner[li], -1)
          << "lane " << e.lane << " admitted query " << e.query
          << " while still serving query " << owner[li];
      owner[li] = static_cast<std::int64_t>(e.query);
      EXPECT_EQ(e.query, next_fifo) << "admission out of trace order";
      ++next_fifo;
      ++admitted[e.query];
      EXPECT_EQ(e.iteration, out.queries[e.query].admit_iteration);
      EXPECT_GE(e.iteration, out.queries[e.query].arrival_iteration);
    } else {
      EXPECT_EQ(owner[li], static_cast<std::int64_t>(e.query))
          << "lane " << e.lane << " retired by a non-occupant";
      owner[li] = -1;
      ++retired[e.query];
      EXPECT_EQ(e.iteration, out.queries[e.query].retire_iteration);
    }
  }
  for (std::size_t q = 0; q < out.queries.size(); ++q) {
    EXPECT_EQ(admitted[q], 1) << "query " << q;
    EXPECT_EQ(retired[q], 1) << "query " << q;
  }
  for (std::size_t l = 0; l < width; ++l) {
    EXPECT_EQ(owner[l], -1) << "lane " << l << " never released";
  }
}

class QuerySchedulerSoak : public ::testing::TestWithParam<SchedCase> {};

TEST_P(QuerySchedulerSoak, EveryServedQueryMatchesSerialDeterministically) {
  const SchedCase c = GetParam();
  const graph::EdgeList g = make_graph(c.family);
  sim::ClusterSpec spec;
  spec.num_ranks = c.ranks;
  spec.gpus_per_rank = c.gpus;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, c.threshold);
  const graph::HostCsr csr = graph::build_host_csr(g);

  const std::vector<QueryArrival> trace = make_arrival_trace(
      dg, {.queries = c.queries,
           .rate = c.rate,
           .pattern = c.pattern,
           .seed = c.seed});
  ASSERT_EQ(trace.size(), c.queries);

  SchedulerOptions options;
  options.width = c.width;
  options.recycle = c.recycle;
  QueryScheduler scheduler(dg, cluster, options);
  const SchedulerOutcome out = scheduler.run(trace);

  EXPECT_EQ(out.lane_bits, util::lane_width_for(c.width));
  ASSERT_EQ(out.queries.size(), c.queries);

  // Bit-exact distances per retired query (oracle memoized per source).
  std::map<VertexId, std::vector<Depth>> oracle;
  for (std::size_t i = 0; i < out.queries.size(); ++i) {
    const ServedQuery& q = out.queries[i];
    auto it = oracle.find(q.source);
    if (it == oracle.end()) {
      it = oracle.emplace(q.source, baseline::serial_bfs(csr, q.source)).first;
    }
    const ValidationReport ref =
        validate_against_reference(q.distances, it->second);
    ASSERT_TRUE(ref.ok) << "query " << i << " (source " << q.source
                        << "): " << ref.error;
    EXPECT_GE(q.admit_iteration, q.arrival_iteration) << "query " << i;
    EXPECT_GE(q.retire_iteration, q.admit_iteration) << "query " << i;
    EXPECT_GE(q.wait_ms, 0.0) << "query " << i;
    EXPECT_GT(q.service_ms, 0.0) << "query " << i;
  }

  audit_events(out, c.width);

  // Mid-flight recycling actually happened whenever the trace outnumbers
  // the lane budget (otherwise nothing to recycle).
  EXPECT_EQ(out.metrics.admissions, c.queries);
  if (c.recycle && c.queries > c.width) {
    EXPECT_GT(out.metrics.recycled_admissions, 0u);
    EXPECT_GT(out.metrics.reseed_bytes, 0u);
  }

  // Same seed => the identical trace, admission order, schedule, metrics
  // and modeled clock.
  const std::vector<QueryArrival> trace2 = make_arrival_trace(
      dg, {.queries = c.queries,
           .rate = c.rate,
           .pattern = c.pattern,
           .seed = c.seed});
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].source, trace2[i].source);
    EXPECT_EQ(trace[i].arrival_iteration, trace2[i].arrival_iteration);
  }
  const SchedulerOutcome rerun = scheduler.run(trace2);
  EXPECT_EQ(rerun.metrics.modeled_ms, out.metrics.modeled_ms);
  EXPECT_EQ(rerun.metrics.queries_per_sec, out.metrics.queries_per_sec);
  EXPECT_EQ(rerun.metrics.latency.p99, out.metrics.latency.p99);
  ASSERT_EQ(rerun.events.size(), out.events.size());
  for (std::size_t i = 0; i < out.events.size(); ++i) {
    EXPECT_EQ(rerun.events[i].kind, out.events[i].kind);
    EXPECT_EQ(rerun.events[i].iteration, out.events[i].iteration);
    EXPECT_EQ(rerun.events[i].lane, out.events[i].lane);
    EXPECT_EQ(rerun.events[i].query, out.events[i].query);
  }
  for (std::size_t i = 0; i < out.queries.size(); ++i) {
    EXPECT_EQ(rerun.queries[i].lane, out.queries[i].lane);
    EXPECT_EQ(rerun.queries[i].admit_iteration, out.queries[i].admit_iteration);
    EXPECT_EQ(rerun.queries[i].retire_iteration,
              out.queries[i].retire_iteration);
    EXPECT_EQ(rerun.queries[i].latency_ms, out.queries[i].latency_ms);
  }
}

std::vector<SchedCase> sched_cases() {
  using P = ArrivalPattern;
  return {
      // Lane-width ladder on RMAT across all three arrival shapes.
      {"rmat_w1_uniform", GraphFamily::kRmat, 2, 2, 16, 1, P::kUniform, 1.0,
       6, 21},
      {"rmat_w8_bursty", GraphFamily::kRmat, 2, 2, 16, 8, P::kBursty, 4.0,
       24, 22},
      {"rmat_w8_trickle", GraphFamily::kRmat, 2, 2, 16, 8, P::kTrickle, 0.5,
       10, 23},
      {"rmat_w32_uniform", GraphFamily::kRmat, 2, 2, 16, 32, P::kUniform, 8.0,
       40, 24},
      {"rmat_w64_bursty", GraphFamily::kRmat, 2, 2, 16, 64, P::kBursty, 16.0,
       64, 25},
      // Batch-drain ablation: no mid-flight recycling.
      {"rmat_w8_nodrain", GraphFamily::kRmat, 2, 2, 16, 8, P::kUniform, 4.0,
       24, 26, /*recycle=*/false},
      // Grid (high diameter: long service times, deep admission queues).
      {"grid_w8_uniform", GraphFamily::kGrid, 2, 2, 4, 8, P::kUniform, 2.0,
       12, 27},
      {"grid_w32_trickle", GraphFamily::kGrid, 2, 2, 4, 32, P::kTrickle, 1.0,
       8, 28},
      // Asymmetric topology.
      {"rmat_w8_4x1", GraphFamily::kRmat, 4, 1, 16, 8, P::kBursty, 8.0,
       24, 29},
  };
}

INSTANTIATE_TEST_SUITE_P(Sweep, QuerySchedulerSoak,
                         ::testing::ValuesIn(sched_cases()),
                         [](const auto& info) { return info.param.name; });

TEST(QueryScheduler, BatchDrainAdmitsOnlyIntoAnEmptyBatch) {
  // recycle=false: an admission boundary must come after every previously
  // admitted query retired -- the event log shows no admit while any lane
  // is occupied.
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 84});
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 16);
  const std::vector<QueryArrival> trace = make_arrival_trace(
      dg, {.queries = 12, .rate = 8.0, .pattern = ArrivalPattern::kUniform,
           .seed = 31});
  QueryScheduler scheduler(dg, cluster, {.width = 4, .recycle = false});
  const SchedulerOutcome out = scheduler.run(trace);
  std::size_t occupied = 0;
  std::uint64_t wave_start = 0;
  for (const LaneEvent& e : out.events) {
    if (e.kind == LaneEventKind::kAdmit) {
      if (occupied == 0) wave_start = e.iteration;
      EXPECT_EQ(e.iteration, wave_start)
          << "admit into a partially drained batch";
      ++occupied;
    } else {
      ASSERT_GT(occupied, 0u);
      --occupied;
    }
  }
  EXPECT_EQ(occupied, 0u);
  // Later waves still reseed the previously used lanes -- recycling off
  // changes the admission policy, not the reseed bookkeeping.
  EXPECT_EQ(out.metrics.recycled_admissions, trace.size() - 4);
  EXPECT_GT(out.metrics.reseed_bytes, 0u);
}

TEST(QueryScheduler, EmptyTraceServesNothing) {
  const graph::EdgeList g = graph::path_graph(8);
  sim::ClusterSpec spec;
  spec.num_ranks = 1;
  spec.gpus_per_rank = 1;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 4);
  QueryScheduler scheduler(dg, cluster, {.width = 4});
  const SchedulerOutcome out = scheduler.run(std::vector<QueryArrival>{});
  EXPECT_EQ(out.metrics.queries, 0u);
  EXPECT_TRUE(out.queries.empty());
  EXPECT_TRUE(out.events.empty());
  EXPECT_EQ(out.metrics.queries_per_sec, 0.0);
  EXPECT_EQ(out.metrics.latency.count, 0u);
}

TEST(QueryScheduler, RejectsBadTracesAndWidths) {
  const graph::EdgeList g = graph::path_graph(8);
  sim::ClusterSpec spec;
  spec.num_ranks = 1;
  spec.gpus_per_rank = 1;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = build_distributed(g, spec, 4);
  EXPECT_THROW(QueryScheduler(dg, cluster, {.width = 0}),
               std::invalid_argument);
  EXPECT_THROW(QueryScheduler(dg, cluster, {.width = 65}),
               std::invalid_argument);
  EXPECT_THROW(QueryScheduler(dg, cluster, {.adaptive_compress = true}),
               std::invalid_argument);
  QueryScheduler scheduler(dg, cluster, {.width = 4});
  EXPECT_THROW(
      scheduler.run(std::vector<QueryArrival>{{999, 0}}), std::out_of_range);
  EXPECT_THROW(
      scheduler.run(std::vector<QueryArrival>{{1, 5}, {2, 3}}),
      std::invalid_argument);
  EXPECT_THROW(make_arrival_trace(dg, {.rate = 0.0}), std::invalid_argument);
}

}  // namespace
}  // namespace dsbfs::core

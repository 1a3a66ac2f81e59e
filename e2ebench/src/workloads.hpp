#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/edge_list.hpp"
#include "sim/cluster.hpp"
#include "sim/perf_model.hpp"
#include "trace.hpp"

/// The benchmark's workloads.  Each one builds its graph from the seed
/// through the public graph functions, then repeats a fixed, seed-derived
/// set of operations through one public facade.  Every operation is timed
/// (host clock), replayed once more through sim::PerfModel by the benchmark
/// itself, digested for the determinism gate and -- on its first execution
/// -- checked against the serial oracle in src/baseline/.
namespace e2ebench {

/// Cluster every workload runs on: two nodes (so both inter-node and
/// intra-node traffic exist), one rank per node, two GPUs per rank.
inline constexpr const char* kClusterShape = "2x1x2";

struct WorkloadConfig {
  std::string name;
  int scale = 0;
  bool weighted = false;  // stored edge weights (assign_uniform_weights)
};

/// The four workloads, in BENCHMARK.json order.
const std::vector<WorkloadConfig>& workload_configs();

/// One setup: the seed's edge list, a fresh simulated cluster, and the
/// distributed graph built on it.
struct Built {
  dsbfs::graph::EdgeList edges;
  std::unique_ptr<dsbfs::sim::Cluster> cluster;
  dsbfs::graph::DistributedGraph graph;
};

/// Host milliseconds of each setup stage.
struct SetupTiming {
  double generate_ms = 0;
  double weights_ms = 0;
  double sweep_ms = 0;  // PartitionStatsSweeper + suggest_threshold
  double build_ms = 0;  // build_distributed
  double total_ms = 0;  // seed to ready DistributedGraph
};

/// Seed -> ready DistributedGraph, one span per public call.
Built build_graph(const WorkloadConfig& config, std::uint64_t seed,
                  Tracer& tracer, std::uint64_t op, SetupTiming& timing);

/// Per-layer counts of one operation, summed over the operation set.
struct LayerCounts {
  double iterations = 0;
  double edges_traversed = 0;  // every visit kernel, every GPU
  double buckets_processed = 0;
  double light_relaxations = 0;
  double heavy_relaxations = 0;
  // BFS-shaped wire (DistributedBfs, QueryScheduler).
  double exchange_remote_bytes = 0;
  double exchange_local_bytes = 0;
  double mask_reduce_bytes = 0;
  // Value-shaped wire (DistributedBatchSssp, DistributedPagerank).
  double update_bytes_remote = 0;
  double reduce_bytes = 0;
  // Codec inputs and outputs, from the counter trace.
  double uniquify_bytes = 0;   // bytes entering coalescing
  double encode_bytes = 0;     // raw bytes entering the encoder
  double wire_bytes = 0;       // bytes shipped (remote + NVLink)
  double bins_compressed = 0;
  double bins_raw = 0;
  double retries = 0;
  // Serving tier (QueryScheduler only).
  double admissions = 0;
  double recycled_admissions = 0;
  double reseed_bytes = 0;
  double occupancy_ratio = 0;  // mean occupied lanes / width, summed per call
  // Modeled breakdown sums.
  double computation_ms = 0;
  double local_comm_ms = 0;
  double normal_exchange_ms = 0;
  double delegate_reduce_ms = 0;
  double control_ms = 0;
  std::vector<dsbfs::sim::ModeledBreakdown::HopLoad> hops;

  void add(const LayerCounts& other);
};

/// What one call into a facade produced, reduced to what the metrics and
/// the gates need.
struct OpOutcome {
  double host_ms = 0;      // wall time of the facade's run()
  double host_cpu_ms = 0;  // process CPU time of that call, all threads
  double replay_ms = 0;  // the benchmark's own PerfModel::replay
  double modeled_ms = 0;
  double queries = 0;     // sources answered by the call
  double failed = 0;      // queries the oracle rejected (validating calls)
  double teps_edges = 0;  // TEPS edges credited (0 = discarded run)
  std::vector<double> latency_ms;  // modeled latency of each query
  std::vector<double> wait_ms;     // serving only: admission wait per query
  std::vector<double> service_ms;  // serving only: in-flight time per query
  std::uint64_t output_digest = 0;
  std::uint64_t trace_digest = 0;  // counters + modeled breakdown
  bool replay_matches = false;     // own replay == the facade's breakdown
  LayerCounts counts;
  std::vector<double> iteration_end_ms;  // modeled track of the trace
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t num_ops() const = 0;
  /// Run operation `i` through the facade.  With `validate`, also compare
  /// its outputs with the serial oracle.
  virtual OpOutcome run_op(std::size_t i, Tracer& tracer, std::uint64_t op,
                           bool validate) = 0;
  /// Host milliseconds spent building the oracle's host CSR.
  double host_csr_ms() const noexcept { return host_csr_ms_; }
  /// Host milliseconds spent in the serial oracles so far.
  double oracle_ms() const noexcept { return oracle_ms_; }

 protected:
  double host_csr_ms_ = 0;
  double oracle_ms_ = 0;
};

/// Construct the named workload over `built` (which must outlive it).
/// Builds the oracle's host CSR inside a `validate.host_csr` span.
std::unique_ptr<Workload> make_workload(const WorkloadConfig& config,
                                        const Built& built, std::uint64_t seed,
                                        Tracer& tracer);

}  // namespace e2ebench

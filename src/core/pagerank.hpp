#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "graph/builder.hpp"
#include "sim/cluster.hpp"
#include "sim/perf_model.hpp"
#include "util/types.hpp"

/// PageRank on the degree-separated substrate -- the paper's named example
/// of "more bits of state for delegates: ranking scores for PageRank"
/// (Section VI-D).
///
/// Push formulation per iteration: every vertex distributes
/// rank / out_degree along its edges.  A normal vertex's entire adjacency
/// lives on its owner (Algorithm 1 routes all edges with a normal source to
/// that owner), so its shares are computed in one place; a delegate's
/// adjacency is scattered, but its rank is replicated, so every GPU pushes
/// the delegate's share along its local portion -- contributions then meet
/// in a global SUM reduction of d doubles.  Normal-vertex inflows from nn
/// edges travel through the (id, value) update exchange.  Dangling mass is
/// redistributed uniformly; with a damping factor of 0.85 the ranks sum
/// to 1 every iteration.
namespace dsbfs::core {

struct PagerankOptions {
  double damping = 0.85;
  int max_iterations = 50;
  /// Stop when the L1 rank change drops below this.
  double tolerance = 1e-9;
  /// Two-stream overlap: delegate inflow sum-reduction concurrent with the
  /// nn-inflow exchange (engine::EngineOptions).
  bool overlap = true;
  /// Sum-coalesce outbound contributions per destination vertex before
  /// the send, on the sender: each remote nn neighbour owns a ghost slot
  /// that the visit adds its shares into, and every slot ships as one
  /// (id, sum) pair.  The receiver sums anyway, so only the floating-point
  /// addition order moves (well inside the iteration tolerance); dense
  /// rounds send far fewer pairs.  Off ships every share as its own pair.
  bool uniquify = true;
  /// Delta+varint-encode the (id, share) wire payload.  Bit-cast doubles
  /// barely shrink, so this mostly demonstrates the opt-in cost.
  bool compress = false;
  /// With `compress`: per-bin raw-vs-encoded choice.  PageRank is the case
  /// adaptivity exists for -- bit-cast doubles varint-encode *larger* than
  /// raw, so nearly every bin should ship raw and the adaptive run should
  /// track the uncompressed byte volume.
  bool adaptive_compress = false;
  /// With `compress`: XOR-delta (Gorilla) encode the bit-cast double
  /// payload instead of varint.  Successive rank shares from one source
  /// share sign/exponent and most mantissa bits, so the XOR stream
  /// compresses where varint inflates.  Under `adaptive_compress` each bin
  /// still trial-encodes and ships whichever of raw/gorilla is smaller, so
  /// the wire volume is never worse than raw.
  bool gorilla = false;

  /// Exchange routing mode (sim/topology.hpp): flat per-bin all-to-all
  /// (historic default), hierarchical node-leader aggregation, or butterfly
  /// recursive halving.  Bit-exact across all three; wire pattern, byte
  /// counters and modeled NIC/NVLink occupancy differ.
  sim::ExchangeTopology exchange_topology = sim::ExchangeTopology::kFlat;
  bool collect_counters = true;
  sim::DeviceModelConfig device_model{};
  sim::NetModelConfig net_model{};
  /// Fault schedule, wire retry policy and checkpoint cadence (defaults to
  /// a clean run; see sim::ResilienceOptions).
  sim::ResilienceOptions resilience{};
};

struct PagerankResult {
  std::vector<double> ranks;  // indexed by global vertex id; sums to ~1
  int iterations = 0;
  double final_delta = 0;  // last iteration's L1 change
  double measured_ms = 0;
  double modeled_ms = 0;
  sim::ModeledBreakdown modeled;
  std::uint64_t update_bytes_remote = 0;
  std::uint64_t reduce_bytes = 0;
  /// Fault log, checkpoint and rollback accounting of the run.
  sim::FaultReport fault;
  sim::RunCounters counters;  // per-iteration trace (collect_counters on)
};

class DistributedPagerank {
 public:
  /// Throws std::invalid_argument on adaptive_compress or gorilla without
  /// compress.
  DistributedPagerank(const graph::DistributedGraph& graph,
                      sim::Cluster& cluster, PagerankOptions options = {});

  /// Collective PageRank power iteration.
  PagerankResult run();

 private:
  const graph::DistributedGraph& graph_;
  sim::Cluster& cluster_;
  PagerankOptions options_;
};

}  // namespace dsbfs::core

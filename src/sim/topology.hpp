#pragma once

#include <cstdint>
#include <vector>

/// Exchange-topology layer (multi-node scale-out of the update exchange).
///
/// The paper's exchange is a flat per-bin all-to-all sized for one NVLink'd
/// node.  ButterFly BFS (Green) and the Buluc--Madduri 2D decomposition show
/// communication patterns whose per-hop partner count and message volume
/// scale to hundreds of GPUs; this header holds the types shared between the
/// comm layer (which routes) and the perf model (which replays):
///   * ExchangeTopology -- the routing mode every facade exposes;
///   * HopCounters -- the exact per-hop wire accounting of one GPU, the
///     currency of the golden wire-counter regression tests and the
///     per-hop NIC/NVLink replay.
namespace dsbfs::sim {

/// Routing mode of the normal-vertex / update exchange.
enum class ExchangeTopology {
  /// The historic flat per-bin all-to-all: every GPU exchanges with every
  /// other GPU directly (p-1 partners per round).  Wire format and byte
  /// counters are bit-identical to every release before the topology layer.
  kFlat,
  /// Three-hop node-aware routing: intra-node NVLink gather onto the node
  /// leader (same-node destinations are delivered directly), ONE inter-node
  /// IB message per ordered node pair, intra-node scatter.  N-1 inter-node
  /// partners per node per round, aggregated payloads.
  kHierarchical,
  /// Butterfly (recursive-halving) routing over the node leaders:
  /// log2(nodes) inter-node hops, the hop-h partner is node XOR (1 << h),
  /// exactly ONE inter-node partner per node per hop.  Payloads are
  /// re-binned (and re-coalesced / re-compressed) at every hop.  Requires a
  /// power-of-two node count, at most 64 nodes (6 hops of tag space).
  kButterfly,
};

/// Throws std::invalid_argument when `topology` cannot route a cluster of
/// `nodes` nodes: the butterfly needs a power-of-two count of at most 64.
void check_routable(ExchangeTopology topology, int nodes);

inline const char* to_string(ExchangeTopology t) noexcept {
  switch (t) {
    case ExchangeTopology::kFlat: return "flat";
    case ExchangeTopology::kHierarchical: return "hierarchical";
    case ExchangeTopology::kButterfly: return "butterfly";
  }
  return "?";
}

/// What one GPU moved on one hop of a multi-hop exchange round.  Hop 0 is
/// the intra-node distribution (direct same-node deliveries plus the
/// remote-bound gather onto the leader), hops 1..H the inter-node leg
/// (H = 1 hierarchical, H = log2(nodes) butterfly), hop H+1 the intra-node
/// scatter.  Empty vector = flat exchange (whose counters keep the historic
/// single-level fields).  Every field is deterministic for a fixed seed and
/// is pinned by the golden wire-counter tests: change the wire, fail loudly.
struct HopCounters {
  /// Hop index within the round (see numbering above).
  int hop = 0;
  /// Inter-node leg (IB) vs intra-node leg (NVLink).
  bool internode = false;
  /// Payload bytes this GPU sent / received on the hop, including the
  /// 8-byte segment-count word and 16 bytes of header per segment (the real
  /// cost of aggregation), excluding the lossy-transport frame overhead
  /// accounted separately like the flat exchange does.
  std::uint64_t send_bytes = 0;
  std::uint64_t recv_bytes = 0;
  /// Messages this GPU sent on the hop (one per partner, empty or not).
  int partners = 0;
  /// Non-empty destination segments packed into those messages.
  int bins = 0;
  /// Logical records (ids or updates) shipped on the hop.
  std::uint64_t records = 0;
  /// Records removed by the per-hop re-coalesce (kMin/kOr combines and the
  /// id exchange's uniquify merge across gathered sources).
  std::uint64_t merged = 0;

  bool operator==(const HopCounters&) const = default;
};

/// Order-sensitive digest of a hop trace (golden-test currency): any
/// reordered, dropped or perturbed field changes the digest.
std::uint64_t hop_digest(const std::vector<HopCounters>& hops) noexcept;

}  // namespace dsbfs::sim

#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_list.hpp"

/// Degree-threshold analytics behind Figures 5, 7 and 12.
///
/// For a given TH the edge population splits into dd / dn / nd / nn by the
/// delegate-ness of each endpoint, and a delegate fraction follows.  Degrees
/// are bounded by the maximum degree D, so the sweeper builds three
/// cumulative histograms indexed by degree -- vertices by degree, edges by
/// min and by max endpoint degree -- in one O(n + m + D) pass (the edge
/// histograms from per-block partials on every worker).  Each query is then
/// a clamped index, O(1), and the sweeper holds O(D) memory instead of
/// sorted copies of size n and m.
namespace dsbfs::graph {

struct PartitionStats {
  std::uint32_t threshold = 0;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t delegates = 0;
  std::uint64_t dd_edges = 0;
  std::uint64_t dn_nd_edges = 0;  // dn + nd (equal by symmetry)
  std::uint64_t nn_edges = 0;

  double delegate_pct() const noexcept {
    return num_vertices ? 100.0 * static_cast<double>(delegates) /
                              static_cast<double>(num_vertices)
                        : 0.0;
  }
  double dd_pct() const noexcept { return edge_pct(dd_edges); }
  double dn_nd_pct() const noexcept { return edge_pct(dn_nd_edges); }
  double nn_pct() const noexcept { return edge_pct(nn_edges); }

 private:
  double edge_pct(std::uint64_t e) const noexcept {
    return num_edges ? 100.0 * static_cast<double>(e) /
                           static_cast<double>(num_edges)
                     : 0.0;
  }
};

class PartitionStatsSweeper {
 public:
  explicit PartitionStatsSweeper(const EdgeList& g);

  /// Stats at a specific threshold (O(1)).
  PartitionStats at(std::uint32_t threshold) const;

  std::uint64_t num_vertices() const noexcept { return num_vertices_; }
  std::uint64_t num_edges() const noexcept { return num_edges_; }

 private:
  std::uint64_t num_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
  // Cumulative counts at degree t in [0, D]; size D + 1.
  std::vector<std::uint64_t> vertices_at_most_;  // vertices with degree <= t
  std::vector<std::uint64_t> min_at_most_;  // edges with min endpoint deg <= t
  std::vector<std::uint64_t> max_at_most_;  // edges with max endpoint deg <= t
};

struct ThresholdPolicy {
  /// Keep d under factor * n / p (paper uses 4).
  double max_delegate_factor = 4.0;
  /// Also keep d under this absolute fraction of n, so small clusters do
  /// not replicate half the graph (the paper's Fig. 7 choices stay under a
  /// few percent of n at every scale).
  double max_delegate_fraction = 0.04;
};

/// Smallest threshold from a sqrt(2)-spaced ladder satisfying the policy
/// for `total_gpus` GPUs; mirrors the paper's Fig. 7 recommendation where
/// the suggested TH grows ~sqrt(2) per scale along the weak-scaling curve.
std::uint32_t suggest_threshold(const PartitionStatsSweeper& sweeper,
                                int total_gpus,
                                const ThresholdPolicy& policy = {});

}  // namespace dsbfs::graph

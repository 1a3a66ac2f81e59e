#include "graph/partition_stats.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace dsbfs::graph {

namespace {

/// Turn per-degree counts into cumulative "at most t" counts, in place.
void accumulate(std::vector<std::uint64_t>& counts) {
  std::uint64_t run = 0;
  for (std::uint64_t& c : counts) {
    run += c;
    c = run;
  }
}

}  // namespace

PartitionStatsSweeper::PartitionStatsSweeper(const EdgeList& g) {
  num_vertices_ = g.num_vertices;
  const std::size_t m = g.size();
  num_edges_ = m;
  const std::vector<std::uint32_t> degrees = out_degrees(g);
  const std::uint32_t max_degree =
      degrees.empty() ? 0 : *std::max_element(degrees.begin(), degrees.end());
  const std::size_t bins = std::size_t{max_degree} + 1;

  vertices_at_most_.assign(bins, 0);
  for (const std::uint32_t d : degrees) ++vertices_at_most_[d];
  accumulate(vertices_at_most_);

  // Edge histograms from per-block partials.  The block count keeps the
  // partials (2 x bins counters each) within a quarter of the edge count,
  // so merging them stays O(m) however skewed the degrees are.
  const std::size_t blocks = std::clamp<std::size_t>(
      m / (4 * bins), 1, util::parallel_worker_count());
  const std::size_t per_block = (m + blocks - 1) / blocks;
  std::vector<std::vector<std::uint64_t>> min_part(blocks);
  std::vector<std::vector<std::uint64_t>> max_part(blocks);
  util::parallel_for_blocks(blocks, [&](std::size_t b) {
    std::vector<std::uint64_t>& lo_hist = min_part[b];
    std::vector<std::uint64_t>& hi_hist = max_part[b];
    lo_hist.assign(bins, 0);
    hi_hist.assign(bins, 0);
    const std::size_t end = std::min(m, (b + 1) * per_block);
    for (std::size_t i = b * per_block; i < end; ++i) {
      const std::uint32_t du = degrees[g.src[i]];
      const std::uint32_t dv = degrees[g.dst[i]];
      ++lo_hist[std::min(du, dv)];
      ++hi_hist[std::max(du, dv)];
    }
  });
  min_at_most_ = std::move(min_part[0]);
  max_at_most_ = std::move(max_part[0]);
  for (std::size_t b = 1; b < blocks; ++b) {
    for (std::size_t t = 0; t < bins; ++t) {
      min_at_most_[t] += min_part[b][t];
      max_at_most_[t] += max_part[b][t];
    }
  }
  accumulate(min_at_most_);
  accumulate(max_at_most_);
}

PartitionStats PartitionStatsSweeper::at(std::uint32_t threshold) const {
  PartitionStats s;
  s.threshold = threshold;
  s.num_vertices = num_vertices_;
  s.num_edges = num_edges_;

  // Every degree is at most D, so thresholds at or above D read bin D.
  const std::size_t t =
      std::min<std::size_t>(threshold, vertices_at_most_.size() - 1);
  // delegates: degree > TH
  s.delegates = num_vertices_ - vertices_at_most_[t];
  // dd: both endpoints delegate  <=>  min degree > TH
  s.dd_edges = num_edges_ - min_at_most_[t];
  // nn: both normal  <=>  max degree <= TH
  s.nn_edges = max_at_most_[t];
  s.dn_nd_edges = s.num_edges - s.dd_edges - s.nn_edges;
  return s;
}

std::uint32_t suggest_threshold(const PartitionStatsSweeper& sweeper,
                                int total_gpus, const ThresholdPolicy& policy) {
  const double n = static_cast<double>(sweeper.num_vertices());
  const double delegate_cap =
      std::min(policy.max_delegate_factor * n / static_cast<double>(total_gpus),
               policy.max_delegate_fraction * n);

  // Raising TH only demotes delegates (and grows nn), so the smallest
  // ladder TH meeting the delegate cap also minimizes the nn fraction among
  // all compliant choices -- exactly the paper's tuning direction (Fig. 7:
  // the suggested TH grows ~sqrt(2) per scale along the weak-scaling curve,
  // because the cap tightens as p grows with the scale).
  std::uint32_t prev = 0;
  for (double x = 4.0; x <= 1 << 24; x *= 1.41421356237) {
    const std::uint32_t th = static_cast<std::uint32_t>(x);
    if (th == prev) continue;
    prev = th;
    const PartitionStats s = sweeper.at(th);
    if (static_cast<double>(s.delegates) <= delegate_cap) {
      return th;
    }
  }
  return 64;
}

}  // namespace dsbfs::graph

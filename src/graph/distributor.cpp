#include "graph/distributor.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "util/parallel.hpp"

namespace dsbfs::graph {

namespace {

/// Apply fn(array, size) to every row / col (and, when weighted, weight)
/// array of `sets`, with the edge count of the array's kind from `totals`.
template <typename Fn>
void for_each_array(GpuEdgeSets& sets,
                    const std::array<std::uint64_t, 4>& totals, bool weighted,
                    Fn&& fn) {
  fn(sets.nn_rows, totals[0]);
  fn(sets.nn_cols, totals[0]);
  fn(sets.nd_rows, totals[1]);
  fn(sets.nd_cols, totals[1]);
  fn(sets.dn_rows, totals[2]);
  fn(sets.dn_cols, totals[2]);
  fn(sets.dd_rows, totals[3]);
  fn(sets.dd_cols, totals[3]);
  if (weighted) {
    fn(sets.nn_weights, totals[0]);
    fn(sets.nd_weights, totals[1]);
    fn(sets.dn_weights, totals[2]);
    fn(sets.dd_weights, totals[3]);
  }
}

}  // namespace

EdgeRoute route_edge(VertexId u, VertexId v,
                     const std::vector<std::uint32_t>& degrees,
                     std::uint32_t threshold, const sim::ClusterSpec& spec) {
  const bool u_delegate = degrees[u] > threshold;
  const bool v_delegate = degrees[v] > threshold;
  EdgeRoute route;
  if (!u_delegate) {
    route.gpu = spec.owner_global_gpu(u);
    route.kind = v_delegate ? EdgeKind::kND : EdgeKind::kNN;
  } else if (!v_delegate) {
    route.gpu = spec.owner_global_gpu(v);
    route.kind = EdgeKind::kDN;
  } else {
    route.kind = EdgeKind::kDD;
    if (degrees[u] < degrees[v]) {
      route.gpu = spec.owner_global_gpu(u);
    } else if (degrees[u] > degrees[v]) {
      route.gpu = spec.owner_global_gpu(v);
    } else {
      route.gpu = spec.owner_global_gpu(std::min(u, v));
    }
  }
  return route;
}

DistributedEdges distribute_edges(const EdgeList& g,
                                  const std::vector<std::uint32_t>& degrees,
                                  const DelegateInfo& delegates,
                                  const sim::ClusterSpec& spec) {
  const std::size_t m = g.size();
  const int p = spec.total_gpus();
  const std::uint32_t th = delegates.threshold();

  // Pass 1: per-chunk (gpu, kind) counts so pass 2 can write without locks
  // and the output order stays deterministic (edge-index order).  Chunks
  // have a fixed size, independent of the worker count, and run as heavy
  // blocks on every worker.
  constexpr std::size_t kChunkEdges = std::size_t{1} << 16;
  const std::size_t chunks = (m + kChunkEdges - 1) / kChunkEdges;
  const auto chunk_range = [m](std::size_t c) {
    return std::pair{c * kChunkEdges, std::min(m, (c + 1) * kChunkEdges)};
  };

  // counts[c][gpu][kind]
  std::vector<std::array<std::uint64_t, 4>> zero(static_cast<std::size_t>(p));
  std::vector<std::vector<std::array<std::uint64_t, 4>>> counts(chunks, zero);

  util::parallel_for_blocks(chunks, [&](std::size_t c) {
    const auto [lo, hi] = chunk_range(c);
    auto& local = counts[c];
    for (std::size_t i = lo; i < hi; ++i) {
      const EdgeRoute r = route_edge(g.src[i], g.dst[i], degrees, th, spec);
      ++local[static_cast<std::size_t>(r.gpu)]
             [static_cast<std::size_t>(r.kind)];
    }
  });

  // Exclusive prefix over chunks for each (gpu, kind); totals per (gpu, kind).
  DistributedEdges out;
  out.gpus.resize(static_cast<std::size_t>(p));
  std::vector<std::array<std::uint64_t, 4>> totals(static_cast<std::size_t>(p));
  for (int gpu = 0; gpu < p; ++gpu) {
    for (int k = 0; k < 4; ++k) {
      std::uint64_t run = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::uint64_t v = counts[c][static_cast<std::size_t>(gpu)]
                                         [static_cast<std::size_t>(k)];
        counts[c][static_cast<std::size_t>(gpu)][static_cast<std::size_t>(k)] = run;
        run += v;
      }
      totals[static_cast<std::size_t>(gpu)][static_cast<std::size_t>(k)] = run;
    }
  }
  const bool weighted = g.weighted();
  for (const auto& t : totals) {
    out.enn += t[0];
    out.end += t[1];
    out.edn += t[2];
    out.edd += t[3];
  }
  // Buffers are reserved on the calling thread, so they come from its
  // allocator arena: worker-thread arenas would keep them resident after
  // the graph is freed.  The zero-fill that first-touches all m edges then
  // runs as one block per GPU.
  for (std::size_t gpu = 0; gpu < out.gpus.size(); ++gpu) {
    out.gpus[gpu].weighted = weighted;
    for_each_array(out.gpus[gpu], totals[gpu], weighted,
                   [](auto& array, std::uint64_t n) { array.reserve(n); });
  }
  util::parallel_for_blocks(out.gpus.size(), [&](std::size_t gpu) {
    for_each_array(out.gpus[gpu], totals[gpu], weighted,
                   [](auto& array, std::uint64_t n) { array.resize(n); });
  });

  // Pass 2: translate to local encodings and write at the reserved offsets.
  util::parallel_for_blocks(chunks, [&](std::size_t c) {
    const auto [lo, hi] = chunk_range(c);
    auto cursor = counts[c];  // copy: running write positions
    for (std::size_t i = lo; i < hi; ++i) {
      const VertexId u = g.src[i];
      const VertexId v = g.dst[i];
      const EdgeRoute r = route_edge(u, v, degrees, th, spec);
      auto& sets = out.gpus[static_cast<std::size_t>(r.gpu)];
      std::uint64_t& pos = cursor[static_cast<std::size_t>(r.gpu)]
                                 [static_cast<std::size_t>(r.kind)];
      switch (r.kind) {
        case EdgeKind::kNN:
          sets.nn_rows[pos] = spec.local_index(u);
          sets.nn_cols[pos] = v;
          if (weighted) sets.nn_weights[pos] = g.weights[i];
          break;
        case EdgeKind::kND:
          sets.nd_rows[pos] = spec.local_index(u);
          sets.nd_cols[pos] = delegates.delegate_id(v);
          if (weighted) sets.nd_weights[pos] = g.weights[i];
          break;
        case EdgeKind::kDN:
          sets.dn_rows[pos] = delegates.delegate_id(u);
          sets.dn_cols[pos] = static_cast<LocalId>(spec.local_index(v));
          if (weighted) sets.dn_weights[pos] = g.weights[i];
          break;
        case EdgeKind::kDD:
          sets.dd_rows[pos] = delegates.delegate_id(u);
          sets.dd_cols[pos] = delegates.delegate_id(v);
          if (weighted) sets.dd_weights[pos] = g.weights[i];
          break;
      }
      ++pos;
    }
  });

  return out;
}

}  // namespace dsbfs::graph

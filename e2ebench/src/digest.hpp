#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>

#include "graph/builder.hpp"
#include "sim/perf_model.hpp"

/// Order-sensitive 64-bit digests of what a run produced: outputs, the
/// measured counter trace and the modeled breakdown.  The determinism gate
/// compares them across repetitions of one operation; equal digests stand
/// for bit-identical values (doubles are hashed by their bit patterns).
namespace e2ebench {

class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    h_ = std::rotl((h_ ^ v) * 0x9e3779b97f4a7c15ULL, 29) * 0xbf58476d1ce4e5b9ULL;
  }
  void add(double v) noexcept { add(std::bit_cast<std::uint64_t>(v)); }
  template <class T>
    requires std::is_integral_v<T>
  void add(T v) noexcept {
    add(static_cast<std::uint64_t>(v));
  }
  template <class T>
  void add_all(std::span<const T> values) noexcept {
    add(values.size());
    for (const T& v : values) add(v);
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0x6a09e667f3bcc908ULL;
};

/// Every field of every GPU's per-iteration counters, in order.
void add_counters(Digest& d, const dsbfs::sim::RunCounters& counters);

/// Makespan, category sums, iteration finish times and per-hop loads.
void add_breakdown(Digest& d, const dsbfs::sim::ModeledBreakdown& modeled);

/// The distributed graph as the engine sees it: threshold, delegate set,
/// edge-class counts and every CSR (and weight) array on every GPU.
std::uint64_t graph_digest(const dsbfs::graph::DistributedGraph& graph);

}  // namespace e2ebench

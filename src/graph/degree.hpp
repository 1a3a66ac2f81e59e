#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

/// Degree separation (paper Section III-A).
///
/// Vertices with out-degree greater than the threshold TH become *delegates*
/// -- replicated on every GPU, identified by a dense delegate id assigned in
/// ascending vertex order (the paper's Fig. 2 example maps vertex 7 to
/// delegate 0 and vertex 8 to delegate 1).  Everything else is a *normal*
/// vertex owned by exactly one GPU.
namespace dsbfs::graph {

class DelegateInfo {
 public:
  DelegateInfo() = default;

  /// Select delegates: every vertex with degrees[v] > threshold.
  static DelegateInfo select(const std::vector<std::uint32_t>& degrees,
                             std::uint32_t threshold);

  std::uint32_t threshold() const noexcept { return threshold_; }
  LocalId count() const noexcept {
    return static_cast<LocalId>(vertices_.size());
  }

  /// Vertex id of a delegate.
  VertexId vertex_of(LocalId delegate) const { return vertices_.at(delegate); }

  /// Delegate id of a vertex, or kInvalidLocal when it is normal (one
  /// table lookup: edge distribution calls this per delegate endpoint).
  LocalId delegate_id(VertexId v) const noexcept {
    return v < id_of_.size() ? id_of_[v] : kInvalidLocal;
  }

  bool is_delegate(VertexId v) const noexcept {
    return delegate_id(v) != kInvalidLocal;
  }

  const std::vector<VertexId>& vertices() const noexcept { return vertices_; }

 private:
  std::uint32_t threshold_ = 0;
  std::vector<VertexId> vertices_;  // ascending; index = delegate id
  std::vector<LocalId> id_of_;      // per vertex: delegate id or kInvalidLocal
};

}  // namespace dsbfs::graph

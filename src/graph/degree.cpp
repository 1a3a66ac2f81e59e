#include "graph/degree.hpp"

namespace dsbfs::graph {

DelegateInfo DelegateInfo::select(const std::vector<std::uint32_t>& degrees,
                                  std::uint32_t threshold) {
  DelegateInfo info;
  info.threshold_ = threshold;
  info.id_of_.assign(degrees.size(), kInvalidLocal);
  for (VertexId v = 0; v < degrees.size(); ++v) {
    if (degrees[v] > threshold) {
      info.id_of_[v] = static_cast<LocalId>(info.vertices_.size());
      info.vertices_.push_back(v);
    }
  }
  return info;
}

}  // namespace dsbfs::graph

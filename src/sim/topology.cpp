#include "sim/topology.hpp"

#include <stdexcept>
#include <string>

namespace dsbfs::sim {

namespace {
// splitmix64, the same mixer the hardened wire frames use for checksums.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

void check_routable(ExchangeTopology topology, int nodes) {
  if (topology == ExchangeTopology::kButterfly &&
      ((nodes & (nodes - 1)) != 0 || nodes > 64)) {
    throw std::invalid_argument(
        "butterfly exchange needs a power-of-two node count <= 64, got " +
        std::to_string(nodes) + " nodes");
  }
}

std::uint64_t hop_digest(const std::vector<HopCounters>& hops) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const HopCounters& c : hops) {
    h = mix(h ^ static_cast<std::uint64_t>(c.hop));
    h = mix(h ^ static_cast<std::uint64_t>(c.internode ? 1 : 0));
    h = mix(h ^ c.send_bytes);
    h = mix(h ^ c.recv_bytes);
    h = mix(h ^ static_cast<std::uint64_t>(c.partners));
    h = mix(h ^ static_cast<std::uint64_t>(c.bins));
    h = mix(h ^ c.records);
    h = mix(h ^ c.merged);
  }
  return h;
}

}  // namespace dsbfs::sim

#include "digest.hpp"

#include "sim/topology.hpp"

namespace e2ebench {

namespace {

void add_kernel(Digest& d, const dsbfs::sim::KernelCounters& k) {
  d.add(k.edges);
  d.add(k.vertices);
  d.add(k.backward);
  d.add(k.launched);
}

template <class Csr>
void add_csr(Digest& d, const Csr& csr) {
  d.add_all(std::span(csr.offsets()));
  d.add_all(std::span(csr.cols()));
}

}  // namespace

void add_counters(Digest& d, const dsbfs::sim::RunCounters& counters) {
  d.add(counters.spec.total_gpus());
  d.add(counters.delegate_mask_bytes);
  d.add(counters.blocking_reduce);
  d.add(counters.overlap_comm);
  d.add(counters.iterations.size());
  for (const dsbfs::sim::IterationCounters& it : counters.iterations) {
    for (const dsbfs::sim::GpuIterationCounters& c : it.gpu) {
      d.add(c.dprev_vertices);
      d.add(c.nprev_vertices);
      d.add(c.direction_decisions);
      d.add(c.direction_decisions_fused);
      add_kernel(d, c.dd);
      add_kernel(d, c.dn);
      add_kernel(d, c.nd);
      add_kernel(d, c.nn);
      d.add(c.bin_vertices);
      d.add(c.uniquify_vertices);
      d.add(c.uniquify_bytes);
      d.add(c.encode_bytes);
      d.add(c.bins_compressed);
      d.add(c.bins_uncompressed);
      d.add(c.local_all2all_bytes);
      d.add(c.send_bytes_remote);
      d.add(c.recv_bytes_remote);
      d.add(c.send_dest_ranks);
      d.add(dsbfs::sim::hop_digest(c.hops));
      d.add(c.delegate_update);
      d.add(c.retries);
      d.add(c.corrupt_bins);
      d.add(c.recovery_ns);
      d.add(c.checksum_bytes);
      d.add(c.stall_ns);
      d.add(c.checkpoint_bytes);
      d.add(c.lane_agreement);
      d.add(c.reseed_bytes);
      d.add(c.frontier_lane_bits);
      d.add(c.delegate_lane_bits);
      d.add(c.frontier_live_lanes);
      d.add(c.delegate_live_lanes);
      d.add(c.bucket_coordination);
      d.add(c.bucket_plus_one);
      d.add(c.heavy_phase);
      d.add(c.light_edges);
      d.add(c.heavy_edges);
    }
  }
}

void add_breakdown(Digest& d, const dsbfs::sim::ModeledBreakdown& modeled) {
  d.add(modeled.elapsed_ms);
  d.add(modeled.computation_ms);
  d.add(modeled.local_comm_ms);
  d.add(modeled.normal_exchange_ms);
  d.add(modeled.delegate_reduce_ms);
  d.add(modeled.control_ms);
  d.add_all(std::span(modeled.iteration_end_ms));
  d.add(modeled.exchange_hops.size());
  for (const auto& hop : modeled.exchange_hops) {
    d.add(hop.nvlink_ms);
    d.add(hop.nic_ms);
  }
}

std::uint64_t graph_digest(const dsbfs::graph::DistributedGraph& graph) {
  Digest d;
  d.add(graph.num_vertices());
  d.add(graph.num_edges());
  d.add(graph.threshold());
  d.add(graph.num_delegates());
  d.add(graph.enn());
  d.add(graph.end());
  d.add(graph.edn());
  d.add(graph.edd());
  d.add(graph.total_subgraph_bytes());
  d.add_all(std::span(graph.degrees()));
  for (std::size_t g = 0; g < graph.num_locals(); ++g) {
    const dsbfs::graph::LocalGraph& local = graph.local(static_cast<int>(g));
    add_csr(d, local.nn());
    add_csr(d, local.nd());
    add_csr(d, local.dn());
    add_csr(d, local.dd());
    d.add_all(std::span(local.nn_weights()));
    d.add_all(std::span(local.nd_weights()));
    d.add_all(std::span(local.dn_weights()));
    d.add_all(std::span(local.dd_weights()));
  }
  return d.value();
}

}  // namespace e2ebench

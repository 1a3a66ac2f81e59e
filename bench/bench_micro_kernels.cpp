// Microbenchmarks of the local-computation building blocks: the lane
// previsit and visit kernels (forward vs backward, W = 1 vs W = 64), bitset
// operations, and CSR traversal.  These back
// the DeviceModel calibration constants (ablation: merge vs dynamic load
// balancing classes differ on real GPUs; here they quantify the host
// substrate's functional cost).
#include <benchmark/benchmark.h>

#include "core/frontier.hpp"
#include "core/previsit.hpp"
#include "core/visit.hpp"
#include "graph/builder.hpp"
#include "graph/rmat.hpp"
#include "util/bitset.hpp"

namespace {

using namespace dsbfs;

struct KernelFixture {
  KernelFixture() {
    spec.num_ranks = 1;
    spec.gpus_per_rank = 1;
    graph_data = graph::rmat_graph500({.scale = 16, .seed = 5});
    dg = graph::build_distributed(graph_data, spec, 32);
  }
  sim::ClusterSpec spec;
  graph::EdgeList graph_data;
  graph::DistributedGraph dg;
};

KernelFixture& fixture() {
  static KernelFixture f;
  return f;
}

void BM_BitsetSet(benchmark::State& state) {
  util::AtomicBitset bits(1 << 20);
  std::size_t i = 0;
  for (auto _ : state) {
    bits.set(i);
    i = (i + 4099) & ((1 << 20) - 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BitsetSet);

void BM_BitsetOrWith(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  util::AtomicBitset a(bits), b(bits);
  for (std::size_t i = 0; i < bits; i += 7) b.set(i);
  for (auto _ : state) {
    a.or_with(b);
    benchmark::DoNotOptimize(a);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(BM_BitsetOrWith)->Range(1 << 10, 1 << 22);

void BM_BitsetCount(benchmark::State& state) {
  util::AtomicBitset a(1 << 20);
  for (std::size_t i = 0; i < (1 << 20); i += 3) a.set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.count());
  }
}
BENCHMARK(BM_BitsetCount);

// ---- lane kernels at W = 1 (the single-source BFS) and W = 64 -----------
// Each kernel instantiation a run dispatches to: W = 1 is the compile-time
// one-bit path, W = 64 the runtime-width path.  Inputs mark every lane of
// the chosen items, so W = 64 does 64 lanes of work per item.

/// The kernel instantiation a run of width `W` dispatches to.
template <int W>
constexpr int kKernelWidth = W == 1 ? 1 : util::kAnyWidth;

template <int W>
constexpr std::uint64_t kAllLanes = W == 64 ? ~0ULL : (1ULL << W) - 1;

template <int W>
core::LaneState make_state() {
  core::LaneState s(fixture().dg.local(0), 1, W);
  s.batch_mask = kAllLanes<W>;
  return s;
}

template <int W>
void BM_DelegatePrevisit(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    state.PauseTiming();
    core::LaneState s = make_state<W>();
    for (LocalId t = 0; t < f.dg.num_delegates(); t += 4) {
      s.delegate_new.or_lanes(t, kAllLanes<W>);
    }
    state.ResumeTiming();
    core::delegate_previsit_lanes<kKernelWidth<W>>(s);
    benchmark::DoNotOptimize(s.delegate_queue);
  }
}
BENCHMARK_TEMPLATE(BM_DelegatePrevisit, 1);
BENCHMARK_TEMPLATE(BM_DelegatePrevisit, 64);

template <int W>
void BM_NormalPrevisit(benchmark::State& state) {
  // Fold one round of arrivals -- a sixteenth of the local normals, each
  // arriving twice (the duplicate must be dropped) -- plus the dn visit's
  // discoveries into the frontier.
  auto& f = fixture();
  const std::uint64_t n_local = f.dg.local(0).num_local_normals();
  for (auto _ : state) {
    state.PauseTiming();
    core::LaneState s = make_state<W>();
    for (std::uint64_t v = 0; v < n_local; v += 16) {
      const auto id = static_cast<LocalId>(v);
      for (int copy = 0; copy < 2; ++copy) {
        if constexpr (W == 1) {
          s.id_received.push_back(id);
        } else {
          s.received.push_back({id, kAllLanes<W>});
        }
      }
    }
    for (std::uint64_t v = 8; v < n_local; v += 64) {
      s.next_normal.or_lanes(v, kAllLanes<W>);
      s.next_local.push_back(static_cast<LocalId>(v));
    }
    state.ResumeTiming();
    core::normal_previsit_lanes<kKernelWidth<W>>(s);
    benchmark::DoNotOptimize(s.frontier);
  }
  state.SetLabel("arrival dedup + frontier formation");
}
BENCHMARK_TEMPLATE(BM_NormalPrevisit, 1);
BENCHMARK_TEMPLATE(BM_NormalPrevisit, 64);

template <int W>
void BM_VisitDdForward(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    state.PauseTiming();
    core::LaneState s = make_state<W>();
    for (LocalId t = 0; t < f.dg.num_delegates(); t += 8) {
      s.delegate_new.or_lanes(t, kAllLanes<W>);
      s.delegate_queue.push_back(t);
    }
    state.ResumeTiming();
    core::visit_dd_lanes<kKernelWidth<W>>(s);
    benchmark::DoNotOptimize(s.delegate_out);
  }
  state.SetLabel("merge-class kernel (dd)");
}
BENCHMARK_TEMPLATE(BM_VisitDdForward, 1);
BENCHMARK_TEMPLATE(BM_VisitDdForward, 64);

template <int W>
void BM_VisitDdBackward(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    state.PauseTiming();
    core::LaneState s = make_state<W>();
    // Mark a quarter of delegates visited; pull the rest.
    for (LocalId t = 0; t < f.dg.num_delegates(); t += 4) {
      s.delegate_visited.or_lanes(t, kAllLanes<W>);
    }
    s.delegate_queue.push_back(0);  // a non-empty queue launches the pull
    s.dir_dd.update(1e18, 1.0, true);  // force backward
    state.ResumeTiming();
    core::visit_dd_lanes<kKernelWidth<W>>(s);
    benchmark::DoNotOptimize(s.delegate_out);
  }
  state.SetLabel("backward pull with early exit");
}
BENCHMARK_TEMPLATE(BM_VisitDdBackward, 1);
BENCHMARK_TEMPLATE(BM_VisitDdBackward, 64);

template <int W>
void BM_VisitNnForward(benchmark::State& state) {
  auto& f = fixture();
  const std::uint64_t n_local = f.dg.local(0).num_local_normals();
  for (auto _ : state) {
    state.PauseTiming();
    core::LaneState s = make_state<W>();
    for (std::uint64_t v = 0; v < n_local; v += 16) {
      s.frontier_normal.or_lanes(v, kAllLanes<W>);
      s.frontier.push_back(static_cast<LocalId>(v));
    }
    state.ResumeTiming();
    core::visit_nn_lanes<kKernelWidth<W>>(s, f.spec);
    benchmark::DoNotOptimize(s.bins);
    benchmark::DoNotOptimize(s.id_bins);
  }
  state.SetLabel("dynamic-class kernel (nn) + binning");
}
BENCHMARK_TEMPLATE(BM_VisitNnForward, 1);
BENCHMARK_TEMPLATE(BM_VisitNnForward, 64);

void BM_CsrRowScan(benchmark::State& state) {
  auto& f = fixture();
  const auto& dd = f.dg.local(0).dd();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (std::size_t r = 0; r < dd.num_rows(); ++r) {
      for (const LocalId c : dd.row(r)) sum += c;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dd.num_edges()));
}
BENCHMARK(BM_CsrRowScan);

}  // namespace

// Microbenchmarks of the communication substrate: transport point-to-point,
// tree collectives, the two-phase mask reducer, the normal exchange, the
// per-bin update coalescing and the encoded update codecs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/exchange.hpp"
#include "comm/mask_reduce.hpp"
#include "comm/transport.hpp"

namespace {

using namespace dsbfs;

sim::ClusterSpec spec_of(int ranks, int gpus) {
  sim::ClusterSpec s;
  s.num_ranks = ranks;
  s.gpus_per_rank = gpus;
  return s;
}

void BM_TransportPingPong(benchmark::State& state) {
  comm::Transport t(spec_of(2, 1));
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  std::thread echo([&t, words, &state] {
    for (std::int64_t i = 0; i < state.max_iterations; ++i) {
      auto m = t.recv(1, 0, comm::kTagUser);
      t.send(1, 0, comm::kTagUser + 1, std::move(m));
    }
  });
  for (auto _ : state) {
    t.send(0, 1, comm::kTagUser, std::vector<std::uint64_t>(words, 3));
    benchmark::DoNotOptimize(t.recv(0, 1, comm::kTagUser + 1));
  }
  echo.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(words) * 16);
}
BENCHMARK(BM_TransportPingPong)->Range(8, 1 << 18);

void BM_AllreduceSum(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  comm::Transport t(spec_of(n, 1));
  std::vector<int> everyone(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) everyone[static_cast<std::size_t>(i)] = i;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    for (int i = 1; i < n; ++i) {
      threads.emplace_back([&t, &everyone, i] {
        comm::allreduce_sum(t, everyone, i, 1, comm::kTagUser);
      });
    }
    benchmark::DoNotOptimize(
        comm::allreduce_sum(t, everyone, 0, 1, comm::kTagUser));
    for (auto& th : threads) th.join();
  }
}
BENCHMARK(BM_AllreduceSum)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_MaskReduce(benchmark::State& state) {
  const auto spec = spec_of(4, 2);
  comm::Transport t(spec);
  comm::MaskReducer reducer(t, spec);
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  int iteration = 0;
  for (auto _ : state) {
    std::vector<util::AtomicBitset> masks(8);
    for (int g = 0; g < 8; ++g) {
      masks[static_cast<std::size_t>(g)].resize(bits);
      masks[static_cast<std::size_t>(g)].set_unsynchronized(
          static_cast<std::size_t>(g * 5) % bits);
    }
    std::vector<std::thread> threads;
    for (int g = 1; g < 8; ++g) {
      threads.emplace_back([&, g] {
        reducer.reduce(spec.coord_of(g), masks[static_cast<std::size_t>(g)],
                       iteration);
      });
    }
    reducer.reduce(spec.coord_of(0), masks[0], iteration);
    for (auto& th : threads) th.join();
    ++iteration;
    benchmark::DoNotOptimize(masks[0]);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits / 8) * 8);
}
BENCHMARK(BM_MaskReduce)->Range(1 << 10, 1 << 20);

void BM_NormalExchange(benchmark::State& state) {
  const auto spec = spec_of(2, 2);
  comm::Transport t(spec);
  comm::NormalExchange ex(t, spec);
  const std::size_t per_bin = static_cast<std::size_t>(state.range(0));
  const bool use_l = state.range(1) != 0;
  int iteration = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    for (int g = 0; g < 4; ++g) {
      threads.emplace_back([&, g] {
        std::vector<std::vector<LocalId>> bins(4);
        for (auto& bin : bins) {
          bin.assign(per_bin, static_cast<LocalId>(g));
        }
        comm::ExchangeCounters counters;
        benchmark::DoNotOptimize(ex.exchange(spec.coord_of(g), bins, iteration,
                                             {use_l, use_l}, counters));
      });
    }
    for (auto& th : threads) th.join();
    ++iteration;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(per_bin) * 16);
  state.SetLabel(use_l ? "local-all2all + uniquify" : "direct");
}
BENCHMARK(BM_NormalExchange)
    ->Args({1 << 10, 0})
    ->Args({1 << 10, 1})
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1});

enum Stream : std::int64_t { kPageRankDoubles = 0, kSsspLaneWords = 1 };
constexpr std::uint64_t kLaneBias = 0x0078007800780078ULL;  // 0x78 per lane

/// One outbound update bin as the codecs see it after coalescing: ascending
/// ids with small gaps and, per `stream`, PageRank-like doubles (nearby
/// binades, random mantissas, a quarter repeating their predecessor) or
/// SSSP-like lane words (four 16-bit distances at or above kLaneBias).
std::vector<comm::VertexUpdate> update_bin(Stream stream, std::size_t n) {
  std::mt19937_64 rng(42);
  std::vector<comm::VertexUpdate> bin;
  bin.reserve(n);
  LocalId id = 0;
  for (std::size_t i = 0; i < n; ++i) {
    id += static_cast<LocalId>(1 + rng() % 40);
    std::uint64_t value = 0;
    if (stream == kPageRankDoubles) {
      const std::uint64_t exponent = 1013 + rng() % 6;
      value = (exponent << 52) | (rng() & ((1ULL << 52) - 1));
      if (i > 0 && rng() % 4 == 0) value = bin.back().value;
    } else {
      for (int lane = 0; lane < 4; ++lane) {
        value |= (0x78 + rng() % 900) << (16 * lane);
      }
    }
    bin.push_back(comm::VertexUpdate{id, value});
  }
  return bin;
}

/// Gorilla when `gorilla`, else delta+varint (biased on the lane words).
std::vector<std::uint64_t> encode_bin(
    const std::vector<comm::VertexUpdate>& bin, bool gorilla, Stream stream) {
  if (gorilla) return comm::encode_updates_gorilla(bin);
  return comm::encode_updates_compressed(
      bin, stream == kSsspLaneWords ? kLaneBias : 0);
}

void report_codec_run(benchmark::State& state, bool gorilla, Stream stream,
                     std::size_t records, std::size_t words) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
  state.SetLabel(std::string(gorilla ? "gorilla" : "varint") + " " +
                 (stream == kPageRankDoubles ? "pagerank-doubles"
                                             : "sssp-lane-words") +
                 ", " + std::to_string(words * 8 / records) + " B/record");
}

/// Records/s through one bin encoder.  Args: {gorilla, stream}.
void BM_UpdateEncode(benchmark::State& state) {
  const bool gorilla = state.range(0) != 0;
  const auto stream = static_cast<Stream>(state.range(1));
  const auto bin = update_bin(stream, 1 << 14);
  std::size_t words = 0;
  for (auto _ : state) {
    auto encoded = encode_bin(bin, gorilla, stream);
    words = encoded.size();
    benchmark::DoNotOptimize(encoded.data());
    benchmark::ClobberMemory();
  }
  report_codec_run(state, gorilla, stream, bin.size(), words);
}
BENCHMARK(BM_UpdateEncode)
    ->Args({0, kPageRankDoubles})
    ->Args({1, kPageRankDoubles})
    ->Args({0, kSsspLaneWords})
    ->Args({1, kSsspLaneWords});

/// Records/s through one bin decoder.  Args: {gorilla, stream}.
void BM_UpdateDecode(benchmark::State& state) {
  const bool gorilla = state.range(0) != 0;
  const auto stream = static_cast<Stream>(state.range(1));
  const auto bin = update_bin(stream, 1 << 14);
  const auto encoded = encode_bin(bin, gorilla, stream);
  std::vector<comm::VertexUpdate> out;
  out.reserve(bin.size());
  for (auto _ : state) {
    out.clear();
    if (gorilla) {
      comm::decode_updates_gorilla(encoded, out);
    } else {
      comm::decode_updates_compressed(
          encoded, stream == kSsspLaneWords ? kLaneBias : 0, out);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  report_codec_run(state, gorilla, stream, bin.size(), encoded.size());
}
BENCHMARK(BM_UpdateDecode)
    ->Args({0, kPageRankDoubles})
    ->Args({1, kPageRankDoubles})
    ->Args({0, kSsspLaneWords})
    ->Args({1, kSsspLaneWords});

/// Records/s through the per-bin coalescing pass on a bin of 16Ki unique
/// records, shuffled (the comparison sort a raw bin pays) or presorted (the
/// one-scan early return a sender-combined bin takes).  Args: {combine,
/// presorted}.  The copy that restores the input each iteration is not
/// timed.
void BM_CoalesceBin(benchmark::State& state) {
  const auto combine = static_cast<comm::UpdateCombine>(state.range(0));
  const bool presorted = state.range(1) != 0;
  auto input = update_bin(combine == comm::UpdateCombine::kSumDouble
                              ? kPageRankDoubles
                              : kSsspLaneWords,
                          1 << 14);
  if (!presorted) std::shuffle(input.begin(), input.end(), std::mt19937(7));
  std::vector<comm::VertexUpdate> bin;
  for (auto _ : state) {
    state.PauseTiming();
    bin = input;
    state.ResumeTiming();
    comm::coalesce_bin(bin, combine, 16);
    benchmark::DoNotOptimize(bin.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  const char* name = combine == comm::UpdateCombine::kSumDouble ? "sum-double"
                     : combine == comm::UpdateCombine::kLaneMin ? "lane-min"
                                                                : "or";
  state.SetLabel(std::string(name) + (presorted ? " presorted" : " shuffled"));
}
BENCHMARK(BM_CoalesceBin)
    ->Args({static_cast<int>(comm::UpdateCombine::kSumDouble), 0})
    ->Args({static_cast<int>(comm::UpdateCombine::kSumDouble), 1})
    ->Args({static_cast<int>(comm::UpdateCombine::kLaneMin), 0})
    ->Args({static_cast<int>(comm::UpdateCombine::kLaneMin), 1})
    ->Args({static_cast<int>(comm::UpdateCombine::kOr), 0})
    ->Args({static_cast<int>(comm::UpdateCombine::kOr), 1});

}  // namespace

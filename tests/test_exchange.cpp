#include "comm/exchange.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <random>
#include <thread>
#include <utility>

#include "baseline/host_apps.hpp"
#include "core/components.hpp"
#include "core/sssp.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"

namespace dsbfs::comm {
namespace {

struct ExchangeSetup {
  sim::ClusterSpec spec;
  ExchangeOptions options;
};

/// Run one collective exchange where GPU g sends value (g*1000 + dest) to
/// every destination GPU `dest`, and return everyone's received vectors.
std::vector<std::vector<LocalId>> run_exchange(
    const ExchangeSetup& setup, std::vector<ExchangeCounters>* counters_out,
    int duplicates = 1) {
  const int p = setup.spec.total_gpus();
  Transport t(setup.spec);
  NormalExchange ex(t, setup.spec);
  std::vector<std::vector<LocalId>> received(static_cast<std::size_t>(p));
  std::vector<ExchangeCounters> counters(static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<LocalId>> bins(static_cast<std::size_t>(p));
      for (int dest = 0; dest < p; ++dest) {
        for (int dup = 0; dup < duplicates; ++dup) {
          bins[static_cast<std::size_t>(dest)].push_back(
              static_cast<LocalId>(g * 1000 + dest));
        }
      }
      received[static_cast<std::size_t>(g)] =
          ex.exchange(setup.spec.coord_of(g), bins, /*iteration=*/0,
                      setup.options, counters[static_cast<std::size_t>(g)]);
    });
  }
  for (auto& th : threads) th.join();
  if (counters_out != nullptr) *counters_out = std::move(counters);
  return received;
}

void expect_correct_delivery(const sim::ClusterSpec& spec,
                             std::vector<std::vector<LocalId>> received,
                             int copies = 1) {
  const int p = spec.total_gpus();
  for (int g = 0; g < p; ++g) {
    auto& r = received[static_cast<std::size_t>(g)];
    std::sort(r.begin(), r.end());
    std::vector<LocalId> expected;
    for (int sender = 0; sender < p; ++sender) {
      for (int c = 0; c < copies; ++c) {
        expected.push_back(static_cast<LocalId>(sender * 1000 + g));
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(r, expected) << "gpu " << g;
  }
}

struct NamedCase {
  const char* name;
  int ranks, gpus;
  bool local_all2all, uniquify;
};

class ExchangePatterns : public ::testing::TestWithParam<NamedCase> {};

TEST_P(ExchangePatterns, EveryIdReachesItsOwner) {
  const NamedCase c = GetParam();
  ExchangeSetup setup;
  setup.spec.num_ranks = c.ranks;
  setup.spec.gpus_per_rank = c.gpus;
  setup.options = {c.local_all2all, c.uniquify};
  auto received = run_exchange(setup, nullptr);
  expect_correct_delivery(setup.spec, std::move(received));
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ExchangePatterns,
    ::testing::Values(NamedCase{"direct_1x1", 1, 1, false, false},
                      NamedCase{"direct_1x4", 1, 4, false, false},
                      NamedCase{"direct_4x1", 4, 1, false, false},
                      NamedCase{"direct_2x2", 2, 2, false, false},
                      NamedCase{"direct_3x3", 3, 3, false, false},
                      NamedCase{"l_2x2", 2, 2, true, false},
                      NamedCase{"l_4x2", 4, 2, true, false},
                      NamedCase{"l_3x3", 3, 3, true, false},
                      NamedCase{"lu_2x2", 2, 2, true, true},
                      NamedCase{"lu_4x4", 4, 4, true, true},
                      NamedCase{"u_only_2x2", 2, 2, false, true}),
    [](const auto& info) { return info.param.name; });

TEST(Exchange, UniquifyRemovesDuplicates) {
  ExchangeSetup setup;
  setup.spec.num_ranks = 2;
  setup.spec.gpus_per_rank = 2;
  setup.options = {true, true};
  std::vector<ExchangeCounters> counters;
  auto received = run_exchange(setup, &counters, /*duplicates=*/3);
  // Remote bins deduplicate to one copy; the local loopback bin and
  // same-rank traffic keep duplicates (uniquify targets remote sends).
  const int p = setup.spec.total_gpus();
  std::uint64_t removed = 0;
  for (const auto& c : counters) removed += c.duplicates_removed;
  // Each GPU sends to 1 remote rank after L (2 ranks total): that column
  // bin had 2 senders' worth with 3 copies each -> duplicates exist.
  EXPECT_GT(removed, 0u);
  for (int g = 0; g < p; ++g) {
    auto& r = received[static_cast<std::size_t>(g)];
    // After dedup, each remote sender's id appears once; local copies stay.
    std::sort(r.begin(), r.end());
    EXPECT_TRUE(std::is_sorted(r.begin(), r.end()));
  }
}

TEST(Exchange, NoUniquifyKeepsDuplicates) {
  ExchangeSetup setup;
  setup.spec.num_ranks = 2;
  setup.spec.gpus_per_rank = 1;
  setup.options = {false, false};
  auto received = run_exchange(setup, nullptr, /*duplicates=*/2);
  expect_correct_delivery(setup.spec, std::move(received), /*copies=*/2);
}

TEST(Exchange, LocalAll2AllEliminatesCrossColumnRemotePairs) {
  // With L, remote messages only connect GPUs with equal local index:
  // message count per iteration drops from p*(p-pgpu) to pgpu*prank*(prank-1)
  // (p^2 -> p^2/pgpu scaling, Section V-B).
  ExchangeSetup direct;
  direct.spec.num_ranks = 4;
  direct.spec.gpus_per_rank = 4;
  direct.options = {false, false};

  ExchangeSetup with_l = direct;
  with_l.options = {true, false};

  Transport td(direct.spec);
  {
    NormalExchange ex(td, direct.spec);
    std::vector<std::thread> threads;
    for (int g = 0; g < direct.spec.total_gpus(); ++g) {
      threads.emplace_back([&, g] {
        std::vector<std::vector<LocalId>> bins(
            static_cast<std::size_t>(direct.spec.total_gpus()));
        for (auto& b : bins) b.push_back(1);
        ExchangeCounters c;
        ex.exchange(direct.spec.coord_of(g), bins, 0, direct.options, c);
      });
    }
    for (auto& th : threads) th.join();
  }

  Transport tl(with_l.spec);
  {
    NormalExchange ex(tl, with_l.spec);
    std::vector<std::thread> threads;
    for (int g = 0; g < with_l.spec.total_gpus(); ++g) {
      threads.emplace_back([&, g] {
        std::vector<std::vector<LocalId>> bins(
            static_cast<std::size_t>(with_l.spec.total_gpus()));
        for (auto& b : bins) b.push_back(1);
        ExchangeCounters c;
        ex.exchange(with_l.spec.coord_of(g), bins, 0, with_l.options, c);
      });
    }
    for (auto& th : threads) th.join();
  }

  // Count cross-rank messages: direct = p * (p - pgpu) = 16*12 = 192;
  // with L = p * (prank - 1) = 16*3 = 48.
  // (Transport counts all messages; same-rank ones differ too, but the
  // cross-rank byte counter isolates the remote pattern.)
  EXPECT_GT(td.bytes_cross_rank(), tl.bytes_cross_rank() * 2);
}

TEST(Exchange, CountersTrackRemoteBytes) {
  ExchangeSetup setup;
  setup.spec.num_ranks = 2;
  setup.spec.gpus_per_rank = 1;
  setup.options = {false, false};
  std::vector<ExchangeCounters> counters;
  run_exchange(setup, &counters);
  // GPU 0 sends exactly one id (4 bytes) to GPU 1 (other rank) and vice
  // versa.
  for (const auto& c : counters) {
    EXPECT_EQ(c.send_bytes_remote, 4u);
    EXPECT_EQ(c.recv_bytes_remote, 4u);
    EXPECT_EQ(c.send_dest_ranks, 1);
    EXPECT_EQ(c.bin_vertices, 2u);  // one per destination (incl. loopback)
  }
}

TEST(Exchange, LoopbackOnlySingleGpu) {
  ExchangeSetup setup;
  setup.spec.num_ranks = 1;
  setup.spec.gpus_per_rank = 1;
  setup.options = {false, false};
  std::vector<ExchangeCounters> counters;
  auto received = run_exchange(setup, &counters);
  ASSERT_EQ(received[0].size(), 1u);
  EXPECT_EQ(received[0][0], 0u);  // 0*1000 + 0
  EXPECT_EQ(counters[0].send_bytes_remote, 0u);
}

TEST(Exchange, EmptyBinsStillCompleteCollectively) {
  ExchangeSetup setup;
  setup.spec.num_ranks = 3;
  setup.spec.gpus_per_rank = 2;
  const int p = setup.spec.total_gpus();
  Transport t(setup.spec);
  NormalExchange ex(t, setup.spec);
  std::vector<std::thread> threads;
  std::atomic<int> completed{0};
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<LocalId>> bins(static_cast<std::size_t>(p));
      ExchangeCounters c;
      const auto r = ex.exchange(setup.spec.coord_of(g), bins, 0,
                                 {true, true}, c);
      EXPECT_TRUE(r.empty());
      completed.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(completed.load(), p);
}

TEST(UpdateExchange, PairsReachOwners) {
  // The (id, value) exchange behind CC labels and PageRank contributions.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  const int p = spec.total_gpus();
  Transport t(spec);
  std::vector<std::vector<VertexUpdate>> received(static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<VertexUpdate>> bins(static_cast<std::size_t>(p));
      for (int dest = 0; dest < p; ++dest) {
        bins[static_cast<std::size_t>(dest)].push_back(VertexUpdate{
            static_cast<LocalId>(dest),
            static_cast<std::uint64_t>(g) << 32 | 0xabcdu});
      }
      ExchangeCounters c;
      received[static_cast<std::size_t>(g)] =
          exchange_updates(t, spec, spec.coord_of(g), bins, 0, {}, c);
    });
  }
  for (auto& th : threads) th.join();
  for (int g = 0; g < p; ++g) {
    auto& r = received[static_cast<std::size_t>(g)];
    ASSERT_EQ(r.size(), static_cast<std::size_t>(p));
    std::vector<std::uint64_t> senders;
    for (const VertexUpdate& u : r) {
      EXPECT_EQ(u.vertex, static_cast<LocalId>(g));
      EXPECT_EQ(u.value & 0xffffffffu, 0xabcdu);
      senders.push_back(u.value >> 32);
    }
    std::sort(senders.begin(), senders.end());
    for (int sndr = 0; sndr < p; ++sndr) {
      EXPECT_EQ(senders[static_cast<std::size_t>(sndr)],
                static_cast<std::uint64_t>(sndr));
    }
  }
}

TEST(UpdateExchange, CountersUseTwelveBytesPerUpdate) {
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  Transport t(spec);
  std::vector<ExchangeCounters> counters(2);
  std::vector<std::thread> threads;
  for (int g = 0; g < 2; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<VertexUpdate>> bins(2);
      bins[static_cast<std::size_t>(1 - g)].assign(10, VertexUpdate{1, 2});
      exchange_updates(t, spec, spec.coord_of(g), bins, 0, {},
                       counters[static_cast<std::size_t>(g)]);
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& c : counters) {
    EXPECT_EQ(c.send_bytes_remote, 120u);  // 10 updates x 12 bytes
    EXPECT_EQ(c.recv_bytes_remote, 120u);
    EXPECT_EQ(c.send_dest_ranks, 1);
  }
}

TEST(Exchange, UniquifyCountersCountScannedAndRemoved) {
  // Direct path, 2 ranks x 1 GPU: each GPU sends the same id five times to
  // the other GPU.  Uniquify scans all five and removes four; one 4-byte id
  // crosses the wire.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  Transport t(spec);
  NormalExchange ex(t, spec);
  std::vector<ExchangeCounters> counters(2);
  std::vector<std::thread> threads;
  for (int g = 0; g < 2; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<LocalId>> bins(2);
      bins[static_cast<std::size_t>(1 - g)].assign(5, LocalId{7});
      ex.exchange(spec.coord_of(g), bins, 0, {false, true},
                  counters[static_cast<std::size_t>(g)]);
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& c : counters) {
    EXPECT_EQ(c.bin_vertices, 5u);
    EXPECT_EQ(c.uniquify_vertices, 5u);
    EXPECT_EQ(c.duplicates_removed, 4u);
    EXPECT_EQ(c.send_bytes_remote, 4u);
    EXPECT_EQ(c.recv_bytes_remote, 4u);
    EXPECT_EQ(c.local_bytes, 0u);
  }
}

TEST(UpdateExchange, CountersSplitLocalAndRemoteBytes) {
  // 2 ranks x 2 GPUs: GPU g sends (g + 1) updates to every GPU including
  // itself.  One destination shares g's rank (12 bytes each over NVLink),
  // two are remote; the loopback bin is counted in bin_vertices but moves
  // no bytes.  Default options: no coalescing, no compression.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  const int p = spec.total_gpus();
  Transport t(spec);
  std::vector<ExchangeCounters> counters(static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<VertexUpdate>> bins(static_cast<std::size_t>(p));
      for (int dest = 0; dest < p; ++dest) {
        bins[static_cast<std::size_t>(dest)].assign(
            static_cast<std::size_t>(g + 1), VertexUpdate{3, 9});
      }
      exchange_updates(t, spec, spec.coord_of(g), bins, 0, {},
                       counters[static_cast<std::size_t>(g)]);
    });
  }
  for (auto& th : threads) th.join();
  for (int g = 0; g < p; ++g) {
    const auto& c = counters[static_cast<std::size_t>(g)];
    const std::uint64_t per_bin = static_cast<std::uint64_t>(g + 1);
    EXPECT_EQ(c.bin_vertices, 4 * per_bin) << "gpu " << g;
    EXPECT_EQ(c.local_bytes, per_bin * 12) << "gpu " << g;
    EXPECT_EQ(c.send_bytes_remote, 2 * per_bin * 12) << "gpu " << g;
    EXPECT_EQ(c.send_dest_ranks, 2) << "gpu " << g;
    // Remote senders are the two GPUs of the other rank.
    std::uint64_t expected_recv = 0;
    for (int s = 0; s < p; ++s) {
      if (spec.coord_of(s).rank != spec.coord_of(g).rank) {
        expected_recv += static_cast<std::uint64_t>(s + 1) * 12;
      }
    }
    EXPECT_EQ(c.recv_bytes_remote, expected_recv) << "gpu " << g;
    EXPECT_EQ(c.uniquify_vertices, 0u);
    EXPECT_EQ(c.duplicates_removed, 0u);
  }
}

TEST(UpdateExchange, EmptyBinsComplete) {
  sim::ClusterSpec spec;
  spec.num_ranks = 3;
  spec.gpus_per_rank = 1;
  Transport t(spec);
  std::vector<std::thread> threads;
  std::atomic<int> done{0};
  for (int g = 0; g < 3; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<VertexUpdate>> bins(3);
      ExchangeCounters c;
      EXPECT_TRUE(
          exchange_updates(t, spec, spec.coord_of(g), bins, 0, {}, c).empty());
      done.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(done.load(), 3);
}

TEST(Exchange, OddIdValuesSurvivePacking) {
  // The 2-ids-per-word packing must handle odd counts and large id values.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  Transport t(spec);
  NormalExchange ex(t, spec);
  std::vector<std::vector<LocalId>> received(2);
  std::vector<std::thread> threads;
  for (int g = 0; g < 2; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<LocalId>> bins(2);
      if (g == 0) {
        bins[1] = {0xffffffffu, 1u, 0x80000000u};  // odd count, extreme values
      }
      ExchangeCounters c;
      received[static_cast<std::size_t>(g)] =
          ex.exchange(spec.coord_of(g), bins, 0, {}, c);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(received[1],
            (std::vector<LocalId>{0xffffffffu, 1u, 0x80000000u}));
}

// ---- update coalescing (min/sum-uniquify) and compression ----------------

/// Run one collective update exchange on `spec` where every GPU fills its
/// bins via `fill(gpu, bins)`; returns everyone's received vectors.
std::vector<std::vector<VertexUpdate>> run_update_exchange(
    const sim::ClusterSpec& spec, const UpdateExchangeOptions& options,
    std::vector<ExchangeCounters>* counters_out,
    const std::function<void(int, std::vector<std::vector<VertexUpdate>>&)>&
        fill) {
  const int p = spec.total_gpus();
  Transport t(spec);
  std::vector<std::vector<VertexUpdate>> received(static_cast<std::size_t>(p));
  std::vector<ExchangeCounters> counters(static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  for (int g = 0; g < p; ++g) {
    threads.emplace_back([&, g] {
      std::vector<std::vector<VertexUpdate>> bins(static_cast<std::size_t>(p));
      fill(g, bins);
      received[static_cast<std::size_t>(g)] =
          exchange_updates(t, spec, spec.coord_of(g), bins, 0, options,
                           counters[static_cast<std::size_t>(g)]);
    });
  }
  for (auto& th : threads) th.join();
  if (counters_out != nullptr) *counters_out = std::move(counters);
  return received;
}

TEST(UpdateExchange, MinCoalesceShrinksBinsAndBytes) {
  // 2 ranks x 1 GPU: each GPU sends five candidates for vertex 7 (values
  // 50..54) plus one for vertex 9.  Min-coalescing scans all six, removes
  // four, and ships two updates (24 bytes) carrying the per-vertex minima.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  std::vector<ExchangeCounters> counters;
  auto received = run_update_exchange(
      spec, {UpdateCombine::kMin, false}, &counters,
      [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
        auto& bin = bins[static_cast<std::size_t>(1 - g)];
        for (std::uint64_t i = 0; i < 5; ++i) {
          bin.push_back(VertexUpdate{7, 54 - i});  // min arrives last
        }
        bin.push_back(VertexUpdate{9, 100});
      });
  for (const auto& c : counters) {
    EXPECT_EQ(c.bin_vertices, 6u);        // pre-coalesce candidate count
    EXPECT_EQ(c.uniquify_vertices, 6u);   // all scanned
    EXPECT_EQ(c.uniquify_bytes, 6u * 12); // 12-byte update records
    EXPECT_EQ(c.duplicates_removed, 4u);  // post-coalesce: 2 remain
    EXPECT_EQ(c.send_bytes_remote, 2u * 12);
    EXPECT_EQ(c.recv_bytes_remote, 2u * 12);
    EXPECT_EQ(c.encode_bytes, 0u);  // compression off
  }
  for (int g = 0; g < 2; ++g) {
    auto& r = received[static_cast<std::size_t>(g)];
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].vertex, 7u);
    EXPECT_EQ(r[0].value, 50u);  // the minimum survived
    EXPECT_EQ(r[1].vertex, 9u);
    EXPECT_EQ(r[1].value, 100u);
  }
}

TEST(UpdateExchange, SumCoalesceCombinesDoubleContributions) {
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  std::vector<ExchangeCounters> counters;
  auto received = run_update_exchange(
      spec, {UpdateCombine::kSumDouble, false}, &counters,
      [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
        auto& bin = bins[static_cast<std::size_t>(1 - g)];
        for (int i = 0; i < 4; ++i) {
          bin.push_back(VertexUpdate{3, std::bit_cast<std::uint64_t>(0.25)});
        }
      });
  for (const auto& c : counters) {
    EXPECT_EQ(c.duplicates_removed, 3u);
    EXPECT_EQ(c.send_bytes_remote, 12u);
  }
  for (int g = 0; g < 2; ++g) {
    ASSERT_EQ(received[static_cast<std::size_t>(g)].size(), 1u);
    EXPECT_DOUBLE_EQ(
        std::bit_cast<double>(received[static_cast<std::size_t>(g)][0].value),
        1.0);
  }
}

TEST(UpdateExchange, CoalesceSkipsTheLoopbackBin) {
  // The loopback bin never hits a wire, so (like the id exchange's U
  // option) its duplicates are left to the receiver's own fold.
  sim::ClusterSpec spec;
  spec.num_ranks = 1;
  spec.gpus_per_rank = 1;
  std::vector<ExchangeCounters> counters;
  auto received = run_update_exchange(
      spec, {UpdateCombine::kMin, false}, &counters,
      [](int, std::vector<std::vector<VertexUpdate>>& bins) {
        bins[0].assign(3, VertexUpdate{1, 5});
      });
  EXPECT_EQ(received[0].size(), 3u);
  EXPECT_EQ(counters[0].uniquify_vertices, 0u);
  EXPECT_EQ(counters[0].duplicates_removed, 0u);
}

TEST(UpdateExchange, CompressionRoundTripsAndCountsWireBytes) {
  // Small sorted ids and small values varint-encode to ~2 bytes per update
  // vs 12 uncompressed; the byte counters must report the wire size, and
  // encode_bytes the raw payload run through the encoder.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  std::vector<ExchangeCounters> counters;
  auto received = run_update_exchange(
      spec, {UpdateCombine::kMin, true}, &counters,
      [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
        auto& bin = bins[static_cast<std::size_t>(1 - g)];
        for (std::uint64_t i = 0; i < 10; ++i) {
          bin.push_back(VertexUpdate{static_cast<LocalId>(i * 3), i + 1});
        }
      });
  for (const auto& c : counters) {
    EXPECT_EQ(c.encode_bytes, 10u * 12);
    EXPECT_GT(c.send_bytes_remote, 0u);
    EXPECT_LT(c.send_bytes_remote, 10u * 12);  // strictly fewer wire bytes
    EXPECT_EQ(c.recv_bytes_remote, c.send_bytes_remote);
  }
  for (int g = 0; g < 2; ++g) {
    auto& r = received[static_cast<std::size_t>(g)];
    ASSERT_EQ(r.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i) {
      EXPECT_EQ(r[i].vertex, i * 3);
      EXPECT_EQ(r[i].value, i + 1);
    }
  }
}

TEST(UpdateExchange, CompressionSurvivesUnsortedAndExtremeValues) {
  // Without coalescing the ids arrive unsorted, so deltas go negative
  // (zigzag path), and 64-bit extremes must round-trip bit for bit.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  const std::vector<VertexUpdate> payload = {
      {0xffffffffu, 0xffffffffffffffffull},
      {0u, 0u},
      {0x80000000u, std::bit_cast<std::uint64_t>(-0.125)},
      {7u, 1u},
  };
  auto received = run_update_exchange(
      spec, {UpdateCombine::kNone, true}, nullptr,
      [&](int g, std::vector<std::vector<VertexUpdate>>& bins) {
        bins[static_cast<std::size_t>(1 - g)] = payload;
      });
  for (int g = 0; g < 2; ++g) {
    auto& r = received[static_cast<std::size_t>(g)];
    ASSERT_EQ(r.size(), payload.size());
    for (std::size_t i = 0; i < payload.size(); ++i) {
      EXPECT_EQ(r[i].vertex, payload[i].vertex) << i;
      EXPECT_EQ(r[i].value, payload[i].value) << i;
    }
  }
}

TEST(UpdateExchange, ValueBiasRoundTripsAndShrinksWireBytes) {
  // Bucket-tagged payload: values clustered just above a large floor (the
  // open bucket's base distance) encode as multi-byte varints raw but
  // one-byte varints once biased; the result must be identical either way,
  // including a bias *larger* than some value (mod-2^64 round trip).
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  const std::uint64_t base = 1ULL << 40;
  const auto fill = [&](int g, std::vector<std::vector<VertexUpdate>>& bins) {
    auto& bin = bins[static_cast<std::size_t>(1 - g)];
    for (std::uint64_t i = 0; i < 16; ++i) {
      bin.push_back(VertexUpdate{static_cast<LocalId>(i), base + i});
    }
    bin.push_back(VertexUpdate{100u, base - 3});  // below the floor
  };
  std::vector<ExchangeCounters> raw_counters, biased_counters;
  auto raw = run_update_exchange(spec, {UpdateCombine::kMin, true},
                                 &raw_counters, fill);
  auto biased = run_update_exchange(
      spec, {UpdateCombine::kMin, true, base}, &biased_counters, fill);
  for (int g = 0; g < 2; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    ASSERT_EQ(biased[gi].size(), raw[gi].size());
    for (std::size_t i = 0; i < raw[gi].size(); ++i) {
      EXPECT_EQ(biased[gi][i].vertex, raw[gi][i].vertex) << i;
      EXPECT_EQ(biased[gi][i].value, raw[gi][i].value) << i;
    }
  }
  for (std::size_t g = 0; g < 2; ++g) {
    EXPECT_LT(biased_counters[g].send_bytes_remote,
              raw_counters[g].send_bytes_remote);
  }
}

TEST(UpdateExchange, OrCoalesceMergesLaneWords) {
  // The batched-BFS combine: candidates for one destination vertex OR their
  // lane words into a single update.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  std::vector<ExchangeCounters> counters;
  auto received = run_update_exchange(
      spec, {UpdateCombine::kOr, false}, &counters,
      [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
        auto& bin = bins[static_cast<std::size_t>(1 - g)];
        bin.push_back(VertexUpdate{5, 0b0001});
        bin.push_back(VertexUpdate{5, 0b1000});
        bin.push_back(VertexUpdate{9, 0b0110});
      });
  for (const auto& c : counters) {
    EXPECT_EQ(c.duplicates_removed, 1u);
    EXPECT_EQ(c.send_bytes_remote, 2u * 12);
  }
  for (int g = 0; g < 2; ++g) {
    auto& r = received[static_cast<std::size_t>(g)];
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].vertex, 5u);
    EXPECT_EQ(r[0].value, 0b1001u);
    EXPECT_EQ(r[1].vertex, 9u);
    EXPECT_EQ(r[1].value, 0b0110u);
  }
}

TEST(UpdateExchange, ValueBytesScalesTheWireCounters) {
  // Lane-word updates are narrower than the historic 12-byte record: the
  // counters must charge 4 + value_bytes per update (and the bare 4-byte
  // id at value_bytes = 0, the W = 1 batch where the lane is implicit).
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  for (const int value_bytes : {0, 1, 4, 8}) {
    std::vector<ExchangeCounters> counters;
    UpdateExchangeOptions options;
    options.combine = UpdateCombine::kOr;
    options.value_bytes = value_bytes;
    auto received = run_update_exchange(
        spec, options, &counters,
        [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
          auto& bin = bins[static_cast<std::size_t>(1 - g)];
          for (LocalId i = 0; i < 10; ++i) bin.push_back(VertexUpdate{i, 1});
        });
    const std::uint64_t expected =
        10u * (4u + static_cast<std::uint64_t>(value_bytes));
    for (const auto& c : counters) {
      EXPECT_EQ(c.send_bytes_remote, expected) << "width " << value_bytes;
      EXPECT_EQ(c.recv_bytes_remote, expected) << "width " << value_bytes;
      EXPECT_EQ(c.uniquify_bytes, expected) << "width " << value_bytes;
    }
    for (int g = 0; g < 2; ++g) {
      EXPECT_EQ(received[static_cast<std::size_t>(g)].size(), 10u);
    }
  }
}

TEST(UpdateExchange, AdaptiveCompressionPicksTheSmallerPathPerBin) {
  // Two bins from each GPU: one with tiny sorted ids and values (the
  // encode wins), one with scattered ids and full-range values (raw wins).
  // Both must round-trip bit for bit and the counters must record one
  // choice each way; the shipped bytes equal the per-bin minimum.
  sim::ClusterSpec spec;
  spec.num_ranks = 3;
  spec.gpus_per_rank = 1;
  UpdateExchangeOptions options;
  options.compress = true;
  options.adaptive = true;
  const std::vector<VertexUpdate> wins = {
      {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}};
  std::vector<VertexUpdate> loses;
  for (int i = 0; i < 6; ++i) {
    // Alternating extremes: 5-byte zigzag deltas plus 10-byte values.
    loses.push_back(VertexUpdate{i % 2 == 0 ? 0xffffffffu : 0u,
                                 0x8000000000000000ull +
                                     static_cast<std::uint64_t>(i)});
  }
  std::vector<ExchangeCounters> counters;
  auto received = run_update_exchange(
      spec, options, &counters,
      [&](int g, std::vector<std::vector<VertexUpdate>>& bins) {
        bins[static_cast<std::size_t>((g + 1) % 3)] = wins;
        bins[static_cast<std::size_t>((g + 2) % 3)] = loses;
      });
  const std::uint64_t raw_bytes = 6u * 12;
  for (const auto& c : counters) {
    EXPECT_EQ(c.bins_compressed, 1u);
    EXPECT_EQ(c.bins_raw, 1u);
    // Encoded small bin is ~2 bytes per update; the raw bin ships 72.
    EXPECT_LT(c.send_bytes_remote, 2 * raw_bytes);
    EXPECT_GE(c.send_bytes_remote, raw_bytes);
    EXPECT_EQ(c.encode_bytes, 2 * raw_bytes);  // both bins were trialed
  }
  for (int g = 0; g < 3; ++g) {
    auto r = received[static_cast<std::size_t>(g)];
    ASSERT_EQ(r.size(), wins.size() + loses.size());
    std::sort(r.begin(), r.end(), [](const auto& a, const auto& b) {
      return a.value < b.value;
    });
    for (std::size_t i = 0; i < wins.size(); ++i) {
      EXPECT_EQ(r[i].vertex, wins[i].vertex);
      EXPECT_EQ(r[i].value, wins[i].value);
    }
    for (std::size_t i = 0; i < loses.size(); ++i) {
      EXPECT_EQ(r[wins.size() + i].value,
                0x8000000000000000ull + static_cast<std::uint64_t>(i));
    }
  }
}

TEST(UpdateExchange, AdaptiveNeverExceedsEitherFixedPolicy) {
  // Same payload through off / forced / adaptive: adaptive's wire volume
  // is the per-bin minimum, so it can beat both and must never lose.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  const auto fill = [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
    auto& bin = bins[static_cast<std::size_t>(1 - g)];
    for (std::uint64_t i = 0; i < 8; ++i) {
      bin.push_back(VertexUpdate{static_cast<LocalId>(i * 2), i});
    }
  };
  std::uint64_t bytes[3];
  for (int mode = 0; mode < 3; ++mode) {
    UpdateExchangeOptions options;
    options.compress = mode >= 1;
    options.adaptive = mode == 2;
    std::vector<ExchangeCounters> counters;
    run_update_exchange(spec, options, &counters, fill);
    bytes[mode] = counters[0].send_bytes_remote;
  }
  EXPECT_LE(bytes[2], bytes[0]);
  EXPECT_LE(bytes[2], bytes[1]);
}

TEST(UpdateExchange, GorillaRoundTripsAndBeatsVarintOnDoubles) {
  // Successive PageRank-style shares: same sign/exponent, slowly moving
  // mantissa.  The XOR stream truncates the shared bits; varint sees
  // full-width bit-cast integers and inflates past raw.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  const auto fill = [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
    auto& bin = bins[static_cast<std::size_t>(1 - g)];
    for (std::uint64_t i = 0; i < 32; ++i) {
      const double share = 1.0 / 64.0 + static_cast<double>(i) * 1e-6;
      bin.push_back(
          VertexUpdate{static_cast<LocalId>(i), std::bit_cast<std::uint64_t>(share)});
    }
  };
  std::uint64_t bytes[3];
  std::vector<std::vector<VertexUpdate>> received[3];
  for (int mode = 0; mode < 3; ++mode) {
    UpdateExchangeOptions options;
    options.compress = mode >= 1;
    options.gorilla = mode == 2;
    std::vector<ExchangeCounters> counters;
    received[mode] = run_update_exchange(spec, options, &counters, fill);
    bytes[mode] = counters[0].send_bytes_remote;
  }
  // Bit-exact across raw / varint / gorilla.
  for (int mode = 1; mode < 3; ++mode) {
    for (int g = 0; g < 2; ++g) {
      auto a = received[0][static_cast<std::size_t>(g)];
      auto b = received[mode][static_cast<std::size_t>(g)];
      const auto by_id = [](const auto& x, const auto& y) {
        return x.vertex < y.vertex;
      };
      std::sort(a.begin(), a.end(), by_id);
      std::sort(b.begin(), b.end(), by_id);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].vertex, b[i].vertex) << "mode " << mode;
        ASSERT_EQ(a[i].value, b[i].value) << "mode " << mode;
      }
    }
  }
  EXPECT_LT(bytes[2], bytes[0]);  // gorilla beats raw on float payloads
  EXPECT_LT(bytes[2], bytes[1]);  // and varint loses to both
}

TEST(UpdateExchange, GorillaAdaptiveNeverExceedsRawOnHostilePayload) {
  // Uncorrelated full-entropy values AND ids scattered over the full
  // 32-bit range: the XOR windows never truncate and the id deltas need
  // 4-5 varint bytes, so forced gorilla pays for its control bits; the
  // adaptive trial-encode must fall back to raw per bin.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  const auto fill = [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
    auto& bin = bins[static_cast<std::size_t>(1 - g)];
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint64_t i = 0; i < 32; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      bin.push_back(VertexUpdate{
          static_cast<LocalId>(i * 2654435761u), x});
    }
  };
  std::uint64_t raw = 0, forced = 0, adaptive = 0;
  for (int mode = 0; mode < 3; ++mode) {
    UpdateExchangeOptions options;
    options.compress = mode >= 1;
    options.gorilla = mode >= 1;
    options.adaptive = mode == 2;
    std::vector<ExchangeCounters> counters;
    auto received = run_update_exchange(spec, options, &counters, fill);
    (mode == 0 ? raw : mode == 1 ? forced : adaptive) =
        counters[0].send_bytes_remote;
    for (int g = 0; g < 2; ++g) {
      EXPECT_EQ(received[static_cast<std::size_t>(g)].size(), 32u);
    }
  }
  EXPECT_GT(forced, raw);      // the payload gorilla was NOT built for
  EXPECT_LE(adaptive, raw);    // the adaptive guarantee
  EXPECT_LE(adaptive, forced);
}

TEST(UpdateExchange, GorillaRepeatAndWindowReuseCompressHard) {
  // All-identical values exercise the '0' repeat control path: two bits
  // per value after the first.  The wire must come in far under raw.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  const auto fill = [](int g, std::vector<std::vector<VertexUpdate>>& bins) {
    auto& bin = bins[static_cast<std::size_t>(1 - g)];
    for (std::uint64_t i = 0; i < 64; ++i) {
      bin.push_back(VertexUpdate{static_cast<LocalId>(i),
                                 std::bit_cast<std::uint64_t>(0.25)});
    }
  };
  UpdateExchangeOptions options;
  options.compress = true;
  options.gorilla = true;
  std::vector<ExchangeCounters> counters;
  auto received = run_update_exchange(spec, options, &counters, fill);
  EXPECT_LT(counters[0].send_bytes_remote, 64u * 12 / 4);
  for (int g = 0; g < 2; ++g) {
    ASSERT_EQ(received[static_cast<std::size_t>(g)].size(), 64u);
    for (const auto& u : received[static_cast<std::size_t>(g)]) {
      EXPECT_EQ(u.value, std::bit_cast<std::uint64_t>(0.25));
    }
  }
}

/// (id, value) pairs, so whole update vectors compare with EXPECT_EQ.
std::vector<std::pair<LocalId, std::uint64_t>> pairs_of(
    const std::vector<VertexUpdate>& updates) {
  std::vector<std::pair<LocalId, std::uint64_t>> out;
  out.reserve(updates.size());
  for (const VertexUpdate& u : updates) out.emplace_back(u.vertex, u.value);
  return out;
}

TEST(UpdateExchange, PresortedBinsShipUnchanged) {
  // Coalescing skips its sort on a strictly ascending bin, which is what a
  // sender that combined its own candidates (PageRank's ghost slots) hands
  // over.  For the order-insensitive combines the skip must not show: an
  // ascending bin and the same records shuffled ship the same wire words
  // and charge the same counters.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 1;
  std::vector<VertexUpdate> ascending;
  for (LocalId v = 0; v < 300; ++v) {
    ascending.push_back(
        VertexUpdate{3 * v + 1, 0x0004000300020001ULL * (v % 7 + 1)});
  }
  std::vector<VertexUpdate> shuffled = ascending;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(7));
  ASSERT_NE(pairs_of(shuffled), pairs_of(ascending));

  for (const UpdateCombine combine :
       {UpdateCombine::kMin, UpdateCombine::kOr, UpdateCombine::kLaneMin,
        UpdateCombine::kLaneSum}) {
    SCOPED_TRACE(static_cast<int>(combine));
    const UpdateExchangeOptions options{
        .combine = combine, .compress = true, .lane_value_bits = 16};
    std::vector<std::uint64_t> words[2];
    std::vector<ExchangeCounters> counters[2];
    std::vector<std::vector<VertexUpdate>> received[2];
    for (int k = 0; k < 2; ++k) {
      const std::vector<VertexUpdate>& input = k == 0 ? ascending : shuffled;
      std::vector<VertexUpdate> bin = input;
      coalesce_bin(bin, combine, options.lane_value_bits);
      words[k] = encode_updates_compressed(bin, 0);
      received[k] = run_update_exchange(
          spec, options, &counters[k],
          [&](int g, std::vector<std::vector<VertexUpdate>>& bins) {
            bins[static_cast<std::size_t>(1 - g)] = input;
          });
    }
    EXPECT_EQ(words[0], words[1]);
    for (int g = 0; g < 2; ++g) {
      const auto gi = static_cast<std::size_t>(g);
      EXPECT_EQ(pairs_of(received[0][gi]), pairs_of(ascending));
      EXPECT_EQ(pairs_of(received[1][gi]), pairs_of(ascending));
      const ExchangeCounters& a = counters[0][gi];
      const ExchangeCounters& b = counters[1][gi];
      EXPECT_EQ(a.bin_vertices, b.bin_vertices);
      EXPECT_EQ(a.uniquify_vertices, b.uniquify_vertices);
      EXPECT_EQ(a.uniquify_bytes, b.uniquify_bytes);
      EXPECT_EQ(a.duplicates_removed, b.duplicates_removed);
      EXPECT_EQ(a.encode_bytes, b.encode_bytes);
      EXPECT_EQ(a.send_bytes_remote, b.send_bytes_remote);
      EXPECT_EQ(a.recv_bytes_remote, b.recv_bytes_remote);
    }
  }

  // kSumDouble: an ascending unique bin is shipped record for record --
  // nothing is added, so no share is re-associated.
  std::vector<VertexUpdate> shares;
  for (LocalId v = 0; v < 64; ++v) {
    shares.push_back(VertexUpdate{
        2 * v, std::bit_cast<std::uint64_t>(1.0 / (3.0 + v))});
  }
  std::vector<ExchangeCounters> sum_counters;
  const auto sums = run_update_exchange(
      spec, {.combine = UpdateCombine::kSumDouble}, &sum_counters,
      [&](int g, std::vector<std::vector<VertexUpdate>>& bins) {
        bins[static_cast<std::size_t>(1 - g)] = shares;
      });
  for (int g = 0; g < 2; ++g) {
    EXPECT_EQ(pairs_of(sums[static_cast<std::size_t>(g)]), pairs_of(shares));
    EXPECT_EQ(sum_counters[static_cast<std::size_t>(g)].uniquify_vertices,
              64u);
    EXPECT_EQ(sum_counters[static_cast<std::size_t>(g)].duplicates_removed,
              0u);
  }

  // Out of order only at the last pair: swapped, or a repeated id.  The
  // check stops there and the bin is still sorted and combined.
  std::vector<VertexUpdate> swapped = {{10, 1}, {20, 2}, {30, 3}, {50, 5},
                                       {40, 4}};
  coalesce_bin(swapped, UpdateCombine::kMin);
  EXPECT_EQ(pairs_of(swapped),
            (std::vector<std::pair<LocalId, std::uint64_t>>{
                {10, 1}, {20, 2}, {30, 3}, {40, 4}, {50, 5}}));
  std::vector<VertexUpdate> repeated = {{10, 1}, {20, 2}, {30, 3}, {30, 4}};
  coalesce_bin(repeated, UpdateCombine::kOr);
  EXPECT_EQ(pairs_of(repeated),
            (std::vector<std::pair<LocalId, std::uint64_t>>{
                {10, 1}, {20, 2}, {30, 7}}));
}

TEST(UpdateExchange, SenderCombinedBinsChargeLikeRawBins) {
  // A sender that combines its own candidates (PageRank's ghost slots)
  // hands over ascending unique bins, folds its loopback candidates in
  // place and reports the raw counts: every counter must read as if the
  // raw bins had gone through the exchange.
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  const int p = spec.total_gpus();
  const UpdateExchangeOptions options{.combine = UpdateCombine::kMin,
                                      .compress = true,
                                      .adaptive = true};
  const auto raw_bins = [p](int g) {
    std::vector<std::vector<VertexUpdate>> bins(static_cast<std::size_t>(p));
    for (int dest = 0; dest < p; ++dest) {
      for (std::uint64_t i = 0; i < 40; ++i) {
        bins[static_cast<std::size_t>(dest)].push_back(VertexUpdate{
            static_cast<LocalId>((i * 7 + static_cast<std::uint64_t>(g)) %
                                 23),
            100 + i});
      }
    }
    return bins;
  };
  const auto run = [&](bool sender_combines) {
    Transport t(spec);
    std::vector<ExchangeCounters> counters(static_cast<std::size_t>(p));
    std::vector<std::thread> threads;
    for (int g = 0; g < p; ++g) {
      threads.emplace_back([&, g] {
        auto bins = raw_bins(g);
        ExchangeCounters& c = counters[static_cast<std::size_t>(g)];
        if (sender_combines) {
          std::vector<std::uint64_t> candidates;
          for (auto& bin : bins) {
            candidates.push_back(bin.size());
            coalesce_bin(bin, options.combine);
          }
          bins[static_cast<std::size_t>(g)].clear();  // folded in place
          charge_sender_combine(options, g, candidates, bins, c);
        }
        exchange_updates(t, spec, spec.coord_of(g), bins, 0, options, c);
      });
    }
    for (auto& th : threads) th.join();
    return counters;
  };
  const auto raw = run(false);
  const auto combined = run(true);
  for (int g = 0; g < p; ++g) {
    SCOPED_TRACE(g);
    const ExchangeCounters& a = raw[static_cast<std::size_t>(g)];
    const ExchangeCounters& b = combined[static_cast<std::size_t>(g)];
    EXPECT_EQ(a.bin_vertices, 4u * 40);
    EXPECT_EQ(a.uniquify_vertices, 3u * 40);
    EXPECT_GT(a.duplicates_removed, 0u);
    EXPECT_EQ(b.bin_vertices, a.bin_vertices);
    EXPECT_EQ(b.uniquify_vertices, a.uniquify_vertices);
    EXPECT_EQ(b.uniquify_bytes, a.uniquify_bytes);
    EXPECT_EQ(b.duplicates_removed, a.duplicates_removed);
    EXPECT_EQ(b.encode_bytes, a.encode_bytes);
    EXPECT_EQ(b.bins_compressed, a.bins_compressed);
    EXPECT_EQ(b.bins_raw, a.bins_raw);
    EXPECT_EQ(b.send_bytes_remote, a.send_bytes_remote);
    EXPECT_EQ(b.recv_bytes_remote, a.recv_bytes_remote);
    EXPECT_EQ(b.local_bytes, a.local_bytes);
  }

  std::vector<std::vector<VertexUpdate>> bins(2);
  ExchangeCounters c;
  const std::vector<std::uint64_t> counts = {1, 1};
  EXPECT_THROW(charge_sender_combine({.combine = UpdateCombine::kNone}, 0,
                                     counts, bins, c),
               std::invalid_argument);
  EXPECT_THROW(charge_sender_combine(options, 0,
                                     std::vector<std::uint64_t>{1}, bins, c),
               std::invalid_argument);
  bins[1].assign(2, VertexUpdate{});
  EXPECT_THROW(charge_sender_combine(options, 0, counts, bins, c),
               std::invalid_argument);
}

// ---- end-to-end: the exchange options preserve algorithm results ---------

TEST(UpdateExchange, SsspBitExactWithUniquifyOnAndOff) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 55});
  const graph::HostCsr host = graph::build_host_csr(g);
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  const auto expected = baseline::serial_sssp(host, 3);
  for (const bool uniquify : {false, true}) {
    for (const bool compress : {false, true}) {
      core::SsspOptions options;
      options.uniquify = uniquify;
      options.compress = compress;
      core::DistributedSssp sssp(dg, cluster, options);
      const core::SsspResult r = sssp.run(3);
      ASSERT_EQ(r.distances.size(), expected.size());
      for (VertexId v = 0; v < expected.size(); ++v) {
        ASSERT_EQ(r.distances[v], expected[v])
            << "vertex " << v << " uniquify " << uniquify << " compress "
            << compress;
      }
    }
  }
}

TEST(UpdateExchange, CcBitExactAndFewerBytesWithUniquify) {
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 56});
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);
  const auto expected = baseline::serial_components(graph::build_host_csr(g));

  std::uint64_t bytes_on = 0, bytes_off = 0;
  for (const bool uniquify : {false, true}) {
    core::CcOptions options;
    options.uniquify = uniquify;
    const core::CcResult r = core::ConnectedComponents(dg, cluster, options).run();
    ASSERT_EQ(r.labels.size(), expected.size());
    for (VertexId v = 0; v < expected.size(); ++v) {
      ASSERT_EQ(r.labels[v], expected[v]) << "vertex " << v << " uniquify "
                                          << uniquify;
    }
    (uniquify ? bytes_on : bytes_off) = r.update_bytes_remote;
  }
  // RMAT dense rounds produce duplicate label candidates per destination;
  // coalescing must strictly shrink the wire volume.
  EXPECT_LT(bytes_on, bytes_off);
}

TEST(UpdateExchange, SsspAutoBiasBitExactAndFewerCompressedBytes) {
  // The automatic wire bias (one min-allreduce of active distances per
  // round) generalizes delta-stepping's bucket-base bias to flat SSSP:
  // distances must stay bit-exact, and the biased varints must strictly
  // shrink the compressed wire volume on a weighted RMAT run whose
  // tentative distances sit far above zero in later rounds.
  const graph::EdgeList g = graph::rmat_graph500({.scale = 9, .seed = 57});
  const graph::HostCsr host = graph::build_host_csr(g);
  sim::ClusterSpec spec;
  spec.num_ranks = 2;
  spec.gpus_per_rank = 2;
  sim::Cluster cluster(spec);
  const graph::DistributedGraph dg = graph::build_distributed(g, spec, 16);

  // Wide hashed weights push tentative distances into multi-byte varint
  // territory, where subtracting the per-round floor pays off.
  constexpr std::uint32_t kWideWeights = 1u << 20;
  const auto expected_wide = baseline::serial_sssp(host, 3, kWideWeights);

  std::uint64_t bytes_biased = 0, bytes_plain = 0;
  for (const bool auto_bias : {false, true}) {
    core::SsspOptions options;
    options.max_weight = kWideWeights;
    options.compress = true;
    options.auto_value_bias = auto_bias;
    core::DistributedSssp sssp(dg, cluster, options);
    const core::SsspResult r = sssp.run(3);
    ASSERT_EQ(r.distances.size(), expected_wide.size());
    for (VertexId v = 0; v < expected_wide.size(); ++v) {
      ASSERT_EQ(r.distances[v], expected_wide[v])
          << "vertex " << v << " auto_bias " << auto_bias;
    }
    (auto_bias ? bytes_biased : bytes_plain) = r.update_bytes_remote;
  }
  EXPECT_LT(bytes_biased, bytes_plain);
}

// ---- malformed-payload corpus ---------------------------------------------
// The wire decoders are public exactly so hostile buffers can be thrown at
// them directly: every entry here must surface as a typed DecodeError, never
// an out-of-bounds read, a hang, or a silently truncated result.

TEST(WireCorpus, FrameRoundTripsAndRejectsTampering) {
  const std::vector<std::uint64_t> payload = {10, 20, 30};
  std::vector<std::uint64_t> framed = frame_payload(payload);
  ASSERT_EQ(framed.size(), payload.size() + 2);
  const auto view = verify_frame(framed);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), payload.begin()));

  for (std::size_t w = 0; w < framed.size(); ++w) {
    for (const std::uint64_t bit : {0, 17, 63}) {
      auto bad = framed;
      bad[w] ^= 1ULL << bit;
      EXPECT_THROW(verify_frame(bad), DecodeError) << "word " << w;
    }
  }
}

TEST(WireCorpus, FrameHeaderEdgeCases) {
  // Too short for the 2-word header.
  EXPECT_THROW(verify_frame({}), DecodeError);
  EXPECT_THROW(verify_frame(std::vector<std::uint64_t>{kFrameMagic << 32}),
               DecodeError);
  // Declared payload length disagrees with the buffer.
  std::vector<std::uint64_t> framed = frame_payload({1, 2});
  framed.push_back(99);
  EXPECT_THROW(verify_frame(framed), DecodeError);
  framed.resize(framed.size() - 2);
  EXPECT_THROW(verify_frame(framed), DecodeError);
  // An empty payload is a legal frame.
  const std::vector<std::uint64_t> empty = frame_payload({});
  EXPECT_TRUE(verify_frame(empty).empty());
}

TEST(WireCorpus, IdSegmentHostileBuffers) {
  std::vector<LocalId> out;
  std::size_t pos = 0;
  // Missing count header.
  EXPECT_THROW(decode_ids({}, pos, out), DecodeError);
  // Count larger than the remaining words.
  pos = 0;
  EXPECT_THROW(decode_ids(std::vector<std::uint64_t>{5, 1}, pos, out),
               DecodeError);
  // Count near 2^64: the words-needed arithmetic must not wrap.
  pos = 0;
  EXPECT_THROW(
      decode_ids(std::vector<std::uint64_t>{~0ULL, 1, 2, 3}, pos, out),
      DecodeError);
  // A valid segment still decodes and advances pos.
  pos = 0;
  out.clear();
  decode_ids(std::vector<std::uint64_t>{3, (2ULL << 32) | 1, 3}, pos, out);
  EXPECT_EQ(out, (std::vector<LocalId>{1, 2, 3}));
  EXPECT_EQ(pos, 3u);
}

TEST(WireCorpus, RawUpdateHostileBuffers) {
  std::vector<VertexUpdate> out;
  // Missing count header.
  EXPECT_THROW(decode_updates_raw({}, out), DecodeError);
  // Truncated body, including the count-overflow probe.
  EXPECT_THROW(decode_updates_raw(std::vector<std::uint64_t>{2, 1, 7}, out),
               DecodeError);
  EXPECT_THROW(decode_updates_raw(std::vector<std::uint64_t>{~0ULL, 1}, out),
               DecodeError);
  // Over-long body (trailing garbage a length-prefixed format must reject).
  EXPECT_THROW(
      decode_updates_raw(std::vector<std::uint64_t>{1, 1, 7, 8}, out),
      DecodeError);
  // A vertex id that overflows the 32-bit local-id space.
  EXPECT_THROW(
      decode_updates_raw(std::vector<std::uint64_t>{1, 1ULL << 33, 7}, out),
      DecodeError);
  out.clear();
  decode_updates_raw(std::vector<std::uint64_t>{1, 4, 7}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vertex, 4u);
  EXPECT_EQ(out[0].value, 7u);
}

TEST(WireCorpus, CompressedUpdateHostileBuffers) {
  std::vector<VertexUpdate> out;
  // Missing / short header.
  EXPECT_THROW(decode_updates_compressed({}, 0, out), DecodeError);
  EXPECT_THROW(
      decode_updates_compressed(std::vector<std::uint64_t>{1}, 0, out),
      DecodeError);
  // Declared byte count disagreeing with the body both ways.
  EXPECT_THROW(
      decode_updates_compressed(std::vector<std::uint64_t>{1, 9, 0}, 0, out),
      DecodeError);
  EXPECT_THROW(
      decode_updates_compressed(std::vector<std::uint64_t>{1, 2, 0, 0}, 0, out),
      DecodeError);
  // Count impossible for the payload size (2 bytes minimum per update).
  EXPECT_THROW(
      decode_updates_compressed(std::vector<std::uint64_t>{4, 4, 0}, 0, out),
      DecodeError);
  // A varint whose continuation bits run off the end of the body.
  EXPECT_THROW(decode_updates_compressed(
                   std::vector<std::uint64_t>{1, 2, 0x8080}, 0, out),
               DecodeError);
  // A varint wider than 64 bits (ten 0x80 continuation bytes, then 0x01).
  EXPECT_THROW(decode_updates_compressed(
                   std::vector<std::uint64_t>{1, 11, 0x8080808080808080ULL,
                                              0x018080},
                   0, out),
               DecodeError);
  // A ten-group varint whose last group carries bits above bit 63: id 0,
  // then nine 0xFF groups and 0x7F.
  EXPECT_THROW(decode_updates_compressed(
                   std::vector<std::uint64_t>{1, 11, 0xFFFFFFFFFFFFFF00ULL,
                                              0x7FFFFF},
                   0, out),
               DecodeError);
  // Declared bytes left over after `count` updates.
  EXPECT_THROW(decode_updates_compressed(
                   std::vector<std::uint64_t>{1, 4, 0x00000506}, 0, out),
               DecodeError);
  // Hand-packed valid payload: updates (3, 5) and (7, 2) -- zigzag deltas
  // 6 and 8, values 5 and 2, four bytes packed LE into one word.
  out.clear();
  decode_updates_compressed(std::vector<std::uint64_t>{2, 4, 0x02080506}, 0,
                            out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].vertex, 3u);
  EXPECT_EQ(out[0].value, 5u);
  EXPECT_EQ(out[1].vertex, 7u);
  EXPECT_EQ(out[1].value, 2u);
  // The same payload with a value bias added back on decode.
  out.clear();
  decode_updates_compressed(std::vector<std::uint64_t>{2, 4, 0x02080506}, 100,
                            out);
  EXPECT_EQ(out[0].value, 105u);
  EXPECT_EQ(out[1].value, 102u);
}


TEST(UpdateExchange, RejectsIncoherentWireOptions) {
  EXPECT_THROW(validate({.adaptive = true}), std::invalid_argument);
  EXPECT_THROW(validate({.gorilla = true}), std::invalid_argument);
  EXPECT_THROW(validate({.adaptive = true, .gorilla = true}),
               std::invalid_argument);
  EXPECT_THROW(validate({.compress = true, .value_bias = 5, .gorilla = true}),
               std::invalid_argument);
  EXPECT_NO_THROW(validate({}));
  EXPECT_NO_THROW(validate({.compress = true, .value_bias = 5}));
  EXPECT_NO_THROW(validate({.compress = true, .adaptive = true}));
  EXPECT_NO_THROW(
      validate({.compress = true, .adaptive = true, .gorilla = true}));
  // The exchange itself rejects the same options before any message moves.
  const sim::ClusterSpec spec;
  Transport t(spec);
  std::vector<std::vector<VertexUpdate>> bins(1);
  bins[0].push_back(VertexUpdate{1, 2});
  ExchangeCounters counters;
  EXPECT_THROW(exchange_updates(t, spec, spec.coord_of(0), bins, 0,
                                {.compress = true, .value_bias = 1,
                                 .gorilla = true},
                                counters),
               std::invalid_argument);
  EXPECT_THROW(exchange_updates(t, spec, spec.coord_of(0), bins, 0,
                                {.adaptive = true}, counters),
               std::invalid_argument);
}

TEST(WireCorpus, GorillaUpdateHostileBuffers) {
  std::vector<VertexUpdate> out;
  // Missing / short header.
  EXPECT_THROW(decode_updates_gorilla({}, out), DecodeError);
  EXPECT_THROW(decode_updates_gorilla(std::vector<std::uint64_t>{1}, out),
               DecodeError);
  // Declared byte count disagreeing with the body both ways.
  EXPECT_THROW(decode_updates_gorilla(std::vector<std::uint64_t>{1, 9, 0}, out),
               DecodeError);
  EXPECT_THROW(
      decode_updates_gorilla(std::vector<std::uint64_t>{1, 2, 0, 0}, out),
      DecodeError);
  // Count impossible for the payload size (1 byte minimum per update).
  EXPECT_THROW(decode_updates_gorilla(std::vector<std::uint64_t>{4, 3, 0}, out),
               DecodeError);
  // Id 0, then only two of the first value's eight bytes.
  EXPECT_THROW(
      decode_updates_gorilla(std::vector<std::uint64_t>{1, 3, 0xBBAA00}, out),
      DecodeError);
  // Ids 0 and 1 (zigzag deltas 0, 2), a zero first value, then control
  // bits '1','0': reuse a window that was never opened.
  EXPECT_THROW(decode_updates_gorilla(
                   std::vector<std::uint64_t>{2, 11, 0x0200, 0x010000}, out),
               DecodeError);
  // Same prefix, control bits '1','1', then lead 63 and length 2: the
  // window runs past bit 64.
  EXPECT_THROW(decode_updates_gorilla(
                   std::vector<std::uint64_t>{2, 12, 0x0200, 0x01FF0000}, out),
               DecodeError);
  // Id 0 and a full first value, then one declared byte left over.
  EXPECT_THROW(
      decode_updates_gorilla(std::vector<std::uint64_t>{1, 10, 0, 0}, out),
      DecodeError);
  // Hand-packed valid payload: updates (3, 1.0) and (7, 1.0) -- zigzag
  // deltas 6 and 8, the 64-bit value, then one '0' repeat bit.
  out.clear();
  decode_updates_gorilla(std::vector<std::uint64_t>{2, 11, 0x0806, 0x3FF0},
                         out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].vertex, 3u);
  EXPECT_EQ(out[0].value, std::bit_cast<std::uint64_t>(1.0));
  EXPECT_EQ(out[1].vertex, 7u);
  EXPECT_EQ(out[1].value, std::bit_cast<std::uint64_t>(1.0));
}

/// splitmix64 over a fixed seed: the mutation corpora are fixed.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t operator()() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
};

/// One random bit-flip, truncation, extension or word-swap mutation.
void mutate(std::vector<std::uint64_t>& w, SplitMix64& rng) {
  switch (rng() % 4) {
    case 0:  // bit flips
      for (std::uint64_t k = 1 + rng() % 3; k > 0 && !w.empty(); --k) {
        w[rng() % w.size()] ^= 1ULL << (rng() % 64);
      }
      break;
    case 1:  // truncation
      w.resize(rng() % (w.size() + 1));
      break;
    case 2:  // extension
      for (std::uint64_t k = 1 + rng() % 3; k > 0; --k) {
        w.push_back(rng() % 2 == 0 ? rng() % 256 : rng());
      }
      break;
    default:  // word swap
      if (w.size() >= 2) {
        const std::size_t a = rng() % w.size();
        std::swap(w[a], w[rng() % w.size()]);
      }
      break;
  }
}

/// Contract of every decoder on any buffer: a typed DecodeError, or a
/// decode yielding the declared count.
void expect_decoders_keep_contract(const std::vector<std::uint64_t>& w) {
  const auto expect_contract = [&w](const char* decoder,
                                    const std::function<std::size_t()>& run) {
    const std::uint64_t declared = w.empty() ? 0 : w[0];
    try {
      EXPECT_EQ(run(), declared) << decoder;
    } catch (const DecodeError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << decoder << " threw an untyped error: " << e.what();
    }
  };
  expect_contract("decode_ids", [&] {
    std::vector<LocalId> ids;
    std::size_t pos = 0;
    decode_ids(w, pos, ids);
    return ids.size();
  });
  expect_contract("decode_updates_raw", [&] {
    std::vector<VertexUpdate> out;
    decode_updates_raw(w, out);
    return out.size();
  });
  expect_contract("decode_updates_compressed", [&] {
    std::vector<VertexUpdate> out;
    decode_updates_compressed(w, 0, out);
    return out.size();
  });
  expect_contract("decode_updates_gorilla", [&] {
    std::vector<VertexUpdate> out;
    decode_updates_gorilla(w, out);
    return out.size();
  });
  try {
    const auto payload = verify_frame(w);
    EXPECT_EQ(payload.size(), w[0] & 0xffffffffULL);
  } catch (const DecodeError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "verify_frame threw an untyped error: " << e.what();
  }
}

TEST(WireCorpus, SeededMutations) {
  // Valid corpus payloads of every format, plus their framed forms.
  std::vector<std::vector<std::uint64_t>> corpus = {
      {3, (2ULL << 32) | 1, 3},      // ids 1, 2, 3
      {1, 4, 7},                     // raw (4, 7)
      {2, 4, 0x02080506},            // delta+varint (3, 5), (7, 2)
      {2, 11, 0x0806, 0x3FF0},       // gorilla (3, 1.0), (7, 1.0)
  };
  const std::size_t payloads = corpus.size();
  for (std::size_t i = 0; i < payloads; ++i) {
    corpus.push_back(frame_payload(corpus[i]));
  }
  SplitMix64 rng{0x5EED};
  for (int round = 0; round < 4000; ++round) {
    std::vector<std::uint64_t> w = corpus[rng() % corpus.size()];
    mutate(w, rng);
    expect_decoders_keep_contract(w);
  }
}

// ---- golden encodings ------------------------------------------------------
// Fixed-seed bins covering every branch of both encoders.  The digests were
// captured from the byte-at-a-time codec the word-at-a-time one replaced,
// so a pass means the wire did not move.

/// PageRank-like contributions: ascending ids, doubles of a few nearby
/// binades with random mantissas, about a quarter repeating their
/// predecessor.  Built from integer bits only, so no float rounding mode or
/// contraction can move the golden words.
std::vector<VertexUpdate> pagerank_like_bin(std::uint64_t seed,
                                            std::size_t n) {
  SplitMix64 rng{seed};
  std::vector<VertexUpdate> bin;
  LocalId id = 0;
  for (std::size_t i = 0; i < n; ++i) {
    id += static_cast<LocalId>(1 + rng() % 40);
    const std::uint64_t exponent = 1013 + rng() % 6;
    std::uint64_t value = (exponent << 52) | (rng() & ((1ULL << 52) - 1));
    if (i > 0 && rng() % 4 == 0) value = bin.back().value;
    bin.push_back(VertexUpdate{id, value});
  }
  return bin;
}

/// SSSP-like lane words: four 16-bit distance lanes per word at or above
/// `bias` in every lane, some lanes unreached (0xFFFF).
std::vector<VertexUpdate> sssp_lane_bin(std::uint64_t seed, std::size_t n,
                                        std::uint16_t bias) {
  SplitMix64 rng{seed};
  std::vector<VertexUpdate> bin;
  LocalId id = 0;
  for (std::size_t i = 0; i < n; ++i) {
    id += static_cast<LocalId>(1 + rng() % 300);
    std::uint64_t word = 0;
    for (int lane = 0; lane < 4; ++lane) {
      const std::uint64_t r = rng();
      const std::uint64_t d = r % 5 == 0 ? 0xFFFF : bias + r % 900;
      word |= d << (16 * lane);
    }
    bin.push_back(VertexUpdate{id, word});
  }
  return bin;
}

struct GoldenBin {
  const char* name;
  std::vector<VertexUpdate> bin;
  std::uint64_t value_bias;  // varint only; Gorilla takes none
};

std::vector<GoldenBin> golden_bins() {
  std::vector<GoldenBin> out;
  out.push_back({"pagerank_doubles", pagerank_like_bin(0xC0DEC, 300), 0});
  // Repeats ('0'), window reuse ('10') and window re-opens ('11').
  {
    std::vector<VertexUpdate> bin;
    const std::uint64_t xors[] = {0,           0,          0xF0ULL << 20,
                                  0x30ULL << 20, 0x90ULL << 20, 0,
                                  0x1ULL << 40, 0x3ULL << 40, 0x5ULL << 50,
                                  0x7ULL << 50};
    std::uint64_t v = std::bit_cast<std::uint64_t>(0.125);
    for (LocalId i = 0; i < 40; ++i) {
      v ^= xors[i % 10];
      bin.push_back(VertexUpdate{3 * i, v});
    }
    out.push_back({"repeats_and_window_reuse", bin, 0});
  }
  // x = 0x8000000000000001: lead 0, trail 0, a full 64-bit window, reused.
  out.push_back({"window_lead0_len64",
                 {{0, 0}, {1, 0x8000000000000001ULL}, {2, 0},
                  {3, 0x8000000000000001ULL}, {4, ~0ULL}},
                 0});
  // x = 1: lead 63, a 1-bit window, then reused.
  out.push_back({"window_lead63",
                 {{5, 0}, {6, 1}, {7, 0}, {8, 1}, {9, 1}, {10, 0}}, 0});
  out.push_back({"empty", {}, 0});
  out.push_back({"single", {{7, std::bit_cast<std::uint64_t>(0.25)}}, 0});
  // 57 one-byte id deltas (456 bits), a 64-bit first value and 56 repeat
  // bits: the Gorilla stream fills exactly 9 words.
  {
    std::vector<VertexUpdate> bin;
    for (LocalId i = 0; i < 57; ++i) bin.push_back(VertexUpdate{i, 42});
    out.push_back({"gorilla_ends_on_word", bin, 0});
  }
  // Four one-byte id deltas and four one-byte values: the varint stream
  // fills exactly one word.
  out.push_back(
      {"varint_ends_on_word", {{1, 5}, {2, 6}, {3, 7}, {4, 8}}, 0});
  // Ids at the top of the 32-bit space, a descent to 0 and back (34-bit
  // zigzag deltas), and 64-bit extreme values.
  out.push_back({"ids_near_2pow32",
                 {{0xFFFFFF00u, 1},
                  {0xFFFFFFFEu, 0},
                  {0xFFFFFFFFu, ~0ULL},
                  {0, 1ULL << 63},
                  {0xFFFFFFFFu, 2},
                  {0x7FFFFFFFu, 0x0123456789ABCDEFULL}},
                 0});
  out.push_back({"sssp_lane_words", sssp_lane_bin(0x55, 250, 120),
                 0x0078007800780078ULL});
  return out;
}

TEST(WireCorpus, GoldenEncodings) {
  struct Golden {
    std::size_t words;
    std::uint64_t bytes;
    std::uint64_t digest;  // frame_checksum of the payload words
  };
  // {varint, gorilla} per bin of golden_bins(), in order.
  const std::pair<Golden, Golden> expected[] = {
      {{377, 3000, 0x7ded4c48fb840160ULL}, {239, 1895, 0x4d59a40a14d14bc7ULL}},
      {{52, 400, 0x3bc369b5babf72ebULL}, {14, 91, 0x139f78900f9a51e8ULL}},
      {{7, 37, 0x9fd55ed3742739f3ULL}, {8, 48, 0xa40880e32ba0df86ULL}},
      {{4, 12, 0xc99628a7642bf9e5ULL}, {5, 18, 0x61a0d53cb1b09b8dULL}},
      {{2, 0, 0x69da0f2b571338f4ULL}, {2, 0, 0x69da0f2b571338f4ULL}},
      {{4, 10, 0x70d5fe1ec331e45cULL}, {4, 9, 0xb3f36da5c61fa9d2ULL}},
      {{17, 114, 0x791af3baf400c47cULL}, {11, 72, 0xb4a985c44d6329caULL}},
      {{3, 8, 0xff92a433cc4aa75fULL}, {5, 17, 0xea4daa16f2556e48ULL}},
      {{9, 55, 0x8d17fad8fba9cde0ULL}, {11, 68, 0x436c1226e390da31ULL}},
      {{337, 2680, 0x2c96863341ba21b2ULL}, {316, 2505, 0xd6c1904a870f501fULL}},
  };
  const std::vector<GoldenBin> bins = golden_bins();
  ASSERT_EQ(bins.size(), std::size(expected));
  const auto check = [](const char* name, const char* format,
                        const std::vector<std::uint64_t>& words,
                        const Golden& want) {
    ASSERT_GE(words.size(), 2u) << name << " " << format;
    EXPECT_EQ(words.size(), want.words) << name << " " << format;
    EXPECT_EQ(words[1], want.bytes) << name << " " << format;
    EXPECT_EQ(frame_checksum(words), want.digest) << name << " " << format;
  };
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const GoldenBin& g = bins[i];
    const auto varint = encode_updates_compressed(g.bin, g.value_bias);
    const auto gorilla = encode_updates_gorilla(g.bin);
    check(g.name, "varint", varint, expected[i].first);
    check(g.name, "gorilla", gorilla, expected[i].second);
    // Both round-trip, and a leading flag slot shifts the payload intact.
    std::vector<VertexUpdate> back;
    decode_updates_compressed(varint, g.value_bias, back);
    decode_updates_gorilla(gorilla, back);
    ASSERT_EQ(back.size(), 2 * g.bin.size()) << g.name;
    for (std::size_t k = 0; k < g.bin.size(); ++k) {
      for (const VertexUpdate& got : {back[k], back[g.bin.size() + k]}) {
        EXPECT_EQ(got.vertex, g.bin[k].vertex) << g.name << " record " << k;
        EXPECT_EQ(got.value, g.bin[k].value) << g.name << " record " << k;
      }
    }
    std::vector<std::uint64_t> flagged = {0};
    flagged.insert(flagged.end(), gorilla.begin(), gorilla.end());
    EXPECT_EQ(encode_updates_gorilla(g.bin, 1), flagged) << g.name;
    flagged.resize(1);
    flagged.insert(flagged.end(), varint.begin(), varint.end());
    EXPECT_EQ(encode_updates_compressed(g.bin, g.value_bias, 1), flagged)
        << g.name;
  }
}

TEST(WireCorpus, SeededMutationsLargePayloads) {
  // Valid multi-word payloads of both encoded formats (200+ records, so
  // varints and Gorilla fields straddle word boundaries), plus their
  // framed forms, under the same mutations and contract as above.
  std::vector<std::vector<std::uint64_t>> corpus;
  for (const auto& bin : {pagerank_like_bin(0xB16, 240),
                          sssp_lane_bin(0xB17, 220, 0)}) {
    ASSERT_GE(bin.size(), 200u);
    corpus.push_back(encode_updates_compressed(bin, 0));
    corpus.push_back(encode_updates_gorilla(bin));
  }
  const std::size_t payloads = corpus.size();
  for (std::size_t i = 0; i < payloads; ++i) {
    corpus.push_back(frame_payload(corpus[i]));
  }
  SplitMix64 rng{0x1A46E};
  for (int round = 0; round < 4000; ++round) {
    std::vector<std::uint64_t> w = corpus[rng() % corpus.size()];
    mutate(w, rng);
    expect_decoders_keep_contract(w);
  }
}

}  // namespace
}  // namespace dsbfs::comm

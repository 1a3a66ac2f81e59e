#include "util/bitset.hpp"

#include <gtest/gtest.h>

#include "util/lane_value_slab.hpp"

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

namespace dsbfs::util {
namespace {

TEST(Bitset, StartsEmpty) {
  AtomicBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(b.test(i));
}

TEST(Bitset, SetReturnsTrueOnlyOnFirstFlip) {
  AtomicBitset b(64);
  EXPECT_TRUE(b.set(7));
  EXPECT_FALSE(b.set(7));
  EXPECT_TRUE(b.test(7));
  EXPECT_EQ(b.count(), 1u);
}

TEST(Bitset, SetAcrossWordBoundaries) {
  AtomicBitset b(130);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(129);
  EXPECT_EQ(b.count(), 4u);
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(128));
}

TEST(Bitset, WordCountRounding) {
  EXPECT_EQ(AtomicBitset(0).word_count(), 0u);
  EXPECT_EQ(AtomicBitset(1).word_count(), 1u);
  EXPECT_EQ(AtomicBitset(64).word_count(), 1u);
  EXPECT_EQ(AtomicBitset(65).word_count(), 2u);
  EXPECT_EQ(AtomicBitset(65).byte_size(), 16u);
}

TEST(Bitset, OrWithMergesBits) {
  AtomicBitset a(200), b(200);
  a.set(3);
  a.set(150);
  b.set(150);
  b.set(199);
  a.or_with(b);
  EXPECT_TRUE(a.test(3));
  EXPECT_TRUE(a.test(150));
  EXPECT_TRUE(a.test(199));
  EXPECT_EQ(a.count(), 3u);
  // b unchanged
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset, DiffIntoExtractsNewBits) {
  AtomicBitset next(128), prev(128), out(128);
  prev.set(1);
  prev.set(64);
  next.set(1);
  next.set(64);
  next.set(65);
  next.set(100);
  AtomicBitset::diff_into(next, prev, out);
  EXPECT_FALSE(out.test(1));
  EXPECT_FALSE(out.test(64));
  EXPECT_TRUE(out.test(65));
  EXPECT_TRUE(out.test(100));
  EXPECT_EQ(out.count(), 2u);
}

TEST(Bitset, DiffIntoOverwritesStaleOutput) {
  AtomicBitset next(64), prev(64), out(64);
  out.set(5);  // stale content must be cleared
  next.set(9);
  AtomicBitset::diff_into(next, prev, out);
  EXPECT_FALSE(out.test(5));
  EXPECT_TRUE(out.test(9));
}

TEST(Bitset, ForEachSetVisitsExactlySetBits) {
  AtomicBitset b(300);
  const std::vector<std::size_t> bits{0, 1, 63, 64, 65, 127, 128, 255, 299};
  for (const auto i : bits) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, bits);  // ascending order by construction
}

TEST(Bitset, ClearAllResets) {
  AtomicBitset b(128);
  b.set(2);
  b.set(127);
  b.clear_all();
  EXPECT_TRUE(b.none());
}

TEST(Bitset, CopyIsDeep) {
  AtomicBitset a(64);
  a.set(10);
  AtomicBitset b = a;
  b.set(20);
  EXPECT_TRUE(a.test(10));
  EXPECT_FALSE(a.test(20));
  EXPECT_TRUE(b.test(10));
  EXPECT_TRUE(b.test(20));
}

TEST(Bitset, EqualityComparesContent) {
  AtomicBitset a(64), b(64), c(65);
  a.set(3);
  b.set(3);
  EXPECT_TRUE(a == b);
  b.set(4);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);  // different sizes
}

TEST(Bitset, WordLevelAccess) {
  AtomicBitset b(128);
  b.set_word(1, 0xff00ULL);
  EXPECT_TRUE(b.test(64 + 8));
  EXPECT_EQ(b.word(1), 0xff00ULL);
  b.or_word(1, 0x1ULL);
  EXPECT_EQ(b.word(1), 0xff01ULL);
}

TEST(Bitset, ConcurrentSetsAreLossless) {
  // The delegate visit kernels set bits from several GPU threads at once;
  // every set must land.
  AtomicBitset b(1 << 16);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&b, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < (1 << 16);
           i += kThreads) {
        b.set(i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(b.count(), static_cast<std::size_t>(1 << 16));
}

TEST(Bitset, ConcurrentSetSameBitsCountOnce) {
  AtomicBitset b(1024);
  std::atomic<std::size_t> first_flips{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      std::size_t mine = 0;
      for (std::size_t i = 0; i < 1024; ++i) mine += b.set(i) ? 1 : 0;
      first_flips.fetch_add(mine);
    });
  }
  for (auto& th : threads) th.join();
  // Exactly one thread wins each bit.
  EXPECT_EQ(first_flips.load(), 1024u);
  EXPECT_EQ(b.count(), 1024u);
}

class BitsetSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitsetSizes, CountMatchesSetPattern) {
  const std::size_t n = GetParam();
  AtomicBitset b(n);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < n; i += 3) {
    b.set(i);
    ++expected;
  }
  EXPECT_EQ(b.count(), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitsetSizes,
                         ::testing::Values(1, 2, 63, 64, 65, 127, 128, 129,
                                           1000, 4096));

// ---- lane-generalized interface (batched MS-BFS substrate) ---------------

TEST(LaneBitset, WidthOneIsTheClassicMask) {
  LaneBitset b(100);  // default width 1
  EXPECT_EQ(b.lane_bits(), 1);
  EXPECT_EQ(b.lane_mask(), 1u);
  EXPECT_EQ(b.word_count(), 2u);  // identical layout to AtomicBitset(100)
  b.set(42);
  EXPECT_EQ(b.lanes(42), 1u);
  EXPECT_EQ(b.or_lanes(7, 1), 0u);
  EXPECT_TRUE(b.test(7));
}

TEST(LaneBitset, LayoutPacksLanesWithoutStraddling) {
  for (const int w : {1, 8, 32, 64}) {
    LaneBitset b(100, w);
    EXPECT_EQ(b.lane_bits(), w);
    EXPECT_EQ(b.word_count(), (100u * static_cast<std::size_t>(w) + 63) / 64);
    EXPECT_EQ(b.byte_size(), b.word_count() * 8);
  }
}

TEST(LaneBitset, OrLanesReturnsPreviousWord) {
  LaneBitset b(10, 8);
  EXPECT_EQ(b.or_lanes(3, 0b0011), 0u);       // first touch
  EXPECT_EQ(b.or_lanes(3, 0b0110), 0b0011u);  // previous word back
  EXPECT_EQ(b.lanes(3), 0b0111u);
  EXPECT_EQ(b.lanes(2), 0u);  // neighbors untouched
  EXPECT_EQ(b.lanes(4), 0u);
  EXPECT_EQ(b.count(), 3u);
  EXPECT_EQ(b.count_nonzero_items(), 1u);
}

TEST(LaneBitset, WidthSpecializedAccessorsMatchTheRuntimeWidth) {
  // The compile-time W = 1 accessors the single-source kernels use read and
  // write exactly what the runtime-width ones do.
  LaneBitset one(130);
  EXPECT_EQ(one.or_lanes<1>(65, 1), 0u);
  EXPECT_EQ(one.or_lanes<1>(65, 1), 1u);
  EXPECT_EQ(one.lanes<1>(65), one.lanes(65));
  EXPECT_EQ(one.lanes<1>(64), 0u);
  EXPECT_EQ(one.or_lanes_unsynchronized<1>(129, 1), 0u);
  EXPECT_EQ(one.or_lanes_unsynchronized<1>(129, 1), 1u);
  EXPECT_TRUE(one.test(129));
  std::vector<std::pair<std::size_t, std::uint64_t>> seen;
  one.for_each_nonzero_lanes<1>(
      [&](std::size_t v, std::uint64_t w) { seen.emplace_back(v, w); });
  EXPECT_EQ(seen, (std::vector<std::pair<std::size_t, std::uint64_t>>{
                      {65, 1}, {129, 1}}));

  // The unsynchronized OR returns the previous word like or_lanes and
  // leaves the neighbors sharing its storage word untouched.
  LaneBitset wide(10, 8);
  EXPECT_EQ(wide.or_lanes_unsynchronized(3, 0b0011), 0u);
  EXPECT_EQ(wide.or_lanes_unsynchronized(3, 0b0110), 0b0011u);
  EXPECT_EQ(wide.or_lanes_unsynchronized(3, 0b0010), 0b0111u);  // no new bit
  EXPECT_EQ(wide.lanes(3), 0b0111u);
  EXPECT_EQ(wide.lanes(2), 0u);
  EXPECT_EQ(wide.lanes(4), 0u);
}

TEST(LaneBitset, FullWidthLanesRoundTrip) {
  LaneBitset b(5, 64);
  const std::uint64_t word = 0xdeadbeefcafef00dULL;
  EXPECT_EQ(b.or_lanes(4, word), 0u);
  EXPECT_EQ(b.lanes(4), word);
  EXPECT_EQ(b.lane_mask(), ~0ULL);
}

TEST(LaneBitset, WordOpsAreLaneAgnostic) {
  // The two-phase mask reduce ORs words; lanes must merge transparently.
  LaneBitset a(6, 8), b(6, 8), diff(6, 8);
  a.or_lanes(0, 0x0f);
  b.or_lanes(0, 0xf0);
  b.or_lanes(5, 0x01);
  a.or_with(b);
  EXPECT_EQ(a.lanes(0), 0xffu);
  EXPECT_EQ(a.lanes(5), 0x01u);
  LaneBitset prev(6, 8);
  prev.or_lanes(0, 0x0f);
  LaneBitset::diff_into(a, prev, diff);
  EXPECT_EQ(diff.lanes(0), 0xf0u);
  EXPECT_EQ(diff.lanes(5), 0x01u);
}

TEST(LaneBitset, ForEachNonzeroLanesVisitsOccupiedItems) {
  LaneBitset b(50, 32);
  b.or_lanes(1, 5);
  b.or_lanes(49, 1u << 31);
  std::vector<std::pair<std::size_t, std::uint64_t>> seen;
  b.for_each_nonzero_lanes(
      [&](std::size_t v, std::uint64_t w) { seen.emplace_back(v, w); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<std::size_t, std::uint64_t>{1, 5}));
  EXPECT_EQ(seen[1],
            (std::pair<std::size_t, std::uint64_t>{49, 1ULL << 31}));
}

TEST(LaneBitset, ConcurrentOrLanesLossless) {
  // Two threads OR disjoint lane sets of the same items; every bit must
  // land and first-touch must be claimed exactly once per item.
  LaneBitset b(256, 8);
  std::atomic<int> first_touches{0};
  auto worker = [&](std::uint64_t lanes) {
    for (std::size_t v = 0; v < 256; ++v) {
      if (b.or_lanes(v, lanes) == 0) first_touches.fetch_add(1);
    }
  };
  std::thread t1(worker, 0x0f);
  std::thread t2(worker, 0xf0);
  t1.join();
  t2.join();
  for (std::size_t v = 0; v < 256; ++v) EXPECT_EQ(b.lanes(v), 0xffu);
  EXPECT_EQ(first_touches.load(), 256);
}

TEST(LaneBitset, ClearLanesSweepsOnlyTheNamedLanes) {
  // 8-bit lanes, 100 items: set a distinct pattern per item, clear lanes
  // {0, 5}, and verify the other lanes survive untouched item by item.
  LaneBitset b(100, 8);
  for (std::size_t v = 0; v < 100; ++v) {
    b.or_lanes(v, (v % 2 == 0) ? 0x21u : 0xc1u);  // all include lane 0
  }
  const std::size_t cleared = b.clear_lanes((1u << 0) | (1u << 5));
  // Every item loses lane 0; the even items lose lane 5 too.
  EXPECT_EQ(cleared, 100u + 50u);
  for (std::size_t v = 0; v < 100; ++v) {
    EXPECT_EQ(b.lanes(v), (v % 2 == 0) ? 0x00u : 0xc0u) << "item " << v;
  }
  // Clearing lanes that hold no bits is a no-op.
  EXPECT_EQ(b.clear_lanes(0x3f), 0u);
  // Bits outside the lane mask are ignored entirely.
  LaneBitset w1(64, 1);
  for (std::size_t v = 0; v < 64; ++v) w1.or_lanes(v, 1);
  EXPECT_EQ(w1.clear_lanes(~1ULL), 0u);
  EXPECT_EQ(w1.count(), 64u);
  EXPECT_EQ(w1.clear_lanes(1), 64u);
  EXPECT_TRUE(w1.none());
}

TEST(LaneBitset, ClearLanesFullWidth) {
  LaneBitset b(5, 64);
  b.or_lanes(2, ~0ULL);
  b.or_lanes(4, 1ULL << 63);
  EXPECT_EQ(b.clear_lanes(1ULL << 63), 2u);
  EXPECT_EQ(b.lanes(2), ~0ULL >> 1);
  EXPECT_EQ(b.lanes(4), 0u);
}

TEST(LaneBitset, LaneWidthForQuantizesToSupportedWidths) {
  EXPECT_EQ(lane_width_for(1), 1);
  EXPECT_EQ(lane_width_for(2), 8);
  EXPECT_EQ(lane_width_for(3), 8);
  EXPECT_EQ(lane_width_for(8), 8);
  EXPECT_EQ(lane_width_for(9), 32);
  EXPECT_EQ(lane_width_for(32), 32);
  EXPECT_EQ(lane_width_for(33), 64);
  EXPECT_EQ(lane_width_for(64), 64);
}

TEST(LaneValueSlab, ResizePacksLanesAndFillRaisesToInfinity) {
  LaneValueSlab s;
  s.resize(10, 12, 16);  // 12 lanes of 16 bits: 4 lanes/word, 3 words/item
  EXPECT_EQ(s.items(), 10u);
  EXPECT_EQ(s.lanes(), 12);
  EXPECT_EQ(s.value_bits(), 16);
  EXPECT_EQ(s.lanes_per_word(), 4);
  EXPECT_EQ(s.groups_per_item(), 3u);
  EXPECT_EQ(s.value_mask(), 0xFFFFu);
  EXPECT_EQ(s.word_count(), 30u);
  EXPECT_EQ(s.byte_size(), 240u);
  // resize zero-fills (the sum identity); min-combined users raise to the
  // sentinel explicitly.
  EXPECT_EQ(s.get(0, 0), 0u);
  s.fill(s.value_mask());
  for (std::size_t i = 0; i < 10; ++i) {
    for (int lane = 0; lane < 12; ++lane) {
      EXPECT_TRUE(s.is_infinite(i, lane));
      EXPECT_EQ(s.get(i, lane), s.value_mask());
    }
  }
}

TEST(LaneValueSlab, MinLaneKeepsSmallestAndReportsImprovement) {
  LaneValueSlab s;
  s.resize(4, 8, 8);
  s.fill(s.value_mask());
  EXPECT_TRUE(s.min_lane(2, 3, 100));
  EXPECT_FALSE(s.min_lane(2, 3, 100));  // equal is not an improvement
  EXPECT_FALSE(s.min_lane(2, 3, 200));
  EXPECT_TRUE(s.min_lane(2, 3, 99));
  EXPECT_EQ(s.get(2, 3), 99u);
  // Neighboring lanes in the same word are untouched.
  EXPECT_TRUE(s.is_infinite(2, 2));
  EXPECT_TRUE(s.is_infinite(2, 4));
}

TEST(LaneValueSlab, AddLaneWrapsWithinTheLaneWidth) {
  LaneValueSlab s;
  s.resize(2, 4, 16);
  s.add_lane(0, 1, 70000);  // wraps mod 2^16
  EXPECT_EQ(s.get(0, 1), 70000u & 0xFFFF);
  // Neighboring lanes in the same word keep their zero identity.
  EXPECT_EQ(s.get(0, 0), 0u);
  EXPECT_EQ(s.get(0, 2), 0u);
}

TEST(LaneValueSlab, WordLevelMinMatchesLaneLevel) {
  LaneValueSlab a, b;
  a.resize(3, 8, 8);
  b.resize(3, 8, 8);
  a.fill(a.value_mask());
  b.fill(b.value_mask());
  for (int lane = 0; lane < 8; ++lane) {
    a.set(1, lane, static_cast<std::uint64_t>(10 + lane));
    b.min_lane(1, lane, static_cast<std::uint64_t>(10 + lane));
  }
  // Folding a's packed word into a fresh slab reproduces per-lane mins,
  // and the improved-lane mask flags exactly the lanes that moved.
  LaneValueSlab c;
  c.resize(3, 8, 8);
  c.fill(c.value_mask());
  c.set(1, 2, 5);  // already better than a's 12
  const std::uint64_t improved = c.min_item_word(1, 0, a.word(1 * 1));
  EXPECT_EQ(improved, 0xFFu & ~(1u << 2));
  for (int lane = 0; lane < 8; ++lane) {
    EXPECT_EQ(c.get(1, lane), lane == 2 ? 5u : 10u + lane);
  }
  EXPECT_EQ(a, b);
}

TEST(LaneValueSlab, StaticLaneMinAndAddOperateLaneWise) {
  const std::uint64_t x = LaneValueSlab::replicate(7, 16);
  const std::uint64_t y = LaneValueSlab::replicate(9, 16);
  EXPECT_EQ(LaneValueSlab::lane_min_word(x, y, 16), x);
  EXPECT_EQ(LaneValueSlab::lane_add_word(x, y, 16),
            LaneValueSlab::replicate(16, 16));
  // Sentinel lanes stay sentinel under min.
  const std::uint64_t inf = ~0ULL;
  EXPECT_EQ(LaneValueSlab::lane_min_word(inf, y, 16), y);
  // Replicate masks wide inputs down to the lane width.
  EXPECT_EQ(LaneValueSlab::replicate(0x1FFFF, 16),
            LaneValueSlab::replicate(0xFFFF, 16));
}

TEST(LaneValueSlab, FillAndEqualityCoverAllWidths) {
  for (const int bits : {8, 16, 32, 64}) {
    LaneValueSlab s;
    s.resize(5, 3, bits);
    s.fill(1);
    for (std::size_t i = 0; i < 5; ++i) {
      for (int lane = 0; lane < 3; ++lane) EXPECT_EQ(s.get(i, lane), 1u);
    }
    LaneValueSlab t = s;  // copyable despite atomic words
    EXPECT_EQ(s, t);
    t.set(4, 2, 2);
    EXPECT_FALSE(s == t);
  }
}

}  // namespace
}  // namespace dsbfs::util

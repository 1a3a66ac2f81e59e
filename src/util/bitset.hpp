#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

/// Concurrent fixed-size lane bitset used for delegate visited masks and,
/// more generally, any per-item W-bit state that is communicated by
/// word-level OR reduction.
///
/// The paper stores the visited status of every delegate in a
/// 1-bit-per-vertex mask (Section IV-A) and communicates it by OR-reduction
/// (Section V-A).  MS-BFS-style batched traversals generalize that mask to a
/// *lane word* per item: W concurrent sources each own one bit of every
/// item's word, and one OR still merges all of them at once (the Section
/// VI-D "more bits of state for delegates" direction).  LaneBitset supports
/// both uses with one layout: item `v` occupies bits [v*W, (v+1)*W) of a
/// packed word array, W in {1, 2, 4, 8, 16, 32, 64} so a lane word never
/// straddles a storage word, and W = 1 is bit-identical to the historic
/// single-source mask (AtomicBitset remains as an alias for that use).
///
/// Three access patterns coexist:
///   * concurrent per-bit `set()` / per-item `or_lanes()` from visit kernels
///     (relaxed atomic fetch_or),
///   * word-level bulk operations for reduction/broadcast (or_with, diff) --
///     lane-width agnostic, which is what keeps the two-phase mask reduce
///     unchanged across widths,
///   * read-only tests from backward-pull kernels against a *stable*
///     snapshot.
namespace dsbfs::util {

/// Template argument of the width-specialized lane accessors that selects
/// the runtime lane width (LaneBitset::lane_bits()).
inline constexpr int kAnyWidth = 0;

class LaneBitset {
 public:
  LaneBitset() = default;
  /// `items` entries of `lane_bits` bits each; lane_bits must divide 64.
  explicit LaneBitset(std::size_t items, int lane_bits = 1) {
    resize(items, lane_bits);
  }

  LaneBitset(const LaneBitset& other) { copy_from(other); }
  LaneBitset& operator=(const LaneBitset& other) {
    if (this != &other) copy_from(other);
    return *this;
  }
  LaneBitset(LaneBitset&&) noexcept = default;
  LaneBitset& operator=(LaneBitset&&) noexcept = default;

  void resize(std::size_t items, int lane_bits = 1);

  /// Item count (== bit count at the historic W = 1).
  std::size_t size() const noexcept { return items_; }
  int lane_bits() const noexcept { return lane_bits_; }
  /// All-ones mask of one lane word.
  std::uint64_t lane_mask() const noexcept { return lane_mask_; }
  std::size_t word_count() const noexcept {
    return (items_ * static_cast<std::size_t>(lane_bits_) + 63) / 64;
  }
  /// Bytes occupied by the payload (what communication would transmit) --
  /// scales with the lane width: ceil(items * W / 8) rounded to words.
  std::size_t byte_size() const noexcept { return word_count() * 8; }

  // ---- flat-bit interface (the W = 1 mask API) --------------------------

  /// Set bit i.  Returns true when this call flipped it from 0 to 1.
  bool set(std::size_t i) noexcept {
    const std::uint64_t mask = 1ULL << (i & 63);
    const std::uint64_t prev =
        words_[i >> 6].v.fetch_or(mask, std::memory_order_relaxed);
    return (prev & mask) == 0;
  }

  /// Non-atomic set for single-threaded construction phases.
  void set_unsynchronized(std::size_t i) noexcept {
    words_[i >> 6].v.store(
        words_[i >> 6].v.load(std::memory_order_relaxed) | (1ULL << (i & 63)),
        std::memory_order_relaxed);
  }

  bool test(std::size_t i) const noexcept {
    return (words_[i >> 6].v.load(std::memory_order_relaxed) >> (i & 63)) & 1;
  }

  // ---- lane interface ----------------------------------------------------
  // The hot accessors take the lane width as a template argument: W = 1
  // reads one bit per item (no multiply by the width, no lane-mask load),
  // kAnyWidth reads the runtime width.  A positive W must equal lane_bits().

  /// Item v's lane word (bits [v*W, (v+1)*W) right-aligned).
  template <int W = kAnyWidth>
  std::uint64_t lanes(std::size_t v) const noexcept {
    const std::size_t bit = v * width<W>();
    return (words_[bit >> 6].v.load(std::memory_order_relaxed) >> (bit & 63)) &
           mask<W>();
  }

  /// Atomically OR `bits` (right-aligned, must fit the lane) into item v's
  /// lane word; returns the lane word *before* the OR, so callers can
  /// compute newly-set bits (`bits & ~prev`) and first-touch (`prev == 0`).
  template <int W = kAnyWidth>
  std::uint64_t or_lanes(std::size_t v, std::uint64_t bits) noexcept {
    const std::size_t bit = v * width<W>();
    const std::uint64_t prev = words_[bit >> 6].v.fetch_or(
        bits << (bit & 63), std::memory_order_relaxed);
    return (prev >> (bit & 63)) & mask<W>();
  }

  /// or_lanes for single-threaded phases (previsits, seeding, and a word
  /// only one kernel writes): a plain read before the OR, and a store only
  /// when a bit is new -- no atomic read-modify-write.
  template <int W = kAnyWidth>
  std::uint64_t or_lanes_unsynchronized(std::size_t v,
                                        std::uint64_t bits) noexcept {
    const std::size_t bit = v * width<W>();
    auto& word = words_[bit >> 6].v;
    const std::uint64_t stored = word.load(std::memory_order_relaxed);
    const std::uint64_t prev = (stored >> (bit & 63)) & mask<W>();
    if ((bits & ~prev) != 0) {
      word.store(stored | (bits << (bit & 63)), std::memory_order_relaxed);
    }
    return prev;
  }

  void clear_all() noexcept {
    for (auto& w : words_) w.v.store(0, std::memory_order_relaxed);
  }

  /// Clear lane `bits` (right-aligned lane word) of *every* item in one
  /// word-level sweep -- what lane recycling uses to hand a retired lane's
  /// visited state to a new occupant without touching the other lanes.
  /// Single-threaded use only (iteration boundaries).  Returns the number
  /// of bits cleared.
  std::size_t clear_lanes(std::uint64_t bits) noexcept;

  std::uint64_t word(std::size_t w) const noexcept {
    return words_[w].v.load(std::memory_order_relaxed);
  }
  void set_word(std::size_t w, std::uint64_t value) noexcept {
    words_[w].v.store(value, std::memory_order_relaxed);
  }
  void or_word(std::size_t w, std::uint64_t value) noexcept {
    if (value != 0) words_[w].v.fetch_or(value, std::memory_order_relaxed);
  }

  /// this |= other  (word-parallel; item counts and widths must match).
  void or_with(const LaneBitset& other) noexcept;

  /// Number of set bits (across all lanes).
  std::size_t count() const noexcept;

  /// Number of items with at least one lane bit set (frontier occupancy;
  /// equals count() at W = 1).
  std::size_t count_nonzero_items() const noexcept;

  /// True when no bit is set.
  bool none() const noexcept;

  /// Writes, into `out`, the bits set in `next` but not in `prev`
  /// (out = next & ~prev).  All three must share size and width.  This
  /// extracts "newly visited delegates" (or newly occupied lanes) after a
  /// mask reduction.
  static void diff_into(const LaneBitset& next, const LaneBitset& prev,
                        LaneBitset& out) noexcept;

  /// Call `fn(index)` for every set bit (flat bit indices).
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    const std::size_t nw = word_count();
    for (std::size_t w = 0; w < nw; ++w) {
      std::uint64_t bitsv = word(w);
      while (bitsv != 0) {
        const int b = __builtin_ctzll(bitsv);
        fn(w * 64 + static_cast<std::size_t>(b));
        bitsv &= bitsv - 1;
      }
    }
  }

  /// Call `fn(item, lane_word)` for every item with a nonzero lane word.
  /// Skips zero storage words outright (64/W items at a time), so sparse
  /// rounds cost one load per word like the W = 1 for_each_set scan, which
  /// is what the W = 1 instantiation runs.
  template <int W = kAnyWidth, typename Fn>
  void for_each_nonzero_lanes(Fn&& fn) const {
    if constexpr (W == 1) {
      for_each_set([&](std::size_t i) { fn(i, std::uint64_t{1}); });
    } else {
      const std::size_t w = width<W>();
      const std::size_t per_word = 64 / w;
      const std::size_t nw = word_count();
      for (std::size_t wi = 0; wi < nw; ++wi) {
        const std::uint64_t stored = word(wi);
        if (stored == 0) continue;
        const std::size_t base = wi * per_word;
        for (std::size_t j = 0; j < per_word && base + j < items_; ++j) {
          const std::uint64_t lane_word = (stored >> (j * w)) & mask<W>();
          if (lane_word != 0) fn(base + j, lane_word);
        }
      }
    }
  }

  bool operator==(const LaneBitset& other) const noexcept;

 private:
  // std::atomic is not copyable; wrap it so vector works, and copy manually.
  struct Word {
    std::atomic<std::uint64_t> v{0};
    Word() = default;
    Word(std::uint64_t x) : v(x) {}
    Word(const Word& o) : v(o.v.load(std::memory_order_relaxed)) {}
    Word(Word&& o) noexcept : v(o.v.load(std::memory_order_relaxed)) {}
    Word& operator=(const Word& o) {
      v.store(o.v.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
  };

  template <int W>
  std::size_t width() const noexcept {
    if constexpr (W == kAnyWidth) {
      return static_cast<std::size_t>(lane_bits_);
    } else {
      return W;
    }
  }
  template <int W>
  std::uint64_t mask() const noexcept {
    if constexpr (W == kAnyWidth) {
      return lane_mask_;
    } else if constexpr (W == 64) {
      return ~0ULL;
    } else {
      return (1ULL << W) - 1;
    }
  }

  void copy_from(const LaneBitset& other) {
    items_ = other.items_;
    lane_bits_ = other.lane_bits_;
    lane_mask_ = other.lane_mask_;
    words_ = other.words_;
  }

  std::size_t items_ = 0;
  int lane_bits_ = 1;
  std::uint64_t lane_mask_ = 1;
  std::vector<Word> words_;
};

/// Historic name for the 1-bit-per-vertex use (delegate visited masks,
/// subgraph source masks); every W = 1 call pattern is unchanged.
using AtomicBitset = LaneBitset;

/// Smallest supported lane width that fits `lanes` concurrent lanes.
int lane_width_for(std::size_t lanes) noexcept;

}  // namespace dsbfs::util

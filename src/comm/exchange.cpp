#include "comm/exchange.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <string>

#include "util/hash.hpp"
#include "util/lane_value_slab.hpp"

namespace dsbfs::comm {

namespace {

/// Pack 32-bit ids two per 64-bit word with a count header.  The 4-bytes-
/// per-vertex wire format is what makes the paper's 4|Enn| communication
/// volume hold; tests check the transport byte counters against it.
std::vector<std::uint64_t> pack_ids(const std::vector<LocalId>& ids) {
  std::vector<std::uint64_t> out;
  out.reserve(1 + (ids.size() + 1) / 2);
  out.push_back(ids.size());
  for (std::size_t i = 0; i + 1 < ids.size(); i += 2) {
    out.push_back(static_cast<std::uint64_t>(ids[i]) |
                  (static_cast<std::uint64_t>(ids[i + 1]) << 32));
  }
  if (ids.size() % 2 == 1) {
    out.push_back(static_cast<std::uint64_t>(ids.back()));
  }
  return out;
}

/// Coalesce candidates sharing a destination vertex with the bin's combine;
/// leaves the bin sorted by vertex id.  `lane_value_bits` is the sub-lane
/// width of the kLaneMin/kLaneSum packed words (ignored by the scalar
/// combines).
void coalesce_bin(std::vector<VertexUpdate>& bin, UpdateCombine combine,
                  int lane_value_bits) {
  if (bin.size() < 2) return;
  std::sort(bin.begin(), bin.end(),
            [](const VertexUpdate& a, const VertexUpdate& b) {
              return a.vertex < b.vertex;
            });
  std::size_t out = 0;
  for (std::size_t i = 0; i < bin.size();) {
    VertexUpdate u = bin[i++];
    for (; i < bin.size() && bin[i].vertex == u.vertex; ++i) {
      if (combine == UpdateCombine::kMin) {
        u.value = std::min(u.value, bin[i].value);
      } else if (combine == UpdateCombine::kOr) {
        u.value |= bin[i].value;
      } else if (combine == UpdateCombine::kLaneMin) {
        u.value = util::LaneValueSlab::lane_min_word(u.value, bin[i].value,
                                                     lane_value_bits);
      } else if (combine == UpdateCombine::kLaneSum) {
        u.value = util::LaneValueSlab::lane_add_word(u.value, bin[i].value,
                                                     lane_value_bits);
      } else {  // kSumDouble
        u.value = std::bit_cast<std::uint64_t>(
            std::bit_cast<double>(u.value) + std::bit_cast<double>(bin[i].value));
      }
    }
    bin[out++] = u;
  }
  bin.resize(out);
}

// ---- bit stream of the encoded update formats -----------------------------
// Both encoded formats ship [count, byte_count, stream], the stream one
// little-endian bit stream packed into whole words: bit k of it is bit
// k % 64 of body word k / 64, and byte_count is its length rounded up to
// whole bytes.  Ids travel as zigzag varint deltas from the previous id
// (ascending after coalescing, so deltas are small non-negatives); a varint
// is a run of byte-aligned 8-bit groups.  Delta+varint interleaves each id
// with its value as a plain varint; Gorilla writes every id first, then the
// values as bit fields straight after the last id byte.

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// A varint's continuation bits when its groups sit one per byte of a word.
constexpr std::uint64_t kVarintMore = 0x8080808080808080ULL;

/// Spread the low 56 bits of `v` into eight 7-bit groups, one per byte.
std::uint64_t spread7(std::uint64_t v) {
  v = ((v & 0x00FFFFFFF0000000ULL) << 4) | (v & 0x000000000FFFFFFFULL);
  v = ((v & 0x0FFFC0000FFFC000ULL) << 2) | (v & 0x00003FFF00003FFFULL);
  return ((v & 0x3F803F803F803F80ULL) << 1) | (v & 0x007F007F007F007FULL);
}

/// Inverse of spread7: the 7 low bits of each byte, concatenated.
std::uint64_t gather7(std::uint64_t v) {
  v &= 0x7F7F7F7F7F7F7F7FULL;
  v = ((v & 0x7F007F007F007F00ULL) >> 1) | (v & 0x007F007F007F007FULL);
  v = ((v & 0x3FFF00003FFF0000ULL) >> 2) | (v & 0x00003FFF00003FFFULL);
  return ((v & 0x0FFFFFFF00000000ULL) >> 4) | (v & 0x000000000FFFFFFFULL);
}

/// Writes the stream through a 64-bit accumulator straight into payload
/// words.  With kWrite = false it only counts the bits, so an encoder runs
/// once to size its payload exactly and once to fill it (encode_stream).
template <bool kWrite>
class BitWriter {
 public:
  /// `out` is the first stream word (unused when only counting).
  explicit BitWriter(std::uint64_t* out = nullptr) : cur_(out) {}

  void varint(std::uint64_t v) {
    if constexpr (!kWrite) {  // 1..10 groups, counted without a branch
      const int groups = (std::bit_width(v | 1) + 6) / 7;
      bits_ += 8 * static_cast<std::uint64_t>(groups);
      return;
    }
    if (v < 0x80) {  // one group: the common id delta
      put(v, 8);
      return;
    }
    if ((v >> 56) != 0) {  // eight full groups, then the top 8 bits
      put(spread7(v) | kVarintMore, 64);
      v >>= 56;
    }
    const int groups = (std::bit_width(v | 1) + 6) / 7;  // 1..8
    put(spread7(v) | (kVarintMore & ((1ULL << (8 * groups - 8)) - 1)),
        8 * groups);
  }

  void id(LocalId v) {
    varint(zigzag(static_cast<std::int64_t>(v) - prev_id_));
    prev_id_ = static_cast<std::int64_t>(v);
  }

  /// Append the `n` (1..64) bits of `v`, least significant first; `v` must
  /// have no bits set at or above bit `n`.  Branch-free: field widths vary
  /// with the data, so a word-full branch would mispredict.
  void put(std::uint64_t v, int n) {
    if constexpr (!kWrite) {
      bits_ += static_cast<std::uint64_t>(n);
    } else {
      acc_ |= v << fill_;
      *cur_ = acc_;  // the open word, complete or not
      const bool full = fill_ + n >= 64;
      // The bits of `v` past the open word: v >> (64 - fill_), spelled so
      // a field that starts a word (fill_ = 0) shifts by at most 63.
      const std::uint64_t carry = (v >> 1) >> (63 - fill_);
      cur_ += full ? 1 : 0;
      acc_ = full ? carry : acc_;
      fill_ = (fill_ + n) & 63;
    }
  }

  /// Store the open word's carried-over bits, if any.
  void flush() {
    if constexpr (kWrite) {
      if (fill_ > 0) *cur_ = acc_;
    }
  }

  std::uint64_t bits() const { return bits_; }

 private:
  std::uint64_t* cur_;
  std::uint64_t acc_ = 0;  // the open word's bits below `fill_`
  int fill_ = 0;
  std::uint64_t bits_ = 0;
  std::int64_t prev_id_ = 0;
};

/// An encoded payload at its exact size: `lead_words` zero words for the
/// caller (the adaptive flag), [count, byte_count], then the stream that
/// `emit(writer)` writes -- run once over a counting writer to size it.
template <class Emit>
std::vector<std::uint64_t> encode_stream(std::uint64_t count,
                                         std::size_t lead_words,
                                         const Emit& emit) {
  BitWriter<false> sizer;
  emit(sizer);
  const std::uint64_t bits = sizer.bits();
  std::vector<std::uint64_t> words(lead_words + 2 + (bits + 63) / 64);
  words[lead_words] = count;
  words[lead_words + 1] = (bits + 7) / 8;
  BitWriter<true> writer(words.data() + lead_words + 2);
  emit(writer);
  writer.flush();
  return words;
}

/// Validate an encoded payload's [count, byte_count] header against its
/// body; returns the declared byte count.  `format` names the payload in
/// errors; every record of it takes at least `min_record_bytes` bytes.
std::uint64_t stream_bytes(std::span<const std::uint64_t> words,
                           const char* format,
                           std::uint64_t min_record_bytes) {
  if (words.size() < 2) {
    throw DecodeError(std::string(format) +
                      " update payload missing its 2-word header");
  }
  const std::uint64_t count = words[0];
  const std::uint64_t bytes = words[1];
  const std::uint64_t body_words = words.size() - 2;
  // The byte count must land inside the final word: both a short body and
  // trailing whole words of garbage are rejected.
  if (bytes > body_words * 8 ||
      (body_words > 0 && bytes <= (body_words - 1) * 8)) {
    throw DecodeError(std::string(format) + " payload length mismatch: " +
                      std::to_string(bytes) + " declared bytes vs " +
                      std::to_string(body_words) + " body words");
  }
  if (count > bytes / min_record_bytes) {
    throw DecodeError(std::string(format) + " update count " +
                      std::to_string(count) + " exceeds its " +
                      std::to_string(bytes) + "-byte payload");
  }
  return bytes;
}

/// Bounds-checked reader of the same stream, straight out of the word
/// buffer.  Construction validates the header; every read past the declared
/// bytes throws DecodeError.
class BitReader {
 public:
  BitReader(std::span<const std::uint64_t> words, const char* format,
            std::uint64_t min_record_bytes)
      : format_(format),
        end_(8 * stream_bytes(words, format, min_record_bytes)),
        count_(words[0]),
        body_(words.subspan(2)) {}

  std::uint64_t count() const { return count_; }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    if (end_ - pos_ >= 64) {  // up to eight groups from one 64-bit field
      // One or two groups (id deltas, small values) are the common cases:
      // predicted branches keep the next read's position off the data, and
      // one group needs only the word it starts in (varints precede every
      // bit field, so they start on a byte boundary).
      const std::uint64_t first = body_[pos_ / 64] >> (pos_ % 64);
      if ((first & 0x80) == 0) {
        pos_ += 8;
        return first & 0x7f;
      }
      const std::uint64_t w = peek(64);
      if ((w & 0x8000) == 0) {
        pos_ += 16;
        return (w & 0x7f) | ((w >> 1) & 0x3f80);
      }
      const std::uint64_t stops = ~w & kVarintMore;
      const int groups = stops != 0 ? std::countr_zero(stops) / 8 + 1 : 8;
      v = gather7(groups == 8 ? w : w & ((1ULL << (8 * groups)) - 1));
      pos_ += static_cast<std::uint64_t>(8 * groups);
      if (stops != 0) return v;
      shift = 56;
    }
    for (;; shift += 7) {
      if (end_ - pos_ < 8) throw DecodeError("varint truncated");
      const std::uint64_t b = take(8);
      // The tenth group holds bit 63 alone.
      if (shift == 63 && b > 1) throw DecodeError("varint wider than 64 bits");
      v |= (b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
  }

  LocalId id() {
    // Unsigned: delta arithmetic wraps mod 2^64.
    prev_id_ += static_cast<std::uint64_t>(unzigzag(varint()));
    if ((prev_id_ >> 32) != 0) {
      throw DecodeError("decoded vertex id overflows 32 bits");
    }
    return static_cast<LocalId>(prev_id_);
  }

  /// Read `n` (1..64) bits.
  std::uint64_t bits(int n) {
    if (static_cast<std::uint64_t>(n) > end_ - pos_) {
      throw DecodeError(std::string(format_) + " bit stream truncated");
    }
    return take(n);
  }

  /// Throws unless the reads consumed exactly the declared bytes.
  void expect_end() const {
    if ((pos_ + 7) / 8 != end_ / 8) {
      throw DecodeError(std::string(format_) + " payload has trailing bytes");
    }
  }

 private:
  /// The `n` (1..64) bits at the read position, already bounds-checked: two
  /// word loads and one mask.  The second load is clamped to the last word;
  /// a field that fits its word masks whatever that load brought in.
  std::uint64_t peek(int n) const {
    const std::size_t w = static_cast<std::size_t>(pos_ / 64);
    const int off = static_cast<int>(pos_ % 64);
    const std::uint64_t lo = body_[w];
    const std::uint64_t hi = body_[std::min(w + 1, body_.size() - 1)];
    // lo >> off | hi << (64 - off), with no shift by 64 when off = 0.
    const std::uint64_t v = (lo >> off) | ((hi << 1) << (63 - off));
    return v & (~0ULL >> (64 - n));
  }

  std::uint64_t take(int n) {
    const std::uint64_t v = peek(n);
    pos_ += static_cast<std::uint64_t>(n);
    return v;
  }

  const char* format_;
  std::uint64_t end_;  // declared stream length in bits (validated first)
  std::uint64_t count_;
  std::span<const std::uint64_t> body_;
  std::uint64_t pos_ = 0;  // bits consumed
  std::uint64_t prev_id_ = 0;
};

/// The raw [count, id/value pairs] payload behind `lead_words` zero words.
std::vector<std::uint64_t> pack_updates_raw(
    std::span<const VertexUpdate> updates, std::size_t lead_words) {
  std::vector<std::uint64_t> words(lead_words + 1 + updates.size() * 2);
  words[lead_words] = updates.size();
  std::size_t pos = lead_words + 1;
  for (const VertexUpdate& u : updates) {
    words[pos++] = u.vertex;
    words[pos++] = u.value;
  }
  return words;
}

// ---- wire codecs ----------------------------------------------------------
// One codec per record type owns its wire format end to end: the per-bin
// coalesce and its counters, whether forwarding hops may merge segments
// from several origins, encode/decode, and `peek`, which reads only a
// payload's headers.  Logical bytes follow the historic counting rules
// (4 B per id, record_bytes per raw update, the encoded byte count when
// encoded; flag and count words are not counted).  The flat exchange and
// the multi-hop router are templates over the codec.

struct Encoded {
  std::vector<std::uint64_t> words;
  std::uint64_t bytes = 0;  // logical payload bytes
};

struct PayloadSize {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;  // logical payload bytes
};

/// The bare-id wire (paper Section V-B): pack_ids payloads, with the U
/// option's uniquify as the coalesce.  Cross-source merging is uniquify
/// too, so it only runs when the caller asked for uniquify.
class IdCodec {
 public:
  using Record = LocalId;

  explicit IdCodec(bool uniquify) : uniquify_(uniquify) {}

  bool mergeable() const { return uniquify_; }

  void coalesce(std::vector<LocalId>& bin, ExchangeCounters& c) const {
    if (!uniquify_) return;
    const std::size_t before = bin.size();
    c.uniquify_vertices += before;
    c.uniquify_bytes += before * 4;
    std::sort(bin.begin(), bin.end());
    bin.erase(std::unique(bin.begin(), bin.end()), bin.end());
    c.duplicates_removed += before - bin.size();
  }

  Encoded encode(const std::vector<LocalId>& bin, ExchangeCounters&) const {
    return {pack_ids(bin), bin.size() * 4};
  }

  std::uint64_t decode(std::span<const std::uint64_t> words,
                       std::vector<LocalId>& out) const {
    std::size_t pos = 0;
    decode_ids(words, pos, out);
    if (pos != words.size()) {
      throw DecodeError("id payload has trailing words");
    }
    return words[0] * 4;
  }

  PayloadSize peek(std::span<const std::uint64_t> words) const {
    const std::uint64_t count = words.empty() ? 0 : words[0];
    return {count, count * 4};
  }

 private:
  bool uniquify_;
};

/// The value-update wire: raw (id, value) pairs, delta+varint or Gorilla,
/// and adaptive as a per-bin choice between raw and the encoded form
/// behind a one-word flag.  Cross-source merging runs only for the
/// order-insensitive combines -- kSumDouble's IEEE addition is not
/// associative and kNone promises every candidate, so those forward
/// per-source segments intact.
class UpdateCodec {
 public:
  using Record = VertexUpdate;

  explicit UpdateCodec(const UpdateExchangeOptions& options)
      : combine_(options.combine),
        lane_value_bits_(options.lane_value_bits),
        // 4-byte id + the value field: value_bytes = 8 is the historic
        // (id, 64-bit value) record; lane-word senders narrow it to their
        // batch width (0 at W = 1, the id exchange's bare 4-byte id).
        record_bytes_(4 + static_cast<std::uint64_t>(options.value_bytes)),
        encoding_(!options.compress ? Encoding::kRaw
                  : options.gorilla ? Encoding::kGorilla
                                    : Encoding::kVarint),
        adaptive_(options.adaptive),
        value_bias_(options.value_bias) {
    validate(options);
  }

  bool mergeable() const {
    return combine_ == UpdateCombine::kMin || combine_ == UpdateCombine::kOr ||
           combine_ == UpdateCombine::kLaneMin ||
           combine_ == UpdateCombine::kLaneSum;
  }

  void coalesce(std::vector<VertexUpdate>& bin, ExchangeCounters& c) const {
    if (combine_ == UpdateCombine::kNone) return;
    const std::size_t before = bin.size();
    c.uniquify_vertices += before;
    c.uniquify_bytes += before * record_bytes_;
    coalesce_bin(bin, combine_, lane_value_bits_);
    c.duplicates_removed += before - bin.size();
  }

  Encoded encode(const std::vector<VertexUpdate>& bin,
                 ExchangeCounters& c) const {
    const std::uint64_t raw_bytes = bin.size() * record_bytes_;
    if (encoding_ == Encoding::kRaw) {
      return {pack_updates_raw(bin, 0), raw_bytes};
    }
    // The encode kernel runs either way, so it is charged either way.
    c.encode_bytes += raw_bytes;
    // Adaptive payloads lead with the flag word; its slot is left up front.
    const std::size_t flag = adaptive_ ? 1 : 0;
    Encoded out;
    out.words = encoding_ == Encoding::kGorilla
                    ? encode_updates_gorilla(bin, flag)
                    : encode_updates_compressed(bin, value_bias_, flag);
    out.bytes = out.words[flag + 1];  // encoded byte count
    if (!adaptive_) return out;
    // Trial encode: ship whichever representation is smaller.
    const bool encoded_wins = out.bytes < raw_bytes;
    if (!bin.empty()) ++(encoded_wins ? c.bins_compressed : c.bins_raw);
    if (!encoded_wins) return {pack_updates_raw(bin, 1), raw_bytes};
    out.words[0] = 1;
    return out;
  }

  std::uint64_t decode(std::span<const std::uint64_t> words,
                       std::vector<VertexUpdate>& out) const {
    const auto [encoded, body] = split_flag(words);
    if (!encoded) {
      const std::size_t before = out.size();
      decode_updates_raw(body, out);
      return (out.size() - before) * record_bytes_;
    }
    if (encoding_ == Encoding::kGorilla) {
      decode_updates_gorilla(body, out);
    } else {
      decode_updates_compressed(body, value_bias_, out);
    }
    return body[1];  // validated encoded byte count
  }

  PayloadSize peek(std::span<const std::uint64_t> words) const {
    const auto [encoded, body] = split_flag(words);
    if (body.empty()) {
      throw DecodeError("update payload missing its count header");
    }
    if (!encoded) return {body[0], body[0] * record_bytes_};
    if (body.size() < 2) {
      throw DecodeError("encoded update payload missing its byte count");
    }
    return {body[0], body[1]};
  }

 private:
  enum class Encoding { kRaw, kVarint, kGorilla };

  struct Split {
    bool encoded;
    std::span<const std::uint64_t> body;
  };

  /// Whether a payload is encoded, and its body past the adaptive flag
  /// word -- the one place that flag is parsed.
  Split split_flag(std::span<const std::uint64_t> words) const {
    if (!adaptive_) return {encoding_ != Encoding::kRaw, words};
    if (words.empty()) {
      throw DecodeError("adaptive update payload missing its flag word");
    }
    if (words[0] > 1) {
      throw DecodeError("adaptive update payload has an invalid flag word");
    }
    return {words[0] == 1, words.subspan(1)};
  }

  UpdateCombine combine_;
  int lane_value_bits_;
  std::uint64_t record_bytes_;
  Encoding encoding_;
  bool adaptive_;
  std::uint64_t value_bias_;
};

// ---- framed link ----------------------------------------------------------

/// One GPU's end of the hardened wire for one exchange call.  Every message
/// of the id and update exchanges goes through it.  On a lossy transport it
/// checksums and frames each send and runs the NACK/retransmit receive
/// loop; on a clean one both are plain transport calls.  It also charges
/// the byte counters, so the frame overhead is added in one place.
class FramedLink {
 public:
  FramedLink(Transport& transport, int me, const sim::RetryPolicy& retry,
             ExchangeCounters& counters)
      : transport_(transport), me_(me), retry_(retry), counters_(counters) {}

  /// Send `words` to GPU `to`, charging `bytes` of logical payload to the
  /// cross-rank send counter when `remote`, else to local_bytes.
  void send(int to, int tag, std::vector<std::uint64_t> words,
            std::uint64_t bytes, bool remote) {
    if (remote) {
      counters_.send_bytes_remote += on_wire(bytes);
      ++counters_.send_dest_ranks;
    } else {
      counters_.local_bytes += on_wire(bytes);
    }
    if (transport_.lossy()) {
      counters_.checksum_bytes += words.size() * sizeof(std::uint64_t);
      words = frame_payload(std::move(words));
    }
    transport_.send(me_, to, tag, std::move(words));
  }

  /// Charge a cross-rank receive of `bytes` logical payload bytes.
  void charge_recv(std::uint64_t bytes) {
    counters_.recv_bytes_remote += on_wire(bytes);
  }

  /// Reliable receive on link (from -> me, tag).  Clean transport: a plain
  /// recv.  Lossy transport: receive frames until one verifies, treating a
  /// lost tombstone as the modeled receive timeout and a framing/checksum
  /// failure as a NACK; each failure charges the current retry window to
  /// recovery_ns, widens it by the backoff factor (capped), and requests a
  /// retransmission of the retained pristine copy.  Throws TransportError
  /// when the retry budget is exhausted.
  std::vector<std::uint64_t> recv(int from, int tag) {
    if (!transport_.lossy()) return transport_.recv(me_, from, tag);
    std::uint64_t window = retry_.timeout_ns;
    const int max_attempts = std::max(1, retry_.max_attempts);
    for (int attempt = 1;; ++attempt) {
      Message m = transport_.recv_message(me_, from, tag);
      // A delayed-but-intact frame still costs its hold-back.
      if (m.delay_ns > 0) counters_.recovery_ns += m.delay_ns;
      if (!m.lost) {
        if (m.words.size() > 2) {
          counters_.checksum_bytes +=
              (m.words.size() - 2) * sizeof(std::uint64_t);
        }
        try {
          verify_frame(m.words);
          // Drain duplicate copies already queued on this link; a duplicated
          // attempt enqueues both copies atomically, so none can trail in,
          // and each logical frame owns its (from, to, tag) triple outright.
          while (transport_.probe(me_, from, tag)) {
            transport_.recv_message(me_, from, tag);
          }
          m.words.erase(m.words.begin(), m.words.begin() + 2);
          return std::move(m.words);
        } catch (const DecodeError&) {
          ++counters_.corrupt_bins;
        }
      }
      // Lost (detected at the modeled timeout) or rejected by its checksum:
      // charge the wait, then ask the sender for the retained copy.
      counters_.recovery_ns += window;
      window = std::min<std::uint64_t>(
          retry_.max_backoff_ns,
          static_cast<std::uint64_t>(static_cast<double>(window) *
                                     retry_.backoff));
      const auto link = [&] {
        return "(from=" + std::to_string(from) + ", to=" +
               std::to_string(me_) + ", tag=" + std::to_string(tag) + ")";
      };
      if (attempt >= max_attempts) {
        throw TransportError(
            "hardened exchange: retry budget exhausted on link " + link() +
            " after " + std::to_string(max_attempts) + " attempts");
      }
      ++counters_.retries;
      if (!transport_.retransmit(from, me_, tag)) {
        throw TransportError(
            "hardened exchange: no retained frame to retransmit on link " +
            link());
      }
    }
  }

 private:
  /// Logical bytes plus the 16-byte frame, which exists only on a lossy
  /// transport.
  std::uint64_t on_wire(std::uint64_t bytes) const {
    return bytes + (transport_.lossy() ? kFrameOverheadBytes : 0);
  }

  Transport& transport_;
  int me_;
  const sim::RetryPolicy& retry_;
  ExchangeCounters& counters_;
};

// ---- flat exchange --------------------------------------------------------

/// One point-to-point all-to-all round among `peers` (global GPU ids;
/// `bins[i]` is bound for `peers[i]`, and the entry that is this GPU is the
/// loopback bin, which never hits a wire and is left to the receiver's
/// fold).  Every other bin is coalesced, encoded and sent; the result is
/// the loopback bin followed by every peer's payload in peer order.  Bins
/// are consumed.
template <class Codec>
std::vector<typename Codec::Record> flat_exchange(
    FramedLink& link, const sim::ClusterSpec& spec, sim::GpuCoord me,
    std::span<const int> peers,
    std::vector<std::vector<typename Codec::Record>>& bins, int tag,
    const Codec& codec, ExchangeCounters& counters) {
  const int me_global = spec.global_gpu(me);
  const auto remote = [&](int g) { return spec.coord_of(g).rank != me.rank; };
  std::vector<typename Codec::Record> received;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    auto& bin = bins[i];
    if (peers[i] == me_global) {
      received = std::move(bin);
    } else {
      codec.coalesce(bin, counters);
      Encoded e = codec.encode(bin, counters);
      link.send(peers[i], tag, std::move(e.words), e.bytes, remote(peers[i]));
    }
    bin.clear();
  }
  for (const int g : peers) {
    if (g == me_global) continue;
    const std::uint64_t bytes = codec.decode(link.recv(g, tag), received);
    if (remote(g)) link.charge_recv(bytes);
  }
  return received;
}

// ---- multi-hop (hierarchical / butterfly) routing -------------------------
// Messages between GPUs carry *segments*: per-destination payloads in the
// codec's bin encoding, prefixed with a routing header.  Wire layout:
// [segment_count] then per segment [dest_gpu | (src_gpu << 32)]
// [payload_word_count] [payload words].  src = kMergedSrc marks a segment
// re-coalesced across several origins at a forwarding hop (only done for
// mergeable codecs); per-source segments keep their origin so the final
// receiver can reproduce the flat exchange's source-ordered fold.

constexpr std::uint32_t kMergedSrc = 0xffffffffu;

struct Segment {
  std::uint32_t dest = 0;
  std::uint32_t src = kMergedSrc;
  std::vector<std::uint64_t> words;
};

std::vector<std::uint64_t> pack_segments(const std::vector<Segment>& segs) {
  std::size_t total = 1;
  for (const Segment& s : segs) total += 2 + s.words.size();
  std::vector<std::uint64_t> out;
  out.reserve(total);
  out.push_back(segs.size());
  for (const Segment& s : segs) {
    out.push_back(static_cast<std::uint64_t>(s.dest) |
                  (static_cast<std::uint64_t>(s.src) << 32));
    out.push_back(s.words.size());
    out.insert(out.end(), s.words.begin(), s.words.end());
  }
  return out;
}

std::vector<Segment> unpack_segments(std::span<const std::uint64_t> words,
                                     int total_gpus) {
  if (words.empty()) {
    throw DecodeError("hop message missing its segment count");
  }
  const std::uint64_t count = words[0];
  std::size_t pos = 1;
  if (count > (words.size() - 1) / 2) {
    throw DecodeError("hop message segment count " + std::to_string(count) +
                      " exceeds its " + std::to_string(words.size() - 1) +
                      " body words");
  }
  std::vector<Segment> segs;
  segs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (words.size() - pos < 2) {
      throw DecodeError("hop segment header truncated");
    }
    Segment s;
    s.dest = static_cast<std::uint32_t>(words[pos] & 0xffffffffULL);
    s.src = static_cast<std::uint32_t>(words[pos] >> 32);
    if (s.dest >= static_cast<std::uint32_t>(total_gpus)) {
      throw DecodeError("hop segment destination out of range");
    }
    if (s.src != kMergedSrc &&
        s.src >= static_cast<std::uint32_t>(total_gpus)) {
      throw DecodeError("hop segment source out of range");
    }
    const std::uint64_t len = words[pos + 1];
    pos += 2;
    if (len > words.size() - pos) {
      throw DecodeError("hop segment payload truncated");
    }
    s.words.assign(words.begin() + static_cast<std::ptrdiff_t>(pos),
                   words.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
    segs.push_back(std::move(s));
  }
  if (pos != words.size()) {
    throw DecodeError("hop message has trailing words");
  }
  return segs;
}

/// Records and wire bytes of one hop message by the historic counting
/// rules: an 8-byte segment-count word plus, per segment, 16 bytes of
/// routing header and the codec's logical payload bytes.  The headers are
/// counted because they are the real price of aggregation; the frame
/// overhead is the link's to charge, like on the flat path.
template <class Codec>
PayloadSize message_size(const std::vector<Segment>& segs,
                         const Codec& codec) {
  PayloadSize size{0, 8};
  for (const Segment& s : segs) {
    const PayloadSize p = codec.peek(s.words);
    size.records += p.records;
    size.bytes += 16 + p.bytes;
  }
  return size;
}

/// Re-bin a hop's outgoing segments: deterministic (dest, src) order, and
/// -- when the codec is mergeable -- decode + re-coalesce + re-encode each
/// multi-segment destination group into one merged segment.  This is the
/// per-hop reapplication of the uniquify/compress machinery; the
/// coalesce/encode kernels are charged to the same counters the origin
/// pass uses, because the work really reruns on the forwarding GPU.
template <class Codec>
void rebin_segments(std::vector<Segment>& segs, const Codec& codec,
                    sim::HopCounters& hop, ExchangeCounters& counters) {
  std::stable_sort(segs.begin(), segs.end(),
                   [](const Segment& a, const Segment& b) {
                     return a.dest != b.dest ? a.dest < b.dest : a.src < b.src;
                   });
  if (!codec.mergeable()) return;
  std::vector<Segment> out;
  out.reserve(segs.size());
  for (std::size_t i = 0; i < segs.size();) {
    std::size_t j = i + 1;
    while (j < segs.size() && segs[j].dest == segs[i].dest) ++j;
    if (j == i + 1) {
      out.push_back(std::move(segs[i]));  // already coalesced upstream
    } else {
      std::vector<typename Codec::Record> recs;
      for (std::size_t k = i; k < j; ++k) codec.decode(segs[k].words, recs);
      const std::uint64_t before = recs.size();
      codec.coalesce(recs, counters);
      hop.merged += before - recs.size();
      out.push_back(Segment{segs[i].dest, kMergedSrc,
                            codec.encode(recs, counters).words});
    }
    i = j;
  }
  segs = std::move(out);
}

/// The multi-hop exchange engine shared by the id and update exchanges.
/// Every hop moves each segment one step along its path:
/// Hop 0 (NVLink): every GPU sends one message to each same-node peer
/// carrying the segments destined to that peer plus -- when the peer is the
/// node leader -- all segments bound for other nodes (the gather).  Tag
/// base kTagExchangeLocal.
/// Inter-node hops (IB, leaders only, tag bases kTagExchangeRemote + h):
/// hierarchical sends one aggregated message per other node (1 hop,
/// nodes - 1 partners); butterfly sends exactly one message per hop to the
/// partner leader node XOR (1 << h) (log2(nodes) hops, 1 partner each).
/// Final hop (NVLink): leaders scatter inbound segments to their same-node
/// destinations.  Tag base kTagExchangeLocal + 1.
/// Every message but hop 0's is re-binned before it leaves.  All tags sit
/// in the faultable window, so the hardened wire's NACK/retransmit protects
/// each link of each hop independently (hop-local recovery, never
/// end-to-end).
template <class Codec>
std::vector<typename Codec::Record> multi_hop_exchange(
    FramedLink& link, const sim::ClusterSpec& spec, sim::GpuCoord me,
    std::vector<std::vector<typename Codec::Record>>& bins, int iteration,
    sim::ExchangeTopology topology, const Codec& codec,
    ExchangeCounters& counters) {
  const int p = spec.total_gpus();
  const int me_global = spec.global_gpu(me);
  const int nodes = spec.num_nodes();
  const int my_node = spec.node_of(me_global);
  const int leader = spec.node_leader(my_node);
  const bool is_leader = me_global == leader;
  const bool butterfly = topology == sim::ExchangeTopology::kButterfly;

  int inter_hops = 0;
  if (nodes > 1) {
    if (butterfly) {
      sim::check_routable(topology, nodes);
      while ((1 << inter_hops) < nodes) ++inter_hops;
    } else {
      inter_hops = 1;
    }
  }
  // One entry per hop for every GPU of the round, leaders or not, so the
  // hop trace has identical shape across the cluster (the perf model's
  // bulk-synchronous replay and the golden tests rely on this).
  std::vector<sim::HopCounters> hops(
      static_cast<std::size_t>(1 + inter_hops + (inter_hops > 0 ? 1 : 0)));
  const int last = static_cast<int>(hops.size()) - 1;

  std::vector<int> peers;  // same-node GPUs but me
  for (int j = 0; j < spec.gpus_per_node(my_node); ++j) {
    if (leader + j != me_global) peers.push_back(leader + j);
  }
  std::vector<int> leaders;  // hierarchical partners: every other leader
  for (int m = 0; m < nodes; ++m) {
    if (m != my_node) leaders.push_back(spec.node_leader(m));
  }

  // ---- origin: encode every bin once, exactly like the flat sender ------
  std::vector<typename Codec::Record> received =
      std::move(bins[static_cast<std::size_t>(me_global)]);
  bins[static_cast<std::size_t>(me_global)].clear();
  std::vector<Segment> inbox;  // segments for me, tagged with their origin
  std::vector<Segment> held;   // segments waiting here for their next hop
  for (int dest = 0; dest < p; ++dest) {
    auto& bin = bins[static_cast<std::size_t>(dest)];
    if (dest == me_global || bin.empty()) continue;  // empty: no segment
    codec.coalesce(bin, counters);
    held.push_back(Segment{static_cast<std::uint32_t>(dest),
                           static_cast<std::uint32_t>(me_global),
                           codec.encode(bin, counters).words});
    bin.clear();
  }

  for (int h = 0; h <= last; ++h) {
    sim::HopCounters& hop = hops[static_cast<std::size_t>(h)];
    hop.hop = h;
    hop.internode = h >= 1 && h <= inter_hops;
    std::vector<int> send_to, recv_from;
    int tag = kTagExchangeLocal;
    if (h == 0) {
      send_to = recv_from = peers;
    } else if (h == last) {
      tag = kTagExchangeLocal + 1;
      if (is_leader) {
        send_to = peers;
      } else {
        recv_from = {leader};
      }
    } else {
      tag = kTagExchangeRemote + h - 1;
      if (is_leader) {
        send_to = recv_from =
            butterfly ? std::vector<int>{spec.node_leader(
                            my_node ^ (1 << (h - 1)))}
                      : leaders;
      }
    }
    tag += iteration * kTagBlock;
    // The next GPU on each held segment's path (me_global: stays here).
    const auto next_gpu = [&](int dest) {
      const int dest_node = spec.node_of(dest);
      if (h == 0) return dest_node == my_node ? dest : leader;
      if (h == last) return dest;
      if (!butterfly) return spec.node_leader(dest_node);
      const int bit = 1 << (h - 1);
      return (dest_node ^ my_node) & bit ? spec.node_leader(my_node ^ bit)
                                         : me_global;
    };
    std::vector<std::vector<Segment>> out(send_to.size());
    std::vector<Segment> stay;
    for (Segment& s : held) {
      const int next = next_gpu(static_cast<int>(s.dest));
      if (next == me_global) {
        stay.push_back(std::move(s));
        continue;
      }
      const auto it = std::find(send_to.begin(), send_to.end(), next);
      if (it == send_to.end()) {
        throw DecodeError("hop " + std::to_string(h) +
                          " segment has no route from this GPU");
      }
      out[static_cast<std::size_t>(it - send_to.begin())].push_back(
          std::move(s));
    }
    held = std::move(stay);
    for (std::size_t i = 0; i < send_to.size(); ++i) {
      std::vector<Segment>& segs = out[i];
      if (h > 0) rebin_segments(segs, codec, hop, counters);
      const PayloadSize size = message_size(segs, codec);
      hop.send_bytes += size.bytes;
      ++hop.partners;
      hop.bins += static_cast<int>(segs.size());
      hop.records += size.records;
      link.send(send_to[i], tag, pack_segments(segs), size.bytes,
                hop.internode);
    }
    for (const int from : recv_from) {
      std::vector<Segment> segs = unpack_segments(link.recv(from, tag), p);
      const std::uint64_t bytes = message_size(segs, codec).bytes;
      hop.recv_bytes += bytes;
      if (hop.internode) link.charge_recv(bytes);
      for (Segment& s : segs) {
        (s.dest == static_cast<std::uint32_t>(me_global) ? inbox : held)
            .push_back(std::move(s));
      }
    }
  }
  if (!held.empty()) {
    throw DecodeError("hop segments left unrouted after the last hop");
  }

  // ---- deliver: loopback first, then origin order, merged segments last --
  // (kMergedSrc sorts after every real GPU id).  This reproduces the flat
  // exchange's receive order exactly for the per-source-preserving modes,
  // which is what keeps non-associative folds (PageRank's double sums)
  // bit-identical across topologies.
  std::stable_sort(inbox.begin(), inbox.end(),
                   [](const Segment& a, const Segment& b) {
                     return a.src < b.src;
                   });
  for (const Segment& s : inbox) codec.decode(s.words, received);
  counters.hops.insert(counters.hops.end(), hops.begin(), hops.end());
  return received;
}

/// The whole-cluster exchange of one codec's bins: the flat all-to-all or
/// the multi-hop router, behind one framed link.
template <class Codec>
std::vector<typename Codec::Record> route_exchange(
    Transport& transport, const sim::ClusterSpec& spec, sim::GpuCoord me,
    std::vector<std::vector<typename Codec::Record>>& bins, int iteration,
    sim::ExchangeTopology topology, const sim::RetryPolicy& retry,
    const Codec& codec, ExchangeCounters& counters) {
  for (const auto& bin : bins) counters.bin_vertices += bin.size();
  FramedLink link(transport, spec.global_gpu(me), retry, counters);
  if (topology != sim::ExchangeTopology::kFlat) {
    return multi_hop_exchange(link, spec, me, bins, iteration, topology, codec,
                              counters);
  }
  std::vector<int> everyone(static_cast<std::size_t>(spec.total_gpus()));
  std::iota(everyone.begin(), everyone.end(), 0);
  return flat_exchange(link, spec, me, everyone, bins,
                       kTagExchangeRemote + iteration * kTagBlock, codec,
                       counters);
}

}  // namespace

void validate(const UpdateExchangeOptions& options) {
  if ((options.adaptive || options.gorilla) && !options.compress) {
    throw std::invalid_argument(
        "update exchange: adaptive and gorilla need compress");
  }
  if (options.gorilla && options.value_bias != 0) {
    throw std::invalid_argument(
        "update exchange: gorilla takes no value_bias");
  }
}

std::uint64_t frame_checksum(std::span<const std::uint64_t> payload) noexcept {
  // Order-sensitive splitmix chain seeded with the length: swapped, moved or
  // bit-flipped words all change the digest.
  std::uint64_t h = util::splitmix64(0x9E3779B97F4A7C15ULL ^ payload.size());
  for (const std::uint64_t w : payload) h = util::splitmix64(h ^ w);
  return h;
}

std::vector<std::uint64_t> frame_payload(std::vector<std::uint64_t> payload) {
  std::vector<std::uint64_t> framed;
  framed.reserve(payload.size() + 2);
  framed.push_back((kFrameMagic << 32) |
                   static_cast<std::uint64_t>(payload.size()));
  framed.push_back(frame_checksum(payload));
  framed.insert(framed.end(), payload.begin(), payload.end());
  return framed;
}

std::span<const std::uint64_t> verify_frame(
    std::span<const std::uint64_t> framed) {
  if (framed.size() < 2) {
    throw DecodeError("frame shorter than its 2-word header");
  }
  if ((framed[0] >> 32) != kFrameMagic) {
    throw DecodeError("bad frame magic");
  }
  const std::uint64_t words = framed[0] & 0xffffffffULL;
  if (words != framed.size() - 2) {
    throw DecodeError("frame length mismatch: header declares " +
                      std::to_string(words) + " payload words, frame holds " +
                      std::to_string(framed.size() - 2));
  }
  const auto payload = framed.subspan(2);
  if (frame_checksum(payload) != framed[1]) {
    throw DecodeError("frame checksum mismatch");
  }
  return payload;
}

void decode_ids(std::span<const std::uint64_t> words, std::size_t& pos,
                std::vector<LocalId>& out) {
  if (pos >= words.size()) {
    throw DecodeError("id segment missing its count header");
  }
  const std::uint64_t count = words[pos++];
  const std::uint64_t need = count / 2 + (count & 1);  // overflow-safe ceil
  if (need > words.size() - pos) {
    throw DecodeError("id segment truncated: count " + std::to_string(count) +
                      " needs " + std::to_string(need) + " words, " +
                      std::to_string(words.size() - pos) + " remain");
  }
  out.reserve(out.size() + count);
  for (std::uint64_t i = 0; i < count; i += 2) {
    const std::uint64_t w = words[pos++];
    out.push_back(static_cast<LocalId>(w & 0xffffffffULL));
    if (i + 1 < count) out.push_back(static_cast<LocalId>(w >> 32));
  }
}

void decode_updates_raw(std::span<const std::uint64_t> words,
                        std::vector<VertexUpdate>& out) {
  if (words.empty()) {
    throw DecodeError("raw update payload missing its count header");
  }
  const std::uint64_t count = words[0];
  if (count > (words.size() - 1) / 2) {
    throw DecodeError("raw update payload truncated: count " +
                      std::to_string(count) + " needs " +
                      std::to_string(count) + " word pairs, " +
                      std::to_string(words.size() - 1) + " words remain");
  }
  if (words.size() - 1 != count * 2) {
    throw DecodeError("raw update payload has trailing words");
  }
  out.reserve(out.size() + count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t id = words[1 + 2 * i];
    if ((id >> 32) != 0) {
      throw DecodeError("raw update vertex id overflows 32 bits");
    }
    out.push_back(VertexUpdate{static_cast<LocalId>(id), words[2 + 2 * i]});
  }
}

std::vector<std::uint64_t> encode_updates_compressed(
    std::span<const VertexUpdate> updates, std::uint64_t value_bias,
    std::size_t lead_words) {
  return encode_stream(updates.size(), lead_words, [&](auto& w) {
    for (const VertexUpdate& u : updates) {
      w.id(u.vertex);
      w.varint(u.value - value_bias);
    }
  });
}

// Gorilla: the XOR-vs-previous scheme of Facebook's Gorilla TSDB, applied
// to the bit-cast 64-bit value stream of one bin: a repeated value costs
// one bit, a value sharing its predecessor's significant-bit window costs
// 2 + window bits, anything else re-opens a window for 14 + window bits.
std::vector<std::uint64_t> encode_updates_gorilla(
    std::span<const VertexUpdate> updates, std::size_t lead_words) {
  return encode_stream(updates.size(), lead_words, [&](auto& w) {
    for (const VertexUpdate& u : updates) w.id(u.vertex);
    if (updates.empty()) return;
    std::uint64_t prev = updates[0].value;
    w.put(prev, 64);
    int win_lead = -1, win_len = 0;  // no window open yet
    for (const VertexUpdate& u : updates.subspan(1)) {
      const std::uint64_t x = u.value ^ prev;
      prev = u.value;
      if (x == 0) {
        w.put(0, 1);
        continue;
      }
      const int lead = std::countl_zero(x);
      const int trail = std::countr_zero(x);
      const int win_trail = 64 - win_lead - win_len;
      if (win_lead >= 0 && lead >= win_lead && trail >= win_trail) {
        w.put(0b01, 2);  // '1' then '0', least significant first
        w.put(x >> win_trail, win_len);
      } else {
        const int len = 64 - lead - trail;
        // '1', '1', the 6-bit lead and the 6-bit length - 1 in one field.
        w.put(0b11 | (static_cast<std::uint64_t>(lead) << 2) |
                  (static_cast<std::uint64_t>(len - 1) << 8),
              14);
        w.put(x >> trail, len);
        win_lead = lead;
        win_len = len;
      }
    }
  });
}

void decode_updates_compressed(std::span<const std::uint64_t> words,
                               std::uint64_t value_bias,
                               std::vector<VertexUpdate>& out) {
  // Every update encodes to at least two bytes (one per varint).
  BitReader r(words, "compressed", 2);
  out.reserve(out.size() + r.count());
  for (std::uint64_t i = 0; i < r.count(); ++i) {
    const LocalId id = r.id();
    out.push_back(VertexUpdate{id, r.varint() + value_bias});
  }
  r.expect_end();
}

void decode_updates_gorilla(std::span<const std::uint64_t> words,
                            std::vector<VertexUpdate>& out) {
  // Every update needs at least one id byte plus one value bit.
  BitReader r(words, "gorilla", 1);
  const std::size_t before = out.size();
  out.reserve(out.size() + r.count());
  for (std::uint64_t i = 0; i < r.count(); ++i) {
    out.push_back(VertexUpdate{r.id(), 0});
  }
  std::uint64_t prev = 0;
  int win_lead = -1, win_len = 0;
  for (std::uint64_t i = 0; i < r.count(); ++i) {
    std::uint64_t v;
    if (i == 0) {
      v = r.bits(64);
    } else if (r.bits(1) == 0) {
      v = prev;
    } else if (r.bits(1) == 0) {
      if (win_lead < 0) {
        throw DecodeError("gorilla stream reuses a window before opening one");
      }
      v = prev ^ (r.bits(win_len) << (64 - win_lead - win_len));
    } else {
      const std::uint64_t header = r.bits(12);  // 6-bit lead, length - 1
      win_lead = static_cast<int>(header & 63);
      win_len = static_cast<int>(header >> 6) + 1;
      if (win_lead + win_len > 64) {
        throw DecodeError("gorilla window exceeds 64 bits");
      }
      v = prev ^ (r.bits(win_len) << (64 - win_lead - win_len));
    }
    out[before + i].value = v;
    prev = v;
  }
  r.expect_end();
}

NormalExchange::NormalExchange(Transport& transport, sim::ClusterSpec spec)
    : transport_(transport), spec_(spec) {}

std::vector<LocalId> NormalExchange::exchange(
    sim::GpuCoord me, std::vector<std::vector<LocalId>>& bins, int iteration,
    const ExchangeOptions& options, ExchangeCounters& counters) {
  const IdCodec codec(options.uniquify);
  if (options.topology != sim::ExchangeTopology::kFlat ||
      !options.local_all2all) {
    return route_exchange(transport_, spec_, me, bins, iteration,
                          options.topology, options.retry, codec, counters);
  }

  // ---- Local all2all: gather my column (GPU index me.gpu of every rank) --
  const int me_global = spec_.global_gpu(me);
  const int local_tag = kTagExchangeLocal + iteration * kTagBlock;
  for (const auto& bin : bins) counters.bin_vertices += bin.size();
  FramedLink link(transport_, me_global, options.retry, counters);

  // Phase A: hand bins for other local GPUs' columns to those GPUs, one
  // [rank, id payload] entry per destination rank.
  for (int lg = 0; lg < spec_.gpus_per_rank; ++lg) {
    if (lg == me.gpu) continue;
    std::vector<std::uint64_t> payload;
    std::uint64_t bytes = 0;
    for (int r = 0; r < spec_.num_ranks; ++r) {
      auto& bin = bins[static_cast<std::size_t>(
          spec_.global_gpu(sim::GpuCoord{r, lg}))];
      const Encoded e = codec.encode(bin, counters);
      payload.push_back(static_cast<std::uint64_t>(r));
      payload.insert(payload.end(), e.words.begin(), e.words.end());
      bytes += e.bytes;
      bin.clear();
    }
    link.send(spec_.global_gpu(sim::GpuCoord{me.rank, lg}), local_tag,
              std::move(payload), bytes, /*remote=*/false);
  }

  // My own column bins stay local.
  std::vector<std::vector<LocalId>> column(
      static_cast<std::size_t>(spec_.num_ranks));
  std::vector<int> column_gpus(static_cast<std::size_t>(spec_.num_ranks));
  for (int r = 0; r < spec_.num_ranks; ++r) {
    const int dest = spec_.global_gpu(sim::GpuCoord{r, me.gpu});
    column_gpus[static_cast<std::size_t>(r)] = dest;
    column[static_cast<std::size_t>(r)] =
        std::move(bins[static_cast<std::size_t>(dest)]);
    bins[static_cast<std::size_t>(dest)].clear();
  }

  // Receive the other local GPUs' contributions to my column.
  for (int lg = 0; lg < spec_.gpus_per_rank; ++lg) {
    if (lg == me.gpu) continue;
    const auto words =
        link.recv(spec_.global_gpu(sim::GpuCoord{me.rank, lg}), local_tag);
    const std::span<const std::uint64_t> span(words);
    std::size_t pos = 0;
    while (pos < span.size()) {
      const std::uint64_t r = span[pos++];
      if (r >= static_cast<std::uint64_t>(spec_.num_ranks)) {
        throw DecodeError("local all2all rank header out of range");
      }
      decode_ids(span, pos, column[static_cast<std::size_t>(r)]);
    }
  }

  // Phase B: the flat exchange strictly within the GPU column; uniquify
  // concentrates on the gathered per-rank bins (the point of L), and my
  // own rank's slice is the loopback.
  return flat_exchange(link, spec_, me, column_gpus, column,
                       kTagExchangeRemote + iteration * kTagBlock, codec,
                       counters);
}

std::vector<VertexUpdate> exchange_updates(
    Transport& transport, const sim::ClusterSpec& spec, sim::GpuCoord me,
    std::vector<std::vector<VertexUpdate>>& bins, int iteration,
    const UpdateExchangeOptions& options, ExchangeCounters& counters) {
  return route_exchange(transport, spec, me, bins, iteration, options.topology,
                        options.retry, UpdateCodec(options), counters);
}

}  // namespace dsbfs::comm

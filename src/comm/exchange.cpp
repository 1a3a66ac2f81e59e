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

// ---- byte stream of the encoded update formats ----------------------------
// Both encoded formats ship [count, byte_count, bytes packed LE into words].
// Ids travel as zigzag varint deltas from the previous id (ascending after
// coalescing, so deltas are small non-negatives).  Delta+varint interleaves
// each id with its value as a plain varint; Gorilla writes every id first,
// then the values as a byte-aligned bit stream.

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

class ByteWriter {
 public:
  explicit ByteWriter(std::size_t reserve_bytes) {
    bytes_.reserve(reserve_bytes);
  }

  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      bytes_.push_back(static_cast<std::uint8_t>(0x80 | (v & 0x7f)));
      v >>= 7;
    }
    bytes_.push_back(static_cast<std::uint8_t>(v));
  }

  void id(LocalId v) {
    varint(zigzag(static_cast<std::int64_t>(v) - prev_id_));
    prev_id_ = static_cast<std::int64_t>(v);
  }

  /// Append the low `n` bits of `v`, least significant first; the bit
  /// stream starts on a fresh byte after the varints.
  void bits(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      if (used_ == 0) bytes_.push_back(0);
      if ((v >> i) & 1) {
        bytes_.back() |= static_cast<std::uint8_t>(1u << used_);
      }
      used_ = (used_ + 1) & 7;
    }
  }

  std::vector<std::uint64_t> finish(std::uint64_t count) const {
    std::vector<std::uint64_t> words;
    words.reserve(2 + (bytes_.size() + 7) / 8);
    words.push_back(count);
    words.push_back(bytes_.size());
    for (std::size_t i = 0; i < bytes_.size(); i += 8) {
      std::uint64_t w = 0;
      for (std::size_t b = 0; b < 8 && i + b < bytes_.size(); ++b) {
        w |= static_cast<std::uint64_t>(bytes_[i + b]) << (8 * b);
      }
      words.push_back(w);
    }
    return words;
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::int64_t prev_id_ = 0;
  int used_ = 0;  // bits used in the last byte (0 = none open)
};

/// Bounds-checked reader of the same stream, straight out of the word
/// buffer.  The constructor validates the header; every read past the
/// declared bytes throws DecodeError.
class ByteReader {
 public:
  /// `format` names the payload in errors; every record of it takes at
  /// least `min_record_bytes` bytes.
  ByteReader(std::span<const std::uint64_t> words, const char* format,
             std::uint64_t min_record_bytes)
      : words_(words), format_(format) {
    if (words.size() < 2) {
      throw DecodeError(std::string(format) +
                        " update payload missing its 2-word header");
    }
    count_ = words[0];
    end_ = words[1];
    const std::uint64_t body_words = words.size() - 2;
    // The byte count must land inside the final word: both a short body and
    // trailing whole words of garbage are rejected.
    if (end_ > body_words * 8 ||
        (body_words > 0 && end_ <= (body_words - 1) * 8)) {
      throw DecodeError(std::string(format) + " payload length mismatch: " +
                        std::to_string(end_) + " declared bytes vs " +
                        std::to_string(body_words) + " body words");
    }
    if (count_ > end_ / min_record_bytes) {
      throw DecodeError(std::string(format) + " update count " +
                        std::to_string(count_) + " exceeds its " +
                        std::to_string(end_) + "-byte payload");
    }
  }

  std::uint64_t count() const { return count_; }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= end_) throw DecodeError("varint truncated");
      if (shift > 63) throw DecodeError("varint wider than 64 bits");
      const std::uint8_t b = byte(pos_++);
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
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

  std::uint64_t bits(int n) {
    std::uint64_t out = 0;
    for (int i = 0; i < n; ++i) {
      if (pos_ >= end_) {
        throw DecodeError(std::string(format_) + " bit stream truncated");
      }
      out |= static_cast<std::uint64_t>((byte(pos_) >> used_) & 1) << i;
      if (++used_ == 8) {
        used_ = 0;
        ++pos_;
      }
    }
    return out;
  }

  /// Throws unless the reads consumed exactly the declared bytes.
  void expect_end() const {
    if (pos_ + (used_ != 0 ? 1 : 0) != end_) {
      throw DecodeError(std::string(format_) + " payload has trailing bytes");
    }
  }

 private:
  std::uint8_t byte(std::uint64_t pos) const {
    return static_cast<std::uint8_t>(words_[2 + pos / 8] >> (8 * (pos % 8)));
  }

  std::span<const std::uint64_t> words_;
  const char* format_;
  std::uint64_t count_ = 0;
  std::uint64_t end_ = 0;
  std::uint64_t pos_ = 0;  // byte offset into the stream
  int used_ = 0;           // bits consumed of the current byte
  std::uint64_t prev_id_ = 0;
};

/// Delta+varint: values as plain varints after subtracting the caller's
/// bias (mod 2^64; the receiver adds it back, so any bias round-trips
/// bit-exactly).
std::vector<std::uint64_t> pack_updates_compressed(
    const std::vector<VertexUpdate>& updates, std::uint64_t value_bias) {
  ByteWriter w(updates.size() * 3);
  for (const VertexUpdate& u : updates) {
    w.id(u.vertex);
    w.varint(u.value - value_bias);
  }
  return w.finish(updates.size());
}

// Gorilla: the XOR-vs-previous scheme of Facebook's Gorilla TSDB, applied
// to the bit-cast 64-bit value stream of one bin: a repeated value costs
// one bit, a value sharing its predecessor's significant-bit window costs
// 2 + window bits, anything else re-opens a window for 14 + window bits.
std::vector<std::uint64_t> pack_updates_gorilla(
    const std::vector<VertexUpdate>& updates) {
  ByteWriter w(updates.size() * 6);
  for (const VertexUpdate& u : updates) w.id(u.vertex);
  std::uint64_t prev = 0;
  int win_lead = -1, win_len = 0;  // no window open yet
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const std::uint64_t v = updates[i].value;
    if (i == 0) {
      w.bits(v, 64);
      prev = v;
      continue;
    }
    const std::uint64_t x = v ^ prev;
    prev = v;
    if (x == 0) {
      w.bits(0, 1);
      continue;
    }
    w.bits(1, 1);
    const int lead = std::countl_zero(x);
    const int trail = std::countr_zero(x);
    const int win_trail = 64 - win_lead - win_len;
    if (win_lead >= 0 && lead >= win_lead && trail >= win_trail) {
      w.bits(0, 1);
      w.bits(x >> win_trail, win_len);
    } else {
      w.bits(1, 1);
      w.bits(static_cast<std::uint64_t>(lead), 6);
      const int len = 64 - lead - trail;
      w.bits(static_cast<std::uint64_t>(len - 1), 6);
      w.bits(x >> trail, len);
      win_lead = lead;
      win_len = len;
    }
  }
  return w.finish(updates.size());
}

std::vector<std::uint64_t> pack_updates_raw(
    const std::vector<VertexUpdate>& updates) {
  std::vector<std::uint64_t> words;
  words.reserve(1 + updates.size() * 2);
  words.push_back(updates.size());
  for (const VertexUpdate& u : updates) {
    words.push_back(u.vertex);
    words.push_back(u.value);
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
    if (encoding_ == Encoding::kRaw) return {pack_updates_raw(bin), raw_bytes};
    // The encode kernel runs either way, so it is charged either way.
    c.encode_bytes += raw_bytes;
    Encoded out;
    out.words = encoding_ == Encoding::kGorilla
                    ? pack_updates_gorilla(bin)
                    : pack_updates_compressed(bin, value_bias_);
    out.bytes = out.words[1];  // encoded byte count
    if (!adaptive_) return out;
    // Trial encode: ship whichever representation is smaller.
    const bool encoded_wins = out.bytes < raw_bytes;
    if (!encoded_wins) out = {pack_updates_raw(bin), raw_bytes};
    if (!bin.empty()) ++(encoded_wins ? c.bins_compressed : c.bins_raw);
    std::vector<std::uint64_t> flagged;
    flagged.reserve(out.words.size() + 1);
    flagged.push_back(encoded_wins ? 1 : 0);
    flagged.insert(flagged.end(), out.words.begin(), out.words.end());
    out.words = std::move(flagged);
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
      if ((nodes & (nodes - 1)) != 0 || nodes > 64) {
        throw std::invalid_argument(
            "butterfly exchange needs a power-of-two node count <= 64, got " +
            std::to_string(nodes) + " nodes");
      }
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

void decode_updates_compressed(std::span<const std::uint64_t> words,
                               std::uint64_t value_bias,
                               std::vector<VertexUpdate>& out) {
  // Every update encodes to at least two bytes (one per varint).
  ByteReader r(words, "compressed", 2);
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
  ByteReader r(words, "gorilla", 1);
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
      win_lead = static_cast<int>(r.bits(6));
      win_len = static_cast<int>(r.bits(6)) + 1;
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

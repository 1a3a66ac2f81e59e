#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

/// Host-side spans recorded by the benchmark around its calls into the
/// library's public functions.  Every span is timed on the steady clock; it
/// is *kept* (name, start, end, parent, operation id) only when the tracer
/// records, so an untraced run pays one clock read per boundary and nothing
/// else.  Kept spans stay in memory and are written once, at the end, as
/// Chrome trace-event JSON next to a second track holding the modeled
/// cluster clock.
namespace e2ebench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Record {
    std::string name;
    double start_us = 0;  // since the tracer was created
    double end_us = 0;
    int parent = -1;        // index into records(), -1 = top level
    std::uint64_t op = 0;   // operation the span belongs to
  };

  /// A modeled-clock interval (ms from the start of the modeled track).
  struct ModeledEvent {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    std::uint64_t op = 0;
  };

  /// An open span; closes on stop() or destruction.  Non-copyable: it
  /// refers to its tracer, which must outlive it.
  class Span {
   public:
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { stop(); }
    /// Close the span (idempotent); returns its duration in ms.
    double stop();

   private:
    friend class Tracer;
    Span(Tracer& tracer, int index);
    Tracer& tracer_;
    int index_;
    Clock::time_point start_;
    double ms_ = -1;
  };

  explicit Tracer(bool recording);

  /// Turn span keeping on or off (a recording tracer can be paused to time
  /// untraced operations in the same run).
  void set_paused(bool paused) noexcept { paused_ = paused; }

  /// Open a span nested in the innermost open one.
  Span open(std::string name, std::uint64_t op);

  void add_modeled(ModeledEvent event);

  const std::vector<Record>& records() const noexcept { return records_; }

  /// Write every kept span and modeled event as Chrome trace-event JSON;
  /// `metadata` is a list of (key, value) strings placed in the file's
  /// top-level "metadata" object.  Returns false if the file cannot be
  /// written.
  bool write_chrome(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

 private:
  double now_us(Clock::time_point t) const;
  /// Self time of each record: its duration minus what its children cover.
  std::vector<double> self_us() const;

  bool recording_;
  bool paused_ = false;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;  // stack of open record indices
  std::vector<ModeledEvent> modeled_;
};

}  // namespace e2ebench

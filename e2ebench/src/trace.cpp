#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace e2ebench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

Tracer::Span::Span(Tracer& tracer, int index)
    : tracer_(tracer), index_(index), start_(Clock::now()) {
  if (index_ >= 0) {
    tracer_.records_[static_cast<std::size_t>(index_)].start_us =
        tracer_.now_us(start_);
  }
}

double Tracer::Span::stop() {
  if (ms_ >= 0) return ms_;
  const Clock::time_point end = Clock::now();
  ms_ = std::chrono::duration<double, std::milli>(end - start_).count();
  if (index_ >= 0) {
    tracer_.records_[static_cast<std::size_t>(index_)].end_us =
        tracer_.now_us(end);
    tracer_.open_.pop_back();
  }
  return ms_;
}

Tracer::Tracer(bool recording)
    : recording_(recording), origin_(Clock::now()) {}

double Tracer::now_us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

Tracer::Span Tracer::open(std::string name, std::uint64_t op) {
  if (!recording_ || paused_) return Span(*this, -1);
  const int index = static_cast<int>(records_.size());
  Record r;
  r.name = std::move(name);
  r.parent = open_.empty() ? -1 : open_.back();
  r.op = op;
  records_.push_back(std::move(r));
  open_.push_back(index);
  return Span(*this, index);
}

void Tracer::add_modeled(ModeledEvent event) {
  if (recording_) modeled_.push_back(std::move(event));
}

std::vector<double> Tracer::self_us() const {
  std::vector<double> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] = records_[i].end_us - records_[i].start_us;
  }
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      self[static_cast<std::size_t>(r.parent)] -= r.end_us - r.start_us;
    }
  }
  return self;
}

bool Tracer::write_chrome(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::vector<double> self = self_us();
  char num[64];
  const auto fmt = [&num](double v) {
    std::snprintf(num, sizeof num, "%.3f", v);
    return std::string(num);
  };
  os << "{\"displayTimeUnit\": \"ms\", \"metadata\": {";
  for (std::size_t i = 0; i < metadata.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(metadata[i].first) << "\": \""
       << json_escape(metadata[i].second) << '"';
  }
  os << "},\n\"traceEvents\": [\n";
  os << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 1, "
        "\"args\": {\"name\": \"host wall clock\"}},\n";
  os << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 2, \"tid\": 1, "
        "\"args\": {\"name\": \"modeled cluster clock\"}}";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    os << ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": \""
       << json_escape(r.name) << "\", \"ts\": " << fmt(r.start_us)
       << ", \"dur\": " << fmt(r.end_us - r.start_us)
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << r.parent
       << ", \"op\": " << r.op << ", \"self_us\": " << fmt(self[i]) << "}}";
  }
  for (const ModeledEvent& e : modeled_) {
    os << ",\n{\"ph\": \"X\", \"pid\": 2, \"tid\": 1, \"name\": \""
       << json_escape(e.name) << "\", \"ts\": " << fmt(e.start_ms * 1e3)
       << ", \"dur\": " << fmt((e.end_ms - e.start_ms) * 1e3)
       << ", \"args\": {\"op\": " << e.op << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace e2ebench

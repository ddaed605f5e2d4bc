#include "perfbench/src/trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const double rank = std::clamp(std::ceil(p / 100.0 * n), 1.0, n);
  return samples[static_cast<std::size_t>(rank) - 1];
}

std::int64_t SelfTime(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> parts;
  for (const Span& c : children) {
    const std::int64_t lo = std::max(c.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(c.end_ns, parent.end_ns);
    if (lo < hi) parts.emplace_back(lo, hi);
  }
  std::sort(parts.begin(), parts.end());
  std::int64_t covered = 0;
  std::int64_t reach = parent.start_ns;
  for (const auto& [lo, hi] : parts) {
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return (parent.end_ns - parent.start_ns) - covered;
}

int Tracer::Begin(const char* name, std::uint64_t request, int parent) {
  const std::int64_t now = Nanos(Clock::now());
  return Record(name, request, parent, now, now);
}

void Tracer::End(int span) { spans_[span].end_ns = Nanos(Clock::now()); }

int Tracer::Record(const char* name, std::uint64_t request, int parent,
                   std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back(Span{name, request, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<std::int64_t> Tracer::SelfTimes() const {
  std::vector<std::vector<Span>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back(s);
  }
  std::vector<std::int64_t> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[i] = SelfTime(spans_[i], children[i]);
  }
  return out;
}

double Tracer::SelfMillis(const char* name) const {
  const std::vector<std::int64_t> self = SelfTimes();
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) == name) total += self[i];
  }
  return static_cast<double>(total) / 1e6;
}

void Tracer::Write(std::ostream& out) const {
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"request\":" << s.request
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

void ResultLine::Add(const std::string& name, double value,
                     const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  metrics_.push_back(Metric{name, value, unit});
}

std::string ResultLine::Json(bool correct, std::uint64_t attempted,
                             std::uint64_t failed) const {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char digits[64];
    // Shortest representation that round-trips: every measured digit.
    const auto res =
        std::to_chars(digits, digits + sizeof(digits), metrics_[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
           "\": {\"value\": " + std::string(digits, res.ptr) +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace perfbench

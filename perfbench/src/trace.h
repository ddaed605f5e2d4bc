// Measurement primitives of the benchmark: exact percentiles over its
// own samples, in-memory spans with self-time accounting, and the
// result line the benchmark prints last.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds of a steady-clock time point since the clock's epoch.
inline std::int64_t Nanos(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// The p-th percentile (0 <= p <= 100) by ceil-rank: the sample at rank
/// ceil(p/100 * n) of the ascending order, rank clamped to [1, n].
/// Sorts `samples` in place; 0 when empty.
double Percentile(std::vector<double>& samples, double p);

/// One timed interval at a layer boundary. Spans of one request share
/// `request`; `parent` indexes the enclosing span (-1 for a root).
struct Span {
  const char* name;
  std::uint64_t request;
  int parent;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// `end - start` of `parent` minus the part of it covered by the union
/// of `children` (which may overlap each other or stick out of it).
std::int64_t SelfTime(const Span& parent, const std::vector<Span>& children);

/// Append-only in-memory span log; written out once the run ends.
class Tracer {
 public:
  /// Opens a span now; close it with End.
  int Begin(const char* name, std::uint64_t request, int parent = -1);
  void End(int span);
  /// Records a span whose bounds were measured elsewhere.
  int Record(const char* name, std::uint64_t request, int parent,
             std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of span `i`.
  std::int64_t Duration(int i) const {
    return spans_[i].end_ns - spans_[i].start_ns;
  }

  /// Self time of every span, indexed like spans().
  std::vector<std::int64_t> SelfTimes() const;

  /// Sum of self times of the spans called `name`, in milliseconds.
  double SelfMillis(const char* name) const;

  /// One JSON object per line: name, request, parent, start/end ns.
  void Write(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request,
             int parent = -1)
      : tracer_(tracer), id_(tracer.Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Named metrics in insertion order, printed as the benchmark's result
/// line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
class ResultLine {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string Json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// a / b, or 0 when b is 0.
inline double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_

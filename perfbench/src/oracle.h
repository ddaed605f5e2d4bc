// Ground truth for the benchmark's answer checks: the skyline of a
// cuboid over the live rows of any epoch the run produced, rebuilt from
// the benchmark's own update log. Update k (1-based, in submission
// order) installs epoch k, because one generator thread submits every
// update and the server applies them in queue order.
#ifndef PERFBENCH_SRC_ORACLE_H_
#define PERFBENCH_SRC_ORACLE_H_

#include <cstdint>
#include <ostream>
#include <vector>

#include "perfbench/src/schedule.h"
#include "src/core/dataset.h"

namespace perfbench {

/// SubspaceSkyline of `v` over the rows `ids` of `rows`, ascending.
std::vector<PointId> SkylineOf(const skyline::Dataset& rows, Subspace v,
                               std::vector<PointId> ids);

class EpochOracle {
 public:
  /// `updates` in submission order.
  EpochOracle(const skyline::Dataset& initial,
              const std::vector<const Op*>& updates);

  /// Ids live at `epoch`, ascending.
  std::vector<PointId> LiveIds(std::uint64_t epoch) const;

  /// SubspaceSkyline of `v` over the rows live at `epoch`, ascending.
  std::vector<PointId> Skyline(Subspace v, std::uint64_t epoch) const;

 private:
  std::size_t initial_points_;
  /// Every row ever inserted (ids are stable across epochs).
  skyline::Dataset rows_;
  /// Epoch at which an initial point was removed; 0 = never.
  std::vector<std::uint64_t> removed_at_;
  /// First inserted id of each update, plus one past the last.
  std::vector<PointId> inserted_from_;
};

/// One response to verify: the answer the server gave for `v`, which it
/// reported exact at `epoch`.
struct AnswerCheck {
  std::uint64_t request;
  Subspace v;
  std::uint64_t epoch;
  std::vector<PointId> got;
};

/// Compares every check against the oracle, computing each distinct
/// (cuboid, epoch) once on up to `threads` threads. Returns the number
/// of mismatches and describes each on `err`.
std::size_t VerifyAnswers(const EpochOracle& oracle,
                          const std::vector<AnswerCheck>& checks,
                          unsigned threads, std::ostream& err);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ORACLE_H_

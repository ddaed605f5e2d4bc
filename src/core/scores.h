// Monotone scoring functions used by sorting-based skyline algorithms.
//
// A sorting function f is admissible for skyline presorting when
// f(p) < f(q) implies q does not dominate p (Section 2 of the paper).
// All functions here are monotone in that sense on non-negative data; kSum
// is monotone on arbitrary data and is the library default.
#ifndef SKYLINE_CORE_SCORES_H_
#define SKYLINE_CORE_SCORES_H_

#include <string_view>
#include <vector>

#include "src/core/dataset.h"
#include "src/core/types.h"

namespace skyline {

/// Available monotone sorting functions.
enum class ScoreFunction {
  /// f(p) = sum_i p[i]. Monotone for arbitrary values; if p < q then
  /// f(p) < f(q) strictly.
  kSum,
  /// f(p) = sum_i ln(1 + p[i]), the "entropy" scoring of SFS/LESS.
  /// Requires values > -1; strictly monotone under dominance.
  kEntropy,
  /// f(p) = min_i p[i], the minC function of SaLSa. Only *weakly*
  /// monotone (a dominator can tie); users must tie-break with a strictly
  /// monotone function — SortedByScore does this with kSum.
  kMinCoordinate,
  /// f(p) = sum_i p[i]^2, squared Euclidean distance to the origin, the
  /// scoring of Algorithm 1 (Merge) and of the SDI stop point. Strictly
  /// monotone under dominance for non-negative values.
  kEuclidean,
};

/// Human-readable name, e.g. "sum".
std::string_view ToString(ScoreFunction f);

/// Score of a single point.
Value ScorePoint(const Value* p, Dim d, ScoreFunction f);

/// Scores of all points, indexed by PointId.
std::vector<Value> ComputeScores(const Dataset& data, ScoreFunction f);

/// The order of two rows whose presort keys tie exactly: lexicographic
/// by value, then by id. A dominator is lexicographically smaller than
/// every row it dominates, and a monotone key never rounds it above
/// them, so a dominator comes first even when a one-ULP difference is
/// lost in the key's rounding. Every presorting engine ends its exact
/// key ties with it.
inline bool TieBreaksBefore(const Value* a, PointId a_id, const Value* b,
                            PointId b_id, Dim d) {
  for (Dim k = 0; k < d; ++k) {
    if (a[k] != b[k]) return a[k] < b[k];
  }
  return a_id < b_id;
}

/// All point ids sorted ascending by (f, sum), exact ties ended by
/// TieBreaksBefore.
///
/// The (f, sum) lexicographic order puts a dominator before the points
/// it dominates, even for the weakly monotone kMinCoordinate: if p < q
/// then sum(p) <= sum(q), and the rounded sums tie only when the rows'
/// difference is lost in rounding, where TieBreaksBefore decides.
std::vector<PointId> SortedByScore(const Dataset& data, ScoreFunction f);

/// Id of the point minimizing (f, sum), exact ties ended by
/// TieBreaksBefore; kInvalidPoint on empty data. For monotone f, this
/// point is always a skyline point.
PointId ArgMinScore(const Dataset& data, ScoreFunction f);

}  // namespace skyline

#endif  // SKYLINE_CORE_SCORES_H_

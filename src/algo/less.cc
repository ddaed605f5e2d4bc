#include "src/algo/less.h"

#include <algorithm>

#include "src/core/dominance.h"
#include "src/core/scores.h"

namespace skyline {

namespace {

/// Capacity of the elimination-filter window.
constexpr std::size_t kFilterSize = 16;

/// Bounded elimination filter: keeps up to `capacity` of the best-scored
/// (hence hard-to-dominate) points seen so far.
class EliminationFilter {
 public:
  EliminationFilter(std::size_t capacity, const std::vector<Value>& scores)
      : capacity_(capacity), scores_(scores) {}

  /// Returns true if `p` is dominated by a filter entry. Otherwise
  /// considers `p` for membership: it replaces the worst-scored entry if
  /// the filter is full and `p` scores better.
  bool DropsOrAbsorb(DominanceTester& tester, PointId p) {
    for (PointId f : entries_) {
      if (tester.Dominates(f, p)) return true;
    }
    if (entries_.size() < capacity_) {
      entries_.push_back(p);
    } else if (!entries_.empty()) {
      auto worst = std::max_element(
          entries_.begin(), entries_.end(),
          [&](PointId a, PointId b) { return scores_[a] < scores_[b]; });
      if (scores_[p] < scores_[*worst]) *worst = p;
    }
    return false;
  }

 private:
  std::size_t capacity_;
  const std::vector<Value>& scores_;
  std::vector<PointId> entries_;
};

}  // namespace

std::vector<PointId> Less::Compute(const Dataset& data,
                                   SkylineStats* stats) const {
  DominanceTester tester(data);
  const std::size_t n = data.num_points();
  std::vector<Value> scores = ComputeScores(data, options_.sort);

  // Pass 0: elimination-filter scan in input order.
  EliminationFilter filter(kFilterSize, scores);
  std::vector<PointId> survivors;
  survivors.reserve(n);
  for (PointId p = 0; p < n; ++p) {
    if (!filter.DropsOrAbsorb(tester, p)) survivors.push_back(p);
  }

  // Sort survivors by (score, sum), exact ties by TieBreaksBefore, then
  // the usual SFS scan.
  std::vector<Value> sums = (options_.sort == ScoreFunction::kSum)
                                ? std::vector<Value>{}
                                : ComputeScores(data, ScoreFunction::kSum);
  std::sort(survivors.begin(), survivors.end(), [&](PointId a, PointId b) {
    if (scores[a] != scores[b]) return scores[a] < scores[b];
    if (!sums.empty() && sums[a] != sums[b]) return sums[a] < sums[b];
    return TieBreaksBefore(data.row(a), a, data.row(b), b, data.num_dims());
  });

  std::vector<PointId> result;
  for (PointId p : survivors) {
    bool dominated = false;
    for (PointId s : result) {
      if (tester.Dominates(s, p)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) result.push_back(p);
  }
  if (stats != nullptr) {
    *stats = SkylineStats{};
    stats->dominance_tests = tester.tests();
    stats->skyline_size = result.size();
  }
  return result;
}

}  // namespace skyline

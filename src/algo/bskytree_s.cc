#include <algorithm>

#include "src/core/contracts.h"
#include "src/algo/bskytree.h"
#include "src/algo/pivot.h"
#include "src/core/dominance.h"
#include "src/core/scores.h"

namespace skyline {

std::vector<PointId> BSkyTreeS::Compute(const Dataset& data,
                                        SkylineStats* stats) const {
  const std::size_t n = data.num_points();
  const Dim d = data.num_dims();
  if (stats != nullptr) *stats = SkylineStats{};
  if (n == 0) return {};

  DominanceTester tester(data);
  std::vector<PointId> all(n);
  for (PointId i = 0; i < n; ++i) all[i] = i;
  const PointId pivot = SelectBalancedPivot(data, all);
  const Value* pivot_row = data.row(pivot);
  const Subspace full = Subspace::Full(d);

  std::vector<PointId> result;
  result.push_back(pivot);

  // Map every point to its lattice vector. Full mask = weakly dominated
  // by the pivot: pruned, except exact duplicates of the pivot which are
  // themselves skyline points.
  struct Entry {
    PointId id;
    Subspace mask;
    Value sum;
  };
  std::vector<Entry> survivors;
  survivors.reserve(n);
  std::uint64_t masked = 0;
  for (PointId p = 0; p < n; ++p) {
    if (p == pivot) continue;
    const Value* row = data.row(p);
    Subspace mask = LatticeMask(row, pivot_row, d);
    ++masked;
    if (mask == full) {
      if (DominatesOrEqual(row, pivot_row, d)) result.push_back(p);  // dup
      continue;
    }
    SKYLINE_ASSERT(!mask.empty(),
                   "survivor lattice vector empty: p would dominate the pivot");
    survivors.push_back(
        {p, mask, ScorePoint(row, d, ScoreFunction::kSum)});
  }

  // Sort by (lattice level, sum), exact ties by TieBreaksBefore: q < p
  // implies B(q) ⊆ B(p), hence a smaller level, or the same mask with a
  // smaller-or-equal sum — so dominators always precede the points they
  // dominate.
  std::sort(survivors.begin(), survivors.end(),
            [&](const Entry& a, const Entry& b) {
              const Dim la = a.mask.size(), lb = b.mask.size();
              if (la != lb) return la < lb;
              if (a.sum != b.sum) return a.sum < b.sum;
              return TieBreaksBefore(data.row(a.id), a.id, data.row(b.id),
                                     b.id, d);
            });

  // SFS-like scan, skipping tests between subset-incomparable regions.
  std::vector<Entry> accepted;
  std::uint64_t skipped = 0;
  for (const Entry& e : survivors) {
    bool dominated = false;
    for (const Entry& s : accepted) {
      if (!s.mask.IsSubsetOf(e.mask)) {
        ++skipped;
        continue;
      }
      if (tester.Dominates(s.id, e.id)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) accepted.push_back(e);
  }
  for (const Entry& e : accepted) result.push_back(e.id);

  if (stats != nullptr) {
    stats->dominance_tests = tester.tests() + masked;
    stats->tests_skipped = skipped;
    stats->skyline_size = result.size();
  }
  return result;
}

}  // namespace skyline

#include "src/algo/index.h"

#include <algorithm>
#include <limits>

#include "src/core/dominance.h"
#include "src/core/scores.h"

namespace skyline {

namespace {

struct ListEntry {
  Value min_value;  // the point's minimum coordinate
  Value sum;        // monotone tie-break
  PointId id;
};

}  // namespace

std::vector<PointId> IndexSkyline::Compute(const Dataset& data,
                                           SkylineStats* stats) const {
  const std::size_t n = data.num_points();
  const Dim d = data.num_dims();
  if (stats != nullptr) *stats = SkylineStats{};
  if (n == 0) return {};

  // Build phase: file each point under its minimum dimension, lists
  // sorted ascending by (value, sum), exact ties by TieBreaksBefore. The
  // order is monotone under dominance: a dominator has a
  // smaller-or-equal minC and sum, and comes first on a tie of both.
  // The scan's pick among the list heads uses the same order.
  const auto precedes = [&](const ListEntry& a, const ListEntry& b) {
    if (a.min_value != b.min_value) return a.min_value < b.min_value;
    if (a.sum != b.sum) return a.sum < b.sum;
    return TieBreaksBefore(data.row(a.id), a.id, data.row(b.id), b.id, d);
  };
  std::vector<std::vector<ListEntry>> lists(d);
  for (PointId p = 0; p < n; ++p) {
    const Value* row = data.row(p);
    Dim min_dim = 0;
    Value min_value = row[0];
    Value sum = row[0];
    for (Dim i = 1; i < d; ++i) {
      sum += row[i];
      if (row[i] < min_value) {
        min_value = row[i];
        min_dim = i;
      }
    }
    lists[min_dim].push_back({min_value, sum, p});
  }
  for (auto& list : lists) std::sort(list.begin(), list.end(), precedes);

  // Scan phase: pop the globally smallest head; stop when every
  // remaining point's minimum coordinate exceeds the smallest maximum
  // coordinate among skyline points (it is then strictly dominated).
  DominanceTester tester(data);
  std::vector<std::size_t> cursor(d, 0);
  Value stop_value = std::numeric_limits<Value>::infinity();
  std::vector<PointId> result;
  for (;;) {
    Dim best = d;
    for (Dim i = 0; i < d; ++i) {
      if (cursor[i] >= lists[i].size()) continue;
      if (best == d) {
        best = i;
        continue;
      }
      if (precedes(lists[i][cursor[i]], lists[best][cursor[best]])) best = i;
    }
    if (best == d) break;  // all lists exhausted
    const ListEntry entry = lists[best][cursor[best]++];
    if (entry.min_value > stop_value) break;  // early termination

    bool dominated = false;
    for (PointId s : result) {
      if (tester.Dominates(s, entry.id)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      result.push_back(entry.id);
      const Value* row = data.row(entry.id);
      Value max_coord = row[0];
      for (Dim i = 1; i < d; ++i) max_coord = std::max(max_coord, row[i]);
      stop_value = std::min(stop_value, max_coord);
    }
  }

  if (stats != nullptr) {
    stats->dominance_tests = tester.tests();
    stats->skyline_size = result.size();
  }
  return result;
}

}  // namespace skyline

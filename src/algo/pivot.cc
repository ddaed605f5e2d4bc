#include "src/core/contracts.h"
#include "src/algo/pivot.h"

#include <limits>

#include "src/core/scores.h"

namespace skyline {

PointId SelectBalancedPivot(const Dataset& data,
                            const std::vector<PointId>& ids) {
  SKYLINE_ASSERT(!ids.empty(), "SelectBalancedPivot: empty id set");
  const Dim d = data.num_dims();

  // Region bounds for range normalization.
  std::vector<Value> lo(d, std::numeric_limits<Value>::infinity());
  std::vector<Value> hi(d, -std::numeric_limits<Value>::infinity());
  for (PointId p : ids) {
    const Value* row = data.row(p);
    for (Dim i = 0; i < d; ++i) {
      if (row[i] < lo[i]) lo[i] = row[i];
      if (row[i] > hi[i]) hi[i] = row[i];
    }
  }
  std::vector<Value> inv_range(d);
  for (Dim i = 0; i < d; ++i) {
    const Value range = hi[i] - lo[i];
    inv_range[i] = range > 0 ? Value{1} / range : Value{0};
  }

  // Minimizing the normalized sum is monotone under dominance (any
  // strictly-better coordinate lies in a non-constant dimension), and an
  // exact tie goes to TieBreaksBefore's pick, so the argmin is a skyline
  // point of the region even when rounding hides a one-ULP edge.
  PointId best = ids.front();
  Value best_score = std::numeric_limits<Value>::infinity();
  for (PointId p : ids) {
    const Value* row = data.row(p);
    Value score = 0;
    for (Dim i = 0; i < d; ++i) {
      score += (row[i] - lo[i]) * inv_range[i];
    }
    if (score < best_score ||
        (score == best_score &&
         TieBreaksBefore(row, p, data.row(best), best, d))) {
      best = p;
      best_score = score;
    }
  }
  return best;
}

}  // namespace skyline

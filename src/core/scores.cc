#include "src/core/contracts.h"
#include "src/core/scores.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace skyline {

std::string_view ToString(ScoreFunction f) {
  switch (f) {
    case ScoreFunction::kSum:
      return "sum";
    case ScoreFunction::kEntropy:
      return "entropy";
    case ScoreFunction::kMinCoordinate:
      return "minC";
    case ScoreFunction::kEuclidean:
      return "euclidean";
  }
  return "?";
}

Value ScorePoint(const Value* p, Dim d, ScoreFunction f) {
  switch (f) {
    case ScoreFunction::kSum: {
      Value s = 0;
      for (Dim i = 0; i < d; ++i) s += p[i];
      return s;
    }
    case ScoreFunction::kEntropy: {
      Value s = 0;
      for (Dim i = 0; i < d; ++i) {
        SKYLINE_ASSERT(p[i] > Value{-1},
                       "log-sum score requires values > -1");
        s += std::log1p(p[i]);
      }
      return s;
    }
    case ScoreFunction::kMinCoordinate: {
      Value s = p[0];
      for (Dim i = 1; i < d; ++i) s = std::min(s, p[i]);
      return s;
    }
    case ScoreFunction::kEuclidean: {
      Value s = 0;
      for (Dim i = 0; i < d; ++i) s += p[i] * p[i];
      return s;
    }
  }
  return 0;
}

std::vector<Value> ComputeScores(const Dataset& data, ScoreFunction f) {
  const std::size_t n = data.num_points();
  std::vector<Value> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = ScorePoint(data.row(static_cast<PointId>(i)), data.num_dims(), f);
  }
  return scores;
}

std::vector<PointId> SortedByScore(const Dataset& data, ScoreFunction f) {
  const std::size_t n = data.num_points();
  std::vector<Value> primary = ComputeScores(data, f);
  std::vector<Value> secondary;
  if (f != ScoreFunction::kSum) {
    secondary = ComputeScores(data, ScoreFunction::kSum);
  }
  std::vector<PointId> order(n);
  std::iota(order.begin(), order.end(), PointId{0});
  std::sort(order.begin(), order.end(), [&](PointId a, PointId b) {
    if (primary[a] != primary[b]) return primary[a] < primary[b];
    if (!secondary.empty() && secondary[a] != secondary[b]) {
      return secondary[a] < secondary[b];
    }
    return TieBreaksBefore(data.row(a), a, data.row(b), b, data.num_dims());
  });
  return order;
}

PointId ArgMinScore(const Dataset& data, ScoreFunction f) {
  const std::size_t n = data.num_points();
  if (n == 0) return kInvalidPoint;
  PointId best = 0;
  Value best_primary = ScorePoint(data.row(0), data.num_dims(), f);
  Value best_secondary = ScorePoint(data.row(0), data.num_dims(), ScoreFunction::kSum);
  for (PointId id = 1; id < n; ++id) {
    Value p = ScorePoint(data.row(id), data.num_dims(), f);
    if (p > best_primary) continue;
    Value s = ScorePoint(data.row(id), data.num_dims(), ScoreFunction::kSum);
    if (p < best_primary || s < best_secondary ||
        (s == best_secondary && TieBreaksBefore(data.row(id), id,
                                                data.row(best), best,
                                                data.num_dims()))) {
      best = id;
      best_primary = p;
      best_secondary = s;
    }
  }
  return best;
}

}  // namespace skyline

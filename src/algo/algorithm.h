// Common interface of all skyline algorithms in the library.
#ifndef SKYLINE_ALGO_ALGORITHM_H_
#define SKYLINE_ALGO_ALGORITHM_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "src/core/dataset.h"
#include "src/core/scores.h"
#include "src/core/stats.h"
#include "src/core/types.h"

namespace skyline {

/// Tuning knobs shared across algorithms. Every algorithm reads only the
/// fields relevant to it; defaults reproduce the paper's configuration.
struct AlgorithmOptions {
  /// Presorting function for SFS / LESS and the boosted SFS variant.
  ScoreFunction sort = ScoreFunction::kSum;

  /// Stability threshold sigma of Algorithm 1 (Merge) used by the
  /// -Subset algorithms. 0 means "auto": round(d/3) clamped to [2, d],
  /// the rule established in Section 6.1 of the paper.
  int sigma = 0;

  /// Recursion cutoff of the D&C and BSkyTree-P algorithms: regions at or
  /// below this size are solved with a block nested loop.
  std::size_t partition_leaf_size = 32;
};

/// A skyline algorithm: consumes a Dataset, returns the ids of all
/// non-dominated points (Definition 3.2). Implementations are stateless
/// and reusable across datasets; `Compute` is const and thread-compatible.
class SkylineAlgorithm {
 public:
  virtual ~SkylineAlgorithm();

  /// Stable identifier, e.g. "sfs" or "sdi-subset".
  virtual std::string_view name() const = 0;

  /// Computes the skyline of `data`. The returned ids are a set (no
  /// duplicates) in unspecified order. If `stats` is non-null its
  /// counters are overwritten with this run's instrumentation.
  virtual std::vector<PointId> Compute(const Dataset& data,
                                       SkylineStats* stats) const = 0;

  /// Convenience overload discarding statistics.
  std::vector<PointId> Compute(const Dataset& data) const {
    return Compute(data, nullptr);
  }

  /// Resolves the effective sigma for a d-dimensional dataset: explicit
  /// option value, or the paper's round(d/3) rule clamped to [2, d].
  static int EffectiveSigma(int option_sigma, Dim num_dims);
};

}  // namespace skyline

#endif  // SKYLINE_ALGO_ALGORITHM_H_

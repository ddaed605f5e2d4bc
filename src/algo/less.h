// LESS — Linear Elimination Sort for Skyline (Godfrey, Shipley, Gryz,
// VLDB 2005). SFS with an elimination-filter pass: while the data is
// (conceptually) being sorted, a small window of the best-scored points
// seen so far drops dominated points early, before the main filter scan.
//
// The original operates on external sort-merge runs; this in-memory
// adaptation keeps the two essential ideas — the elimination-filter
// window during pass zero and the SFS scan over the sorted survivors —
// and skips the disk machinery (see DESIGN.md).
#ifndef SKYLINE_ALGO_LESS_H_
#define SKYLINE_ALGO_LESS_H_

#include "src/algo/algorithm.h"

namespace skyline {

/// In-memory LESS with a 16-entry elimination-filter window.
class Less final : public SkylineAlgorithm {
 public:
  explicit Less(const AlgorithmOptions& options = {}) : options_(options) {}

  std::string_view name() const override { return "less"; }

  using SkylineAlgorithm::Compute;

  std::vector<PointId> Compute(const Dataset& data,
                               SkylineStats* stats) const override;

 private:
  AlgorithmOptions options_;
};

}  // namespace skyline

#endif  // SKYLINE_ALGO_LESS_H_

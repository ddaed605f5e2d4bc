#include <algorithm>
#include <limits>

#include "src/core/aligned_dataset.h"
#include "src/core/kernels.h"
#include "src/core/scores.h"
#include "src/subset/boosted.h"
#include "src/subset/merge.h"
#include "src/subset/subset_index.h"

namespace skyline {

std::vector<PointId> SalsaSubset::Compute(const Dataset& data,
                                          SkylineStats* stats) const {
  const Dim d = data.num_dims();
  if (stats != nullptr) *stats = SkylineStats{};
  if (data.num_points() == 0) return {};

  const int sigma = EffectiveSigma(options_.sigma, d);
  MergeResult merge = MergeSubspaces(data, sigma);

  // minC order with sum tie-break over the surviving points. The index
  // holds rows of the scan block: pivot k is row k, survivor i is row
  // P + i.
  SortSurvivorsByScore(data, ScoreFunction::kMinCoordinate, &merge);
  const AlignedDataset rows = GatherScanRows(data, merge);
  const std::size_t num_pivots = merge.pivots.size();
  SubsetIndex index(d, &rows);
  for (std::size_t k = 0; k < num_pivots; ++k) {
    index.AddAlwaysCandidate(static_cast<PointId>(k));
  }
  std::vector<PointId> result = merge.pivots;

  // The stop value must account for the pivot skyline points too: they
  // are part of the current skyline from the start.
  Value stop_value = std::numeric_limits<Value>::infinity();
  auto max_coord_of = [&](PointId p) {
    const Value* row = data.row(p);
    Value m = row[0];
    for (Dim i = 1; i < d; ++i) m = std::max(m, row[i]);
    return m;
  };
  for (PointId pv : merge.pivots) {
    stop_value = std::min(stop_value, max_coord_of(pv));
  }

  SkylineStats local;
  for (std::size_t i = 0; i < merge.remaining.size(); ++i) {
    const PointId q = merge.remaining[i];
    // SaLSa's stop rule: every later point is dominated.
    if (ScorePoint(data.row(q), d, ScoreFunction::kMinCoordinate) >
        stop_value) {
      break;
    }
    const PointId row = static_cast<PointId>(num_pivots + i);
    const Subspace mask = merge.subspaces[i];
    // One node-by-node probe of the index (charges one test per member
    // scanned, early exit at the first dominator).
    if (index.FindDominator(mask, row, &local).first ==
        kernels::kNoDominator) {
      result.push_back(q);
      index.Add(row, mask);
      stop_value = std::min(stop_value, max_coord_of(q));
    }
  }

  if (stats != nullptr) {
    *stats = local;
    stats->dominance_tests += merge.dominance_tests;
    stats->pivot_count = merge.pivots.size();
    stats->merge_pruned = merge.pruned;
    stats->skyline_size = result.size();
  }
  return result;
}

}  // namespace skyline

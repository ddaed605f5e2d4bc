#include "src/core/aligned_dataset.h"
#include "src/core/kernels.h"
#include "src/subset/boosted.h"
#include "src/subset/merge.h"
#include "src/subset/subset_index.h"

namespace skyline {

std::vector<PointId> SfsSubset::Compute(const Dataset& data,
                                        SkylineStats* stats) const {
  const Dim d = data.num_dims();
  if (stats != nullptr) *stats = SkylineStats{};
  if (data.num_points() == 0) return {};

  // Phase 1: subspace union. The pivots are the initial skyline.
  const int sigma = EffectiveSigma(options_.sigma, d);
  MergeResult merge = MergeSubspaces(data, sigma);

  // Phase 2: SFS over the surviving points, in monotone score order. The
  // index holds rows of the scan block: pivot k is row k, survivor i is
  // row P + i, so the probes read the block front to back.
  SortSurvivorsByScore(data, options_.sort, &merge);
  const AlignedDataset rows = GatherScanRows(data, merge);
  const std::size_t num_pivots = merge.pivots.size();
  SubsetIndex index(d, &rows);
  for (std::size_t k = 0; k < num_pivots; ++k) {
    index.AddAlwaysCandidate(static_cast<PointId>(k));
  }
  std::vector<PointId> result = merge.pivots;

  SkylineStats local;
  for (std::size_t i = 0; i < merge.remaining.size(); ++i) {
    const PointId row = static_cast<PointId>(num_pivots + i);
    const Subspace mask = merge.subspaces[i];
    // Lemma 5.1: only skyline points whose subspace is a superset of
    // D_{q<S} can dominate q — the probe scans exactly those, node by
    // node (charges one test per member scanned, early exit at the
    // first dominator).
    if (index.FindDominator(mask, row, &local).first ==
        kernels::kNoDominator) {
      result.push_back(merge.remaining[i]);
      index.Add(row, mask);
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

#include "src/core/dominance.h"
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

  SubsetIndex index(d);
  for (PointId pv : merge.pivots) index.AddAlwaysCandidate(pv);
  std::vector<PointId> result = merge.pivots;

  // Phase 2: SFS over the surviving points, in monotone score order.
  SortSurvivorsByScore(data, options_.sort, &merge);

  DominanceTester tester(data);
  SkylineStats local;
  std::vector<PointId> candidates;
  for (std::size_t i = 0; i < merge.remaining.size(); ++i) {
    const PointId q = merge.remaining[i];
    const Subspace mask = merge.subspaces[i];
    // Lemma 5.1: only skyline points whose subspace is a superset of
    // D_{q<S} can dominate q — fetch exactly those.
    candidates.clear();
    index.Query(mask, &candidates, &local.index_nodes_visited);
    ++local.index_queries;
    local.index_candidates += candidates.size();
    // One batched kernel pass over the candidate block (charges one test
    // per candidate scanned, early exit at the first dominator).
    const bool dominated = tester.DominatesAny(candidates, q);
    if (!dominated) {
      result.push_back(q);
      index.Add(q, mask);
    }
  }

  if (stats != nullptr) {
    *stats = local;
    stats->dominance_tests = merge.dominance_tests + tester.tests();
    stats->pivot_count = merge.pivots.size();
    stats->merge_pruned = merge.pruned;
    stats->skyline_size = result.size();
  }
  return result;
}

}  // namespace skyline

// Subspace union — Algorithm 1 ("Merge") of the paper.
//
// Iteratively extracts pivot points (the remaining point with minimal
// Euclidean distance to the origin, an exact tie going to the
// lexicographically smaller row, then the smaller id: always a skyline
// point on non-negative data, even when a dominator and a row one ULP
// worse round to the same distance), prunes everything a pivot
// dominates, and merges each surviving point's dominating subspace
// D_{q<p} (Definition 3.4) across pivots into its *maximum dominating
// subspace* D_{q<S} (Definition 4.1). Iteration stops when the
// distribution of points over subspace sizes is stable: the stability
// measure sigma' counts the subspace-size bins whose population did not
// change in the last iteration, and the pass ends once sigma' >= sigma.
#ifndef SKYLINE_SUBSET_MERGE_H_
#define SKYLINE_SUBSET_MERGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/aligned_dataset.h"
#include "src/core/dataset.h"
#include "src/core/scores.h"
#include "src/core/subspace.h"
#include "src/core/types.h"

namespace skyline {

/// Output of the Merge pass.
struct MergeResult {
  /// The initial skyline S: the pivot points, in selection order (plus
  /// any exact duplicates of pivots discovered while pruning). Every
  /// entry is a skyline point of the dataset.
  std::vector<PointId> pivots;

  /// Points neither selected as pivots nor pruned; none is dominated by
  /// any pivot.
  std::vector<PointId> remaining;

  /// Parallel to `remaining`: the maximum dominating subspace D_{q<S} of
  /// each remaining point. Always non-empty.
  std::vector<Subspace> subspaces;

  /// Pairwise comparisons spent (each D_{q<p} computation is one O(d)
  /// row scan, counted as a dominance test).
  std::uint64_t dominance_tests = 0;

  /// Points pruned because a pivot dominated them.
  std::uint64_t pruned = 0;

  /// Number of pivot iterations executed.
  int iterations = 0;
};

/// Runs Algorithm 1 on `data` with stability threshold `sigma` (>= 1).
///
/// Precondition: values must be non-negative, so that the Euclidean score
/// is strictly monotone under dominance and the extracted minimum is a
/// skyline point (the paper's datasets are all non-negative).
MergeResult MergeSubspaces(const Dataset& data, int sigma);

/// Algorithm 1 restricted to the points in `ids` (each id < num_points,
/// no duplicates): pivots, survivors and subspaces refer only to those
/// points, and the score anchor is the minima corner of the subset.
/// `MergeSubspaces` is the full-span special case.
MergeResult MergeSubspacesOver(const Dataset& data,
                               std::span<const PointId> ids, int sigma);

/// Reorders the survivors of `merge` (`remaining`, with `subspaces`
/// alongside) ascending by (f, sum), exact ties by the lexicographically
/// smaller row, then the smaller id: the monotone order the boosted
/// scans read them in, in which every dominator precedes the points it
/// dominates even when their rounded scores and sums tie. One helper,
/// so the sequential and the parallel scans cannot drift apart.
void SortSurvivorsByScore(const Dataset& data, ScoreFunction f,
                          MergeResult* merge);

/// The rows a boosted scan over `merge` reads, gathered into one dense
/// block: the pivots, then the survivors in `remaining` order, so row
/// `pivots.size() + i` holds `remaining[i]`. The block's quantized
/// plane is built up front, because a SubsetIndex over the block copies
/// each member's packed row when the member is added. Rows Merge pruned
/// are left out, so the block and its plane stay small when Merge
/// prunes most points (correlated data).
AlignedDataset GatherScanRows(const Dataset& data, const MergeResult& merge);

}  // namespace skyline

#endif  // SKYLINE_SUBSET_MERGE_H_

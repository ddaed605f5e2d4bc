// Parallel subset-boosted skyline engine.
//
// The paper's SFS-Subset (SfsSubset) with its scan run in parallel. One
// Merge pass (Algorithm 1) yields the pivots — skyline points all — and
// each survivor's maximum dominating subspace D_{q<S} against that one
// pivot set S. The survivors are sorted in SfsSubset's monotone
// (score, sum, id) order and scanned in fixed-size blocks, three steps
// per block:
//
//  1. Every point of the block probes the SubsetIndex as it was
//     committed at the block's start, in parallel and read-only, and
//     is tested against the stored points whose mask is a superset of
//     its own — by Lemma 5.1 the only ones that can dominate it.
//  2. Each survivor of that probe is tested, also in parallel, against
//     the earlier survivors of its block whose mask is a superset of
//     its own.
//  3. One thread commits the accepted points to the index in score
//     order.
//
// Every mask is taken against the same pivot set, so Lemma 5.1 holds
// for both probes; pivots stay out of the index because Merge already
// showed that no pivot weakly dominates a survivor. A dominated point
// always meets a skyline dominator that precedes it in the order: in
// the index if it was committed by an earlier block, among the earlier
// survivors of step 2 otherwise. See docs/algorithms.md.
//
// The accepted set and its order are SfsSubset's, so the result vector
// is the same as SfsSubset's. The blocks depend only on the input, so
// the result and every SkylineStats counter are the same for any thread
// count. The dominance tests are SfsSubset's minus the pivot re-tests,
// plus the step-2 tests against block survivors that step 2 rejects.
#ifndef SKYLINE_PARALLEL_PARALLEL_SUBSET_H_
#define SKYLINE_PARALLEL_PARALLEL_SUBSET_H_

#include "src/algo/algorithm.h"

namespace skyline {

/// Multi-threaded subset-boosted skyline (one Merge pass, then a
/// block-parallel SFS-Subset scan).
class ParallelSubsetSfs final : public SkylineAlgorithm {
 public:
  /// Survivors per block of the scan.
  static constexpr std::size_t kDefaultBlockSize = 2048;

  /// `threads` = 0 picks std::thread::hardware_concurrency();
  /// `block_size` = 0 picks kDefaultBlockSize. Overriding `block_size`
  /// (a test hook) changes the work decomposition and thus the
  /// counters, never the result; overriding `threads` changes neither.
  explicit ParallelSubsetSfs(unsigned threads = 0,
                             const AlgorithmOptions& options = {},
                             std::size_t block_size = 0)
      : threads_(threads), block_size_(block_size), options_(options) {}

  std::string_view name() const override { return "parallel-subset-sfs"; }

  using SkylineAlgorithm::Compute;

  std::vector<PointId> Compute(const Dataset& data,
                               SkylineStats* stats) const override;

 private:
  unsigned threads_;
  std::size_t block_size_;
  AlgorithmOptions options_;
};

}  // namespace skyline

#endif  // SKYLINE_PARALLEL_PARALLEL_SUBSET_H_

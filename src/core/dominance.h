// Dominance-test kernels (Definition 3.1) and dominating-subspace
// computation (Definition 3.4). These inner loops are the unit of cost the
// whole paper is about reducing, so they are kept branch-light and free of
// virtual dispatch.
//
// Two tiers live here:
//   * the scalar reference functions below — simple early-exit loops over
//     unpadded rows, the semantic ground truth;
//   * DominanceTester, which routes every test through the vectorized
//     kernels of src/core/kernels.h over a padded, 64-byte-aligned copy
//     of the dataset (AlignedDataset). Results are bit-identical to the
//     scalar tier; tests/core/kernel_differential_test.cc enforces it.
#ifndef SKYLINE_CORE_DOMINANCE_H_
#define SKYLINE_CORE_DOMINANCE_H_

#include <cstdint>

#include "src/core/dataset.h"
#include "src/core/kernels.h"
#include "src/core/subspace.h"
#include "src/core/types.h"

namespace skyline {

/// Human-readable name of a relation, e.g. "incomparable".
const char* ToString(DominanceRelation r);

/// Returns true iff a dominates b: a[i] <= b[i] in every dimension and
/// a[k] < b[k] in at least one. Scalar reference implementation.
inline bool Dominates(const Value* a, const Value* b, Dim d) {
  bool strict = false;
  for (Dim i = 0; i < d; ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strict = true;
  }
  return strict;
}

/// Returns true iff a dominates b or a equals b (a "weakly dominates" b).
inline bool DominatesOrEqual(const Value* a, const Value* b, Dim d) {
  for (Dim i = 0; i < d; ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

/// Classifies the pair (a, b) in one pass over the d dimensions.
inline DominanceRelation Compare(const Value* a, const Value* b, Dim d) {
  bool a_better = false;
  bool b_better = false;
  for (Dim i = 0; i < d; ++i) {
    if (a[i] < b[i]) {
      a_better = true;
      if (b_better) return DominanceRelation::kIncomparable;
    } else if (b[i] < a[i]) {
      b_better = true;
      if (a_better) return DominanceRelation::kIncomparable;
    }
  }
  if (a_better) return DominanceRelation::kFirstDominates;
  if (b_better) return DominanceRelation::kSecondDominates;
  return DominanceRelation::kEqual;
}

/// Dominating subspace D_{q<p} of q with respect to p (Definition 3.4):
/// the set of dimensions where q is strictly better than p. By the
/// definition's complement clause, an empty result means p weakly
/// dominates q (p <= q), i.e. q is dominated unless q == p.
inline Subspace DominatingSubspace(const Value* q, const Value* p, Dim d) {
  Subspace s;
  for (Dim i = 0; i < d; ++i) {
    if (q[i] < p[i]) s.Add(i);
  }
  return s;
}

/// Dominating subspace plus equality detection in a single O(d) scan:
/// like DominatingSubspace, but also reports through `q_somewhere_worse`
/// whether q is strictly worse than p in any dimension. An empty result
/// with `*q_somewhere_worse == false` means q == p. Used by the Merge
/// pass so that pruning and duplicate detection cost one scan.
inline Subspace DominatingSubspaceEx(const Value* q, const Value* p, Dim d,
                                     bool* q_somewhere_worse) {
  Subspace s;
  bool worse = false;
  for (Dim i = 0; i < d; ++i) {
    if (q[i] < p[i]) {
      s.Add(i);
    } else if (q[i] > p[i]) {
      worse = true;
    }
  }
  *q_somewhere_worse = worse;
  return s;
}

/// Convenience wrapper binding a Dataset and a dominance-test counter.
///
/// The classic algorithms route all pairwise comparisons through one of
/// these so the mean-dominance-test metric of the paper's evaluation is
/// counted uniformly. Counter contract: **one test per pivot actually
/// scanned** — every call costs one O(d) row scan and charges exactly
/// one. The batched kernels (kernels::DominatesAny, the one probe of
/// the subset index's node walk, the skycube window scan and the
/// parallel engine, and Merge's fold) follow the same contract: they
/// charge one per pivot the equivalent scalar early-exit loop would
/// have consumed, so DT tables stay comparable to the paper regardless
/// of which path executed; the differential tests assert the batched
/// and scalar charges agree.
///
/// Internally the tester owns a padded, 64-byte-aligned copy of the
/// dataset rows (AlignedDataset) and runs the vectorized kernels over
/// it. The copies are bit-identical, so results match the scalar
/// reference functions exactly.
class DominanceTester {
 public:
  explicit DominanceTester(const Dataset& data)
      : data_(data), aligned_(data), d_(data.num_dims()) {}

  /// a < b ? (charges 1)
  bool Dominates(PointId a, PointId b) {
    ++tests_;
    return kernels::Dominates(aligned_.row(a), aligned_.row(b), d_);
  }

  /// a <= b (dominates or equal)? (charges 1)
  bool DominatesOrEqual(PointId a, PointId b) {
    ++tests_;
    return kernels::DominatesOrEqual(aligned_.row(a), aligned_.row(b), d_);
  }

  /// Classifies the pair (a, b). (charges 1)
  DominanceRelation Compare(PointId a, PointId b) {
    ++tests_;
    return kernels::Compare(aligned_.row(a), aligned_.row(b), d_);
  }

  /// D_{q<p}: dimensions where q is strictly better than p. (charges 1)
  Subspace DominatingSubspace(PointId q, PointId p) {
    ++tests_;
    return kernels::DominatingSubspace(aligned_.row(q), aligned_.row(p), d_);
  }

  std::uint64_t tests() const { return tests_; }
  const Dataset& data() const { return data_; }

 private:
  const Dataset& data_;
  AlignedDataset aligned_;
  Dim d_;
  std::uint64_t tests_ = 0;
};

}  // namespace skyline

#endif  // SKYLINE_CORE_DOMINANCE_H_

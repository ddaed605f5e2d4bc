// Vectorized dominance kernels: branch-light, auto-vectorization-friendly
// implementations of the pairwise tests of src/core/dominance.h, plus the
// two batched kernels the subset algorithms actually execute: the
// one-vs-many probe (does any member of a block dominate q?) and Merge's
// fold (D_{q<pivot} for every row of a block).
//
// Two rules make these loops vectorizable where the scalar reference
// versions are not:
//
//   1. No data-dependent early exit inside the d-loop. The scalar
//      `Dominates` returns at the first dimension where a[i] > b[i];
//      these kernels accumulate "worse"/"better" flags (or mask bits)
//      across all d dimensions with `|=` and decide once at the end.
//      For the short rows of the paper's workloads (d <= 24) the exit
//      saves little and the dependence-free form lets the compiler use
//      SIMD compares across the row.
//   2. Restrict-qualified pointers into padded, 64-byte-aligned rows
//      (AlignedDataset), so rows never alias and loads are aligned.
//
// Semantics contract: every kernel returns bit-identical results to
// scalar loops over the pairwise tests of src/core/dominance.h on the
// same inputs — same booleans, same Subspace bits, and in the probe the
// same iteration order and early-exit point. The probe additionally
// reports `scanned`, the number of members a scalar early-exit loop
// would have charged to the dominance-test counter; its callers add
// exactly that, so DT statistics stay comparable to the paper no matter
// which path ran. tests/core/kernel_differential_test.cc enforces both
// properties with scalar loops of its own.
//
// The batched forms are thin wrappers over a per-ISA backend table
// (src/core/simd_dispatch.h) resolved once per process by src/core/cpu.h:
// explicit AVX-512/AVX2 intrinsics when the CPU has them, portable
// auto-vectorized primitives otherwise, all under the same loops of
// src/core/simd_batch.h. Every backend obeys the same semantics
// contract, so callers see identical results and charges no matter
// which ISA executed — only the wall clock changes. DominatesAny
// additionally consults the quantized block prefilter (docs/kernels.md)
// whenever its caller hands it the probe's packed row.
//
// Kernels read exactly num_dims values per row: the padding tail of an
// AlignedDataset row is never loaded (the differential tests poison it).
#ifndef SKYLINE_CORE_KERNELS_H_
#define SKYLINE_CORE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/core/aligned_dataset.h"
#include "src/core/contracts.h"
#include "src/core/cpu.h"
#include "src/core/simd_dispatch.h"
#include "src/core/subspace.h"
#include "src/core/types.h"

#if defined(__GNUC__) || defined(__clang__)
#define SKYLINE_RESTRICT __restrict__
#else
#define SKYLINE_RESTRICT
#endif

namespace skyline {

/// Full classification of an ordered pair of points.
enum class DominanceRelation {
  kFirstDominates,   // a < b
  kSecondDominates,  // b < a
  kEqual,            // a[i] == b[i] for all i
  kIncomparable,     // a ~ b (neither dominates)
};

namespace kernels {

/// Returns true iff a dominates b (Definition 3.1). Flag-accumulating,
/// no early exit; result identical to skyline::Dominates.
inline bool Dominates(const Value* SKYLINE_RESTRICT a,
                      const Value* SKYLINE_RESTRICT b, Dim d) {
  unsigned worse = 0;
  unsigned better = 0;
  for (Dim i = 0; i < d; ++i) {
    worse |= static_cast<unsigned>(a[i] > b[i]);
    better |= static_cast<unsigned>(a[i] < b[i]);
  }
  return worse == 0 && better != 0;
}

/// a <= b in every dimension; result identical to
/// skyline::DominatesOrEqual.
inline bool DominatesOrEqual(const Value* SKYLINE_RESTRICT a,
                             const Value* SKYLINE_RESTRICT b, Dim d) {
  unsigned worse = 0;
  for (Dim i = 0; i < d; ++i) {
    worse |= static_cast<unsigned>(a[i] > b[i]);
  }
  return worse == 0;
}

/// One-pass pair classification; result identical to skyline::Compare.
inline DominanceRelation Compare(const Value* SKYLINE_RESTRICT a,
                                 const Value* SKYLINE_RESTRICT b, Dim d) {
  unsigned a_better = 0;
  unsigned b_better = 0;
  for (Dim i = 0; i < d; ++i) {
    a_better |= static_cast<unsigned>(a[i] < b[i]);
    b_better |= static_cast<unsigned>(b[i] < a[i]);
  }
  if (a_better != 0 && b_better != 0) return DominanceRelation::kIncomparable;
  if (a_better != 0) return DominanceRelation::kFirstDominates;
  if (b_better != 0) return DominanceRelation::kSecondDominates;
  return DominanceRelation::kEqual;
}

/// D_{q<p} (Definition 3.4) as a branch-free mask build; bits identical
/// to skyline::DominatingSubspace. Requires d <= Subspace::kMaxDims.
inline Subspace DominatingSubspace(const Value* SKYLINE_RESTRICT q,
                                   const Value* SKYLINE_RESTRICT p, Dim d) {
  SKYLINE_ASSERT(d <= Subspace::kMaxDims,
                 "DominatingSubspace kernel: d exceeds Subspace::kMaxDims");
  std::uint64_t bits = 0;
  for (Dim i = 0; i < d; ++i) {
    bits |= static_cast<std::uint64_t>(q[i] < p[i]) << i;
  }
  return Subspace(bits);
}

/// D_{q<p} plus the q-strictly-worse-somewhere flag in one scan; output
/// identical to skyline::DominatingSubspaceEx.
inline Subspace DominatingSubspaceEx(const Value* SKYLINE_RESTRICT q,
                                     const Value* SKYLINE_RESTRICT p, Dim d,
                                     bool* q_somewhere_worse) {
  SKYLINE_ASSERT(d <= Subspace::kMaxDims,
                 "DominatingSubspaceEx kernel: d exceeds Subspace::kMaxDims");
  std::uint64_t bits = 0;
  unsigned worse = 0;
  for (Dim i = 0; i < d; ++i) {
    bits |= static_cast<std::uint64_t>(q[i] < p[i]) << i;
    worse |= static_cast<unsigned>(q[i] > p[i]);
  }
  *q_somewhere_worse = worse != 0;
  return Subspace(bits);
}

// kNoDominator / BatchProbeResult live in src/core/simd_dispatch.h
// (shared with the per-ISA backends) and are re-exported here through
// the include above.

/// Tests probe row `q_row` against a block of stored points in a
/// single pass, in block order — the retrieval-loop shape of
/// SFS-Subset / SaLSa-Subset / SDI-Subset ("does any stored skyline
/// point dominate q?"). The block is `ids` plus their packed quantized
/// rows `qrows` (ids.size() * rows.qstride() bytes, row j belonging to
/// ids[j]), kept side by side as a SubsetIndex node keeps them.
/// `q_quant` is the probe's packed row; the kernel compares it against
/// the block's packed rows and reads an exact row only for the members
/// that compare cannot reject. A null `q_quant` runs exact compares
/// over every member and leaves `qrows` unread. Dispatches to the
/// active ISA backend.
inline BatchProbeResult DominatesAny(const AlignedDataset& rows,
                                     std::span<const PointId> ids,
                                     const std::uint8_t* qrows,
                                     const Value* q_row,
                                     const std::uint8_t* q_quant, Dim d) {
  if constexpr (kSkylineAsserts) {
    for (PointId id : ids) {
      SKYLINE_ASSERT(id < rows.num_rows(), "DominatesAny: id out of range");
    }
  }
  SKYLINE_ASSERT(q_quant == nullptr || rows.has_quantized(),
                 "DominatesAny: packed probe without a quantized plane");
  return cpu::ActiveOps().dominates_any(rows, ids, qrows, q_row, q_quant, d);
}

/// The Merge inner-loop shape: D_{q<pivot} plus the q-somewhere-worse
/// flag for a dense block of rows against one pivot row, one output pair
/// per input row. No early exit — every active point must learn its mask
/// — so the charge is exactly row_ids.size() tests. Dispatches to the
/// active ISA backend.
inline void DominatingSubspaceExBatch(const AlignedDataset& rows,
                                      std::span<const std::uint32_t> row_ids,
                                      const Value* pivot_row, Dim d,
                                      Subspace* out_masks,
                                      std::uint8_t* out_worse) {
  if constexpr (kSkylineAsserts) {
    for (std::uint32_t r : row_ids) {
      SKYLINE_ASSERT(r < rows.num_rows(),
                     "DominatingSubspaceExBatch: row out of range");
    }
  }
  cpu::ActiveOps().dominating_subspace_ex_batch(rows, row_ids, pivot_row, d,
                                                out_masks, out_worse);
}

}  // namespace kernels
}  // namespace skyline

#endif  // SKYLINE_CORE_KERNELS_H_

// Batched loops of the kernel backends, written once over a per-ISA
// primitive struct. src/core/simd_scalar.cc, src/core/simd_avx2.cc and
// src/core/simd_avx512.cc each define their primitives as a struct in
// their own unnamed namespace and instantiate these templates inside
// their own translation unit (the vector ones -m-flagged). Every
// instantiation therefore has internal linkage: no vector instruction
// can end up behind a symbol that a baseline-ISA translation unit links
// against. This header holds no intrinsics
// (scripts/check_invariants.py R7) and is included only by the three
// backends.
//
// The primitive struct `Isa` supplies:
//
//   kGroup               rows interleaved per primitive call (the
//                        ISA's register budget); m <= kGroup below.
//   Dominates(p, m, q, d)
//                        bit j set iff row p[j] dominates row q.
//   Masks(p, rows, m, d, bits, worse)
//                        for each j < m, D_{rows[j]<p} and the
//                        rows[j]-strictly-worse-somewhere flag.
//   QuantMayDominate(s, m, q, qstride)
//                        for m <= 64 packed rows of qstride bytes each,
//                        contiguous from s: bit j set iff no byte of
//                        row j is above the probe's packed row q. A
//                        clear bit is a sound non-dominance proof.
//
// The loops implement the semantics contract of src/core/kernels.h:
// results, early-exit points and `scanned` charges identical to a
// scalar early-exit loop of pairwise tests.
#ifndef SKYLINE_CORE_SIMD_BATCH_H_
#define SKYLINE_CORE_SIMD_BATCH_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/core/aligned_dataset.h"
#include "src/core/simd_dispatch.h"
#include "src/core/subspace.h"
#include "src/core/types.h"

namespace skyline {
namespace kernels {
namespace simd {

template <class Isa>
BatchProbeResult DominatesAny(const AlignedDataset& rows,
                              std::span<const PointId> ids,
                              const std::uint8_t* qrows, const Value* q_row,
                              const std::uint8_t* q_quant, Dim d) {
  constexpr unsigned kGroup = Isa::kGroup;
  constexpr std::size_t kRowsPerMask = 64;
  const std::size_t qstride = rows.qstride();
  const std::size_t n = ids.size();
  // Group-size ramp: the first exact compare of the block tests a
  // single member, so a probe the block's leading member resolves (the
  // common case on correlated inputs, where blocks are sorted
  // strongest-first) pays for one row compare instead of kGroup.
  unsigned target = 1;
  for (std::size_t base = 0; base < n; base += kRowsPerMask) {
    const unsigned m =
        static_cast<unsigned>(std::min(kRowsPerMask, n - base));
    // Members whose packed row clears the probe's, or every member
    // without a packed probe row; the rest are proven non-dominators
    // and cost no exact read.
    std::uint64_t live =
        q_quant != nullptr
            ? Isa::QuantMayDominate(qrows + base * qstride, m, q_quant,
                                    qstride)
            : ~std::uint64_t{0} >> (kRowsPerMask - m);
    while (live != 0) {
      const Value* prow[kGroup];
      std::size_t pidx[kGroup];
      unsigned g = 0;
      while (live != 0 && g < target) {
        const std::size_t i =
            base + static_cast<unsigned>(std::countr_zero(live));
        live &= live - 1;
        prow[g] = rows.row_unchecked(ids[i]);
        pidx[g] = i;
        ++g;
      }
      target = kGroup;
      const unsigned dom = Isa::Dominates(prow, g, q_row, d);
      if (dom != 0) {
        // Members before the first dominator were all scanned, by the
        // packed compare or the exact one; a scalar early-exit loop
        // charges exactly those plus the dominator.
        const std::size_t first =
            pidx[static_cast<unsigned>(std::countr_zero(dom))];
        return {first, first + 1};
      }
    }
  }
  return {kNoDominator, n};
}

template <class Isa>
void DominatingSubspaceExBatch(const AlignedDataset& rows,
                               std::span<const std::uint32_t> row_ids,
                               const Value* pivot_row, Dim d,
                               Subspace* out_masks, std::uint8_t* out_worse) {
  constexpr unsigned kGroup = Isa::kGroup;
  const std::size_t n = row_ids.size();
  for (std::size_t i = 0; i < n; i += kGroup) {
    const unsigned m =
        static_cast<unsigned>(n - i < kGroup ? n - i : kGroup);
    const Value* rrow[kGroup];
    for (unsigned j = 0; j < m; ++j) {
      rrow[j] = rows.row_unchecked(row_ids[i + j]);
    }
    std::uint64_t bits[kGroup];
    unsigned worse[kGroup];
    Isa::Masks(pivot_row, rrow, m, d, bits, worse);
    for (unsigned j = 0; j < m; ++j) {
      out_masks[i + j] = Subspace(bits[j]);
      out_worse[i + j] = worse[j] != 0 ? 1 : 0;
    }
  }
}

/// The ops table of backend `Isa`.
template <class Isa>
inline constexpr KernelOps kBatchOps = {
    &DominatesAny<Isa>,
    &DominatingSubspaceExBatch<Isa>,
};

}  // namespace simd
}  // namespace kernels
}  // namespace skyline

#endif  // SKYLINE_CORE_SIMD_BATCH_H_

// Portable backend of the batched dominance kernels: the
// flag-accumulating loops the compiler auto-vectorizes. This is the
// semantic reference every explicit-SIMD backend is differentially
// tested against, and the fallback the dispatcher uses on CPUs without
// AVX2.
//
// The quantized prefilter is implemented here too (as plain byte
// loops), so the prefilter on/off ablation is meaningful on every ISA
// level and the differential tests can pin the charge contract without
// needing vector hardware.
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/core/aligned_dataset.h"
#include "src/core/kernels.h"
#include "src/core/simd_dispatch.h"
#include "src/core/subspace.h"
#include "src/core/types.h"

namespace skyline {
namespace kernels {
namespace simd {

namespace {

/// True when summary row `s` is strictly above `q` in some dimension —
/// by monotonicity that PROVES the exact row cannot dominate q. Reads
/// the whole packed row (`qstride` bytes); the padding tail is neutral
/// zero on both sides, so equal bytes never fire.
bool QuantWorseSomewhere(const std::uint8_t* SKYLINE_RESTRICT s,
                         const std::uint8_t* SKYLINE_RESTRICT q,
                         std::size_t qstride) {
  unsigned worse = 0;
  for (std::size_t k = 0; k < qstride; ++k) {
    worse |= static_cast<unsigned>(s[k] > q[k]);
  }
  return worse != 0;
}

BatchProbeResult DominatesAnyScalar(const AlignedDataset& rows,
                                    std::span<const PointId> ids,
                                    const std::uint8_t* qrows,
                                    const Value* q_row,
                                    const std::uint8_t* q_quant, Dim d) {
  const std::size_t qstride = rows.qstride();
  BatchProbeResult r;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ++r.scanned;
    // A prefilter reject still charges: the scalar reference loop
    // would have scanned this member (and found it non-dominating).
    if (q_quant != nullptr &&
        QuantWorseSomewhere(qrows + i * qstride, q_quant, qstride)) {
      continue;
    }
    if (Dominates(rows.row_unchecked(ids[i]), q_row, d)) {
      r.first = i;
      return r;
    }
  }
  return r;
}

BatchSubspaceResult DominatingSubspaceBatchScalar(const AlignedDataset& rows,
                                                  std::span<const PointId> ids,
                                                  const Value* q_row, Dim d) {
  BatchSubspaceResult r;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ++r.scanned;
    bool q_worse = false;
    const Subspace m =
        DominatingSubspaceEx(q_row, rows.row_unchecked(ids[i]), d, &q_worse);
    if (m.empty() && q_worse) {
      r.dominated_by = i;
      return r;
    }
    r.mask |= m;
  }
  return r;
}

void DominatingSubspaceExBatchScalar(const AlignedDataset& rows,
                                     std::span<const std::uint32_t> row_ids,
                                     const Value* pivot_row, Dim d,
                                     Subspace* out_masks,
                                     std::uint8_t* out_worse) {
  for (std::size_t i = 0; i < row_ids.size(); ++i) {
    bool worse = false;
    out_masks[i] = DominatingSubspaceEx(rows.row_unchecked(row_ids[i]),
                                        pivot_row, d, &worse);
    out_worse[i] = worse ? 1 : 0;
  }
}

}  // namespace

const KernelOps kScalarOps = {
    &DominatesAnyScalar,
    &DominatingSubspaceBatchScalar,
    &DominatingSubspaceExBatchScalar,
};

}  // namespace simd
}  // namespace kernels
}  // namespace skyline

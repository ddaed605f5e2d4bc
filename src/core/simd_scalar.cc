// Portable backend of the batched dominance kernels: the primitives of
// src/core/simd_batch.h as plain loops the compiler auto-vectorizes,
// under the same shared loops as the AVX2 and AVX-512 backends. It is
// the fallback the dispatcher uses on CPUs without AVX2; the
// differential tests check it, like every backend, against scalar
// loops of their own.
//
// The quantized prefilter is implemented here too (as plain byte
// loops), so the prefilter on/off ablation is meaningful on every ISA
// level and the differential tests can pin the charge contract without
// needing vector hardware.
#include <cstddef>
#include <cstdint>

#include "src/core/kernels.h"
#include "src/core/simd_batch.h"
#include "src/core/simd_dispatch.h"
#include "src/core/types.h"

namespace skyline {
namespace kernels {
namespace simd {

namespace {

/// The portable primitives of src/core/simd_batch.h.
struct Scalar {
  /// Rows per primitive call, as in the vector backends.
  static constexpr unsigned kGroup = 4;

  /// Bit j set iff p[j] dominates q.
  static unsigned Dominates(const Value* const* p, unsigned m,
                            const Value* q, Dim d) {
    unsigned out = 0;
    for (unsigned j = 0; j < m; ++j) {
      out |= static_cast<unsigned>(kernels::Dominates(p[j], q, d)) << j;
    }
    return out;
  }

  /// D_{rows[j]<p} bits plus the rows[j]-somewhere-worse flag.
  static void Masks(const Value* p, const Value* const* rows, unsigned m,
                    Dim d, std::uint64_t* out_bits, unsigned* out_worse) {
    for (unsigned j = 0; j < m; ++j) {
      bool worse = false;
      out_bits[j] =
          kernels::DominatingSubspaceEx(rows[j], p, d, &worse).bits();
      out_worse[j] = worse ? 1u : 0u;
    }
  }

  /// Bit j set iff packed row j (of m contiguous rows) has no byte
  /// above the probe row q. A byte above q PROVES, by monotonicity,
  /// that the exact row cannot dominate; the padding tail is neutral
  /// zero on both sides, so equal bytes never fire.
  static std::uint64_t QuantMayDominate(const std::uint8_t* s, unsigned m,
                                        const std::uint8_t* q,
                                        std::size_t qstride) {
    std::uint64_t out = 0;
    for (unsigned j = 0; j < m; ++j) {
      const std::uint8_t* row = s + j * qstride;
      unsigned worse = 0;
      for (std::size_t k = 0; k < qstride; ++k) {
        worse |= static_cast<unsigned>(row[k] > q[k]);
      }
      out |= static_cast<std::uint64_t>(worse == 0) << j;
    }
    return out;
  }
};

}  // namespace

const KernelOps kScalarOps = kBatchOps<Scalar>;

}  // namespace simd
}  // namespace kernels
}  // namespace skyline

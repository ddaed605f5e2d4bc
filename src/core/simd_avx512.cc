// AVX-512 backend of the batched dominance kernels (requires F for the
// masked double compares and BW for the 64-lane byte compares of the
// quantized prefilter): the vector primitives the shared batched loops
// of src/core/simd_batch.h run on.
//
// Same layout facts and semantics contract as src/core/simd_avx2.cc;
// the differences are mechanical:
//   * rows are processed 8 doubles per vector with lane-mask tails
//     (_mm512_maskz_loadu_pd suppresses the masked lanes entirely, so
//     the poisoned exact-plane padding is never read and the masked
//     lanes compare as the neutral 0.0 vs 0.0);
//   * compares produce __mmask8 directly, so the D_{q<p} Subspace bits
//     are just the compare mask shifted into place — no movemask;
//   * packed quantized rows of 8 bytes (d <= 8) are tested eight at a
//     time: one 64-byte vector holds eight rows, and one byte max plus
//     one 64-bit-lane compare against the broadcast probe row gives
//     their eight verdicts; wider rows take one masked compare each.
#include <cstdint>
#include <cstring>

#include "src/core/simd_batch.h"
#include "src/core/simd_dispatch.h"
#include "src/core/types.h"

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

namespace skyline {
namespace kernels {
namespace simd {

namespace {

/// Lane mask enabling the first r of 8 64-bit lanes (r in 1..7).
inline __mmask8 TailMask(Dim r) {
  return static_cast<__mmask8>((1u << r) - 1u);
}

/// The AVX-512 primitives of src/core/simd_batch.h.
struct Avx512 {
  /// Rows interleaved per call, to break the compare->accumulate
  /// dependence chain.
  static constexpr unsigned kGroup = 4;

  /// Dominance of up to kGroup pivot rows over one probe row, as a
  /// bitmask (bit j set iff p[j] dominates q).
  static unsigned Dominates(const Value* const* p, unsigned m,
                            const Value* q, Dim d) {
    __mmask8 worse[kGroup] = {0, 0, 0, 0};
    __mmask8 better[kGroup] = {0, 0, 0, 0};
    Dim i = 0;
    for (; i + 8 <= d; i += 8) {
      const __m512d vq = _mm512_loadu_pd(q + i);
      for (unsigned j = 0; j < m; ++j) {
        const __m512d vp = _mm512_loadu_pd(p[j] + i);
        worse[j] |= _mm512_cmp_pd_mask(vp, vq, _CMP_GT_OQ);
        better[j] |= _mm512_cmp_pd_mask(vp, vq, _CMP_LT_OQ);
      }
    }
    if (i < d) {
      const __mmask8 tm = TailMask(d - i);
      const __m512d vq = _mm512_maskz_loadu_pd(tm, q + i);
      for (unsigned j = 0; j < m; ++j) {
        const __m512d vp = _mm512_maskz_loadu_pd(tm, p[j] + i);
        worse[j] |= _mm512_cmp_pd_mask(vp, vq, _CMP_GT_OQ);
        better[j] |= _mm512_cmp_pd_mask(vp, vq, _CMP_LT_OQ);
      }
    }
    unsigned out = 0;
    for (unsigned j = 0; j < m; ++j) {
      if (worse[j] == 0 && better[j] != 0) out |= 1u << j;
    }
    return out;
  }

  /// D_{rows[j]<p} bits plus the rows[j]-somewhere-worse flag.
  static void Masks(const Value* p, const Value* const* rows, unsigned m,
                    Dim d, std::uint64_t* out_bits, unsigned* out_worse) {
    std::uint64_t bits[kGroup] = {0, 0, 0, 0};
    __mmask8 worse[kGroup] = {0, 0, 0, 0};
    Dim i = 0;
    for (; i + 8 <= d; i += 8) {
      const __m512d vp = _mm512_loadu_pd(p + i);
      for (unsigned j = 0; j < m; ++j) {
        const __m512d vr = _mm512_loadu_pd(rows[j] + i);
        bits[j] |=
            static_cast<std::uint64_t>(_mm512_cmp_pd_mask(vr, vp, _CMP_LT_OQ))
            << i;
        worse[j] |= _mm512_cmp_pd_mask(vr, vp, _CMP_GT_OQ);
      }
    }
    if (i < d) {
      const __mmask8 tm = TailMask(d - i);
      const __m512d vp = _mm512_maskz_loadu_pd(tm, p + i);
      for (unsigned j = 0; j < m; ++j) {
        const __m512d vr = _mm512_maskz_loadu_pd(tm, rows[j] + i);
        bits[j] |=
            static_cast<std::uint64_t>(_mm512_cmp_pd_mask(vr, vp, _CMP_LT_OQ))
            << i;
        worse[j] |= _mm512_cmp_pd_mask(vr, vp, _CMP_GT_OQ);
      }
    }
    for (unsigned j = 0; j < m; ++j) {
      out_bits[j] = bits[j];
      out_worse[j] = worse[j] != 0 ? 1u : 0u;
    }
  }

  /// Bit j set iff packed row j (of m contiguous rows) has no byte
  /// above the probe row q. A row clears q iff max(s, q) == q byte-wise.
  /// Masked-off 64-bit lanes are neither read nor reported, so nothing
  /// past row m - 1 or past a row's qstride bytes is loaded.
  static std::uint64_t QuantMayDominate(const std::uint8_t* s, unsigned m,
                                        const std::uint8_t* q,
                                        std::size_t qstride) {
    std::uint64_t out = 0;
    if (qstride == 8) {
      std::uint64_t q8;
      std::memcpy(&q8, q, sizeof(q8));
      const __m512i vq = _mm512_set1_epi64(static_cast<long long>(q8));
      for (unsigned j = 0; j < m; j += 8) {
        const __mmask8 lanes =
            m - j >= 8 ? static_cast<__mmask8>(0xFF) : TailMask(m - j);
        const __m512i vs = _mm512_maskz_loadu_epi64(lanes, s + j * 8);
        const __mmask8 clear = _mm512_mask_cmpeq_epi64_mask(
            lanes, _mm512_max_epu8(vs, vq), vq);
        out |= static_cast<std::uint64_t>(clear) << j;
      }
      return out;
    }
    const __mmask8 words = static_cast<__mmask8>((1u << (qstride / 8)) - 1u);
    const __m512i vq = _mm512_maskz_loadu_epi64(words, q);
    for (unsigned j = 0; j < m; ++j) {
      const __m512i vs = _mm512_maskz_loadu_epi64(words, s + j * qstride);
      out |= static_cast<std::uint64_t>(_mm512_cmpgt_epu8_mask(vs, vq) == 0)
             << j;
    }
    return out;
  }
};

}  // namespace

const KernelOps* Avx512Ops() { return &kBatchOps<Avx512>; }

}  // namespace simd
}  // namespace kernels
}  // namespace skyline

#else  // !(defined(__AVX512F__) && defined(__AVX512BW__))

namespace skyline {
namespace kernels {
namespace simd {

const KernelOps* Avx512Ops() { return nullptr; }

}  // namespace simd
}  // namespace kernels
}  // namespace skyline

#endif  // defined(__AVX512F__) && defined(__AVX512BW__)

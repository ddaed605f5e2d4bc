// AVX2 backend of the batched dominance kernels: the vector primitives
// the shared batched loops of src/core/simd_batch.h run on.
//
// Layout facts the intrinsics rely on (see src/core/aligned_dataset.h):
//   * every exact row a batched kernel reads, probe and pivot rows
//     included, is an AlignedDataset row (no external probe row): 64-byte
//     aligned with a padded stride, but the padding tail may hold ANY
//     bit pattern (tests poison it with NaN and -inf), so tails are read
//     with _mm256_maskload_pd — masked lanes are architecturally not
//     read and materialize as 0.0, and 0.0 vs 0.0 compares false for
//     both GT and LT, i.e. neutral;
//   * packed quantized rows are qstride() bytes (a multiple of 8) with
//     a neutral zero tail on both sides; they are read with
//     _mm256_maskload_epi64, so no load reaches past a row or a block.
//
// Comparison predicates are ordered-quiet (_CMP_GT_OQ/_CMP_LT_OQ):
// false on NaN, exactly like the scalar `a > b` / `a < b`, which keeps
// results bit-identical to the scalar backend on NaN inputs.
#include <cstdint>
#include <cstring>

#include "src/core/simd_batch.h"
#include "src/core/simd_dispatch.h"
#include "src/core/types.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace skyline {
namespace kernels {
namespace simd {

namespace {

/// Lane-enable vector for r of 4 64-bit lanes (r in 1..4): the first r
/// lanes all-ones, the rest zero.
alignas(32) constexpr std::int64_t kTailTable[8] = {-1, -1, -1, -1,
                                                    0,  0,  0,  0};

inline __m256i TailMask(Dim r) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailTable + 4 - r));
}

/// The AVX2 primitives of src/core/simd_batch.h.
struct Avx2 {
  /// Rows interleaved per call, to break the compare->accumulate
  /// dependence chain.
  static constexpr unsigned kGroup = 4;

  /// Dominance of up to kGroup pivot rows over one probe row, as a
  /// bitmask (bit j set iff p[j] dominates q). Flag accumulation across
  /// the row, decision at the end — same shape as kernels::Dominates.
  static unsigned Dominates(const Value* const* p, unsigned m,
                            const Value* q, Dim d) {
    __m256d worse[kGroup];
    __m256d better[kGroup];
    for (unsigned j = 0; j < m; ++j) {
      worse[j] = _mm256_setzero_pd();
      better[j] = _mm256_setzero_pd();
    }
    Dim i = 0;
    for (; i + 4 <= d; i += 4) {
      const __m256d vq = _mm256_loadu_pd(q + i);
      for (unsigned j = 0; j < m; ++j) {
        const __m256d vp = _mm256_loadu_pd(p[j] + i);
        worse[j] = _mm256_or_pd(worse[j], _mm256_cmp_pd(vp, vq, _CMP_GT_OQ));
        better[j] =
            _mm256_or_pd(better[j], _mm256_cmp_pd(vp, vq, _CMP_LT_OQ));
      }
    }
    if (i < d) {
      const __m256i tm = TailMask(d - i);
      const __m256d vq = _mm256_maskload_pd(q + i, tm);
      for (unsigned j = 0; j < m; ++j) {
        const __m256d vp = _mm256_maskload_pd(p[j] + i, tm);
        worse[j] = _mm256_or_pd(worse[j], _mm256_cmp_pd(vp, vq, _CMP_GT_OQ));
        better[j] =
            _mm256_or_pd(better[j], _mm256_cmp_pd(vp, vq, _CMP_LT_OQ));
      }
    }
    unsigned out = 0;
    for (unsigned j = 0; j < m; ++j) {
      if (_mm256_movemask_pd(worse[j]) == 0 &&
          _mm256_movemask_pd(better[j]) != 0) {
        out |= 1u << j;
      }
    }
    return out;
  }

  /// D_{rows[j]<p} bits plus the rows[j]-somewhere-worse flag.
  static void Masks(const Value* p, const Value* const* rows, unsigned m,
                    Dim d, std::uint64_t* out_bits, unsigned* out_worse) {
    std::uint64_t bits[kGroup] = {0, 0, 0, 0};
    __m256d worse[kGroup];
    for (unsigned j = 0; j < m; ++j) worse[j] = _mm256_setzero_pd();
    Dim i = 0;
    for (; i + 4 <= d; i += 4) {
      const __m256d vp = _mm256_loadu_pd(p + i);
      for (unsigned j = 0; j < m; ++j) {
        const __m256d vr = _mm256_loadu_pd(rows[j] + i);
        bits[j] |= static_cast<std::uint64_t>(static_cast<unsigned>(
                       _mm256_movemask_pd(_mm256_cmp_pd(vr, vp, _CMP_LT_OQ))))
                   << i;
        worse[j] = _mm256_or_pd(worse[j], _mm256_cmp_pd(vr, vp, _CMP_GT_OQ));
      }
    }
    if (i < d) {
      const __m256i tm = TailMask(d - i);
      const __m256d vp = _mm256_maskload_pd(p + i, tm);
      for (unsigned j = 0; j < m; ++j) {
        const __m256d vr = _mm256_maskload_pd(rows[j] + i, tm);
        bits[j] |= static_cast<std::uint64_t>(static_cast<unsigned>(
                       _mm256_movemask_pd(_mm256_cmp_pd(vr, vp, _CMP_LT_OQ))))
                   << i;
        worse[j] = _mm256_or_pd(worse[j], _mm256_cmp_pd(vr, vp, _CMP_GT_OQ));
      }
    }
    for (unsigned j = 0; j < m; ++j) {
      out_bits[j] = bits[j];
      out_worse[j] = _mm256_movemask_pd(worse[j]) != 0 ? 1u : 0u;
    }
  }

  /// Bit j set iff packed row j (of m contiguous rows) has no byte
  /// above the probe row q: s <= q byte-wise iff max_epu8(s, q) == q.
  /// 8-byte rows go four to a vector against the broadcast probe; wider
  /// rows take one or two masked 32-byte compares each.
  static std::uint64_t QuantMayDominate(const std::uint8_t* s, unsigned m,
                                        const std::uint8_t* q,
                                        std::size_t qstride) {
    std::uint64_t out = 0;
    if (qstride == 8) {
      std::uint64_t q8;
      std::memcpy(&q8, q, sizeof(q8));
      const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q8));
      for (unsigned j = 0; j < m; j += 4) {
        const unsigned r = m - j < 4 ? m - j : 4;
        const __m256i vs = _mm256_maskload_epi64(
            reinterpret_cast<const long long*>(s + j * 8), TailMask(r));
        const __m256i clear =
            _mm256_cmpeq_epi64(_mm256_max_epu8(vs, vq), vq);
        const unsigned bits = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(clear)));
        out |= static_cast<std::uint64_t>(bits & ((1u << r) - 1u)) << j;
      }
      return out;
    }
    const unsigned words = static_cast<unsigned>(qstride / 8);
    const __m256i lo = TailMask(words < 4 ? words : 4);
    const __m256i vq0 =
        _mm256_maskload_epi64(reinterpret_cast<const long long*>(q), lo);
    __m256i hi = _mm256_setzero_si256();
    __m256i vq1 = _mm256_setzero_si256();
    if (words > 4) {
      hi = TailMask(words - 4);
      vq1 = _mm256_maskload_epi64(reinterpret_cast<const long long*>(q + 32),
                                  hi);
    }
    for (unsigned j = 0; j < m; ++j) {
      const std::uint8_t* row = s + j * qstride;
      const __m256i vs0 =
          _mm256_maskload_epi64(reinterpret_cast<const long long*>(row), lo);
      __m256i clear = _mm256_cmpeq_epi8(_mm256_max_epu8(vs0, vq0), vq0);
      if (words > 4) {
        const __m256i vs1 = _mm256_maskload_epi64(
            reinterpret_cast<const long long*>(row + 32), hi);
        clear = _mm256_and_si256(
            clear, _mm256_cmpeq_epi8(_mm256_max_epu8(vs1, vq1), vq1));
      }
      out |= static_cast<std::uint64_t>(_mm256_movemask_epi8(clear) == -1)
             << j;
    }
    return out;
  }
};

}  // namespace

const KernelOps* Avx2Ops() { return &kBatchOps<Avx2>; }

}  // namespace simd
}  // namespace kernels
}  // namespace skyline

#else  // !defined(__AVX2__)

namespace skyline {
namespace kernels {
namespace simd {

const KernelOps* Avx2Ops() { return nullptr; }

}  // namespace simd
}  // namespace kernels
}  // namespace skyline

#endif  // defined(__AVX2__)

// Dispatch table of the batched dominance kernels: the result struct
// shared by every ISA backend, the function-pointer table the runtime
// dispatcher (src/core/cpu.h) resolves once per process, and the
// per-ISA entry points implemented in src/core/simd_{scalar,avx2,
// avx512}.cc, each instantiated from the shared loops of
// src/core/simd_batch.h over that backend's primitives.
//
// Layering contract (enforced by scripts/check_invariants.py R7): raw
// intrinsics live ONLY in src/core/simd_*.cc. Everything else — the
// public wrappers of src/core/kernels.h included — reaches a batched
// kernel through KernelOps, so exactly one place decides which ISA
// executes and the differential tests can pin every backend against
// scalar loops of their own.
//
// Every backend implements the same semantics contract (see
// src/core/kernels.h): bit-identical booleans, Subspace bits,
// early-exit points, and `scanned` charges. The probe's packed row,
// when `dominates_any` is handed one, additionally lets the backend
// compare it against the members' packed quantized rows (see
// docs/kernels.md): a quantized reject is sound by construction, so
// results and charges are identical with the prefilter on or off.
#ifndef SKYLINE_CORE_SIMD_DISPATCH_H_
#define SKYLINE_CORE_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/core/aligned_dataset.h"
#include "src/core/subspace.h"
#include "src/core/types.h"

namespace skyline {
namespace kernels {

/// "No dominator found" sentinel of the batched probes.
inline constexpr std::size_t kNoDominator = static_cast<std::size_t>(-1);

/// Result of a one-vs-many probe over a pivot block.
struct BatchProbeResult {
  /// Block index (into the id span) of the first dominator, or
  /// kNoDominator.
  std::size_t first = kNoDominator;

  /// Dominance tests a scalar early-exit loop would have charged:
  /// the number of pivots up to and including the first dominator, or
  /// all pivots when none dominates.
  std::uint64_t scanned = 0;
};

namespace simd {

/// One ISA backend of the batched kernels. Callers never invoke a
/// backend directly; they go through cpu::ActiveOps() (or, in the
/// differential tests, cpu::OpsFor(level)).
struct KernelOps {
  BatchProbeResult (*dominates_any)(const AlignedDataset& rows,
                                    std::span<const PointId> ids,
                                    const std::uint8_t* qrows,
                                    const Value* q_row,
                                    const std::uint8_t* q_quant, Dim d);
  void (*dominating_subspace_ex_batch)(const AlignedDataset& rows,
                                       std::span<const std::uint32_t> row_ids,
                                       const Value* pivot_row, Dim d,
                                       Subspace* out_masks,
                                       std::uint8_t* out_worse);
};

/// Portable backend: the shared loops over plain-loop primitives the
/// compiler auto-vectorizes, the fallback on every platform.
extern const KernelOps kScalarOps;

/// Explicit-intrinsics backends. Null when the translation unit was
/// compiled without the matching -m flags (non-x86 target or an old
/// compiler); the dispatcher then never offers the level.
const KernelOps* Avx2Ops();
const KernelOps* Avx512Ops();

}  // namespace simd
}  // namespace kernels
}  // namespace skyline

#endif  // SKYLINE_CORE_SIMD_DISPATCH_H_

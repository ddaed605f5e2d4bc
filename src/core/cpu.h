// Runtime CPU feature detection and kernel dispatch.
//
// The batched dominance kernels have one implementation per ISA level
// (src/core/simd_*.cc); this module picks the widest level the running
// CPU supports, exactly once per process, and hands out the matching
// KernelOps table. The choice is overridable for testing with
//
//   SKYLINE_FORCE_ISA=scalar|avx2|avx512
//
// read once at first use. Forcing a level the CPU (or the build) cannot
// execute clamps DOWN to the widest available level — running an
// illegal-instruction path is never an option — and the clamp is
// visible in Description() so a CI matrix leg that silently degraded
// can be detected from its logs.
//
// The quantized block prefilter (docs/kernels.md) is on by default and
// can be disabled with SKYLINE_PREFILTER=0 (or off/false); bench
// ablation and the differential tests flip it at runtime through
// SetPrefilterEnabledForTesting. Results are bit-identical either way —
// the flag only trades summary-plane compares against exact double
// compares.
#ifndef SKYLINE_CORE_CPU_H_
#define SKYLINE_CORE_CPU_H_

#include <string>

#include "src/core/simd_dispatch.h"

namespace skyline {
namespace cpu {

/// ISA levels of the kernel backends, widest last. The numeric order is
/// meaningful: forcing clamps toward kScalar, never upward.
enum class IsaLevel { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

inline constexpr IsaLevel kAllLevels[] = {IsaLevel::kScalar, IsaLevel::kAvx2,
                                          IsaLevel::kAvx512};

/// Lower-case level name ("scalar", "avx2", "avx512").
const char* IsaName(IsaLevel level);

/// Widest level this process can execute: the CPU supports it AND the
/// matching backend was compiled in. Resolved once, before any force.
IsaLevel DetectedIsa();

/// The level the dispatcher actually uses: DetectedIsa() clamped by
/// SKYLINE_FORCE_ISA. Resolved once per process.
IsaLevel ActiveIsa();

/// Ops table of a specific level, or nullptr when that level is not
/// executable here. OpsFor(ActiveIsa()) is never null. The differential
/// tests iterate all non-null tables to pin every backend against
/// scalar loops of their own on the same machine.
const kernels::simd::KernelOps* OpsFor(IsaLevel level);

/// The dispatched table — what src/core/kernels.h routes through.
const kernels::simd::KernelOps& ActiveOps();

/// Whether the probe callers (SubsetIndex::FindDominator, the skycube
/// window scan, step 2 of the parallel subset engine) hand
/// DominatesAny packed rows, so it consults the quantized summary plane
/// (when the dataset carries one). Default on; SKYLINE_PREFILTER=0
/// disables.
bool PrefilterEnabled();

/// Runtime override of the prefilter default, for bench ablation and
/// tests. Not thread-safe against in-flight kernels by design: flip it
/// only from single-threaded setup code.
void SetPrefilterEnabledForTesting(bool enabled);

/// Skycube window seeds of fewer candidates skip the quantized plane:
/// building it costs O(n*d) over the gathered block, which only
/// amortizes over enough probes.
inline constexpr std::size_t kPrefilterMinBlock = 8;

/// One-line summary for logs and bench metadata, e.g.
/// "isa=avx512 detected=avx512 forced=none prefilter=on".
std::string Description();

}  // namespace cpu
}  // namespace skyline

#endif  // SKYLINE_CORE_CPU_H_

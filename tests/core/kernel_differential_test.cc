// Randomized differential tests of the vectorized kernel layer
// (src/core/kernels.h) against the scalar reference functions of
// src/core/dominance.h: identical results on ties, duplicate rows,
// degenerate dimensionalities (d=1, d=64 — the Subspace maximum),
// padded-tail garbage, and identical dominance-test charges from the
// batched paths (the DominanceTester counter contract).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/aligned_dataset.h"
#include "src/core/cpu.h"
#include "src/core/dominance.h"
#include "src/core/kernels.h"
#include "src/core/simd_dispatch.h"

namespace skyline {
namespace {

/// Random dataset engineered for collisions: values drawn from a coarse
/// grid (ties in single dimensions), plus every fourth row duplicated
/// verbatim from an earlier row (full-row ties).
Dataset TieHeavyDataset(std::size_t n, Dim d, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> grid(0, 3);
  std::vector<Value> values;
  values.reserve(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 4 == 3 && i > 0) {
      const std::size_t copy_of = rng() % i;
      for (Dim k = 0; k < d; ++k) {
        values.push_back(values[copy_of * d + k]);
      }
    } else {
      for (Dim k = 0; k < d; ++k) {
        values.push_back(static_cast<Value>(grid(rng)) / 4);
      }
    }
  }
  return Dataset(d, std::move(values));
}

/// The packed rows of `ids`, in id order and exactly sized, as a
/// SubsetIndex node or the skycube window holds them beside their ids
/// (empty without a plane).
std::vector<std::uint8_t> PackedRows(const AlignedDataset& aligned,
                                     std::span<const PointId> ids) {
  std::vector<std::uint8_t> out;
  if (!aligned.has_quantized()) return out;
  for (PointId id : ids) {
    const std::uint8_t* row = aligned.qrow_unchecked(id);
    out.insert(out.end(), row, row + aligned.qstride());
  }
  return out;
}

const Dim kDims[] = {1, 2, 3, 8, 13, 24, 64};

TEST(KernelDifferentialTest, PairwiseKernelsAgreeOnTieHeavyData) {
  for (Dim d : kDims) {
    const std::size_t n = 48;
    const Dataset data = TieHeavyDataset(n, d, 1000 + d);
    const AlignedDataset aligned(data);
    for (PointId a = 0; a < n; ++a) {
      for (PointId b = 0; b < n; ++b) {
        const Value* sa = data.row(a);
        const Value* sb = data.row(b);
        const Value* ka = aligned.row(a);
        const Value* kb = aligned.row(b);
        EXPECT_EQ(Dominates(sa, sb, d), kernels::Dominates(ka, kb, d))
            << "d=" << d << " a=" << a << " b=" << b;
        EXPECT_EQ(DominatesOrEqual(sa, sb, d),
                  kernels::DominatesOrEqual(ka, kb, d))
            << "d=" << d << " a=" << a << " b=" << b;
        EXPECT_EQ(Compare(sa, sb, d), kernels::Compare(ka, kb, d))
            << "d=" << d << " a=" << a << " b=" << b;
        EXPECT_EQ(DominatingSubspace(sa, sb, d),
                  kernels::DominatingSubspace(ka, kb, d))
            << "d=" << d << " a=" << a << " b=" << b;
        bool scalar_worse = false;
        bool kernel_worse = false;
        EXPECT_EQ(DominatingSubspaceEx(sa, sb, d, &scalar_worse),
                  kernels::DominatingSubspaceEx(ka, kb, d, &kernel_worse))
            << "d=" << d << " a=" << a << " b=" << b;
        EXPECT_EQ(scalar_worse, kernel_worse)
            << "d=" << d << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(KernelDifferentialTest, KernelsNeverReadThePaddingTail) {
  // Poison the padding with the nastiest values available; every kernel
  // must still agree with the scalar reference over the packed rows.
  const Value kPoison[] = {std::numeric_limits<Value>::quiet_NaN(),
                           -std::numeric_limits<Value>::infinity(), -1e300};
  for (Dim d : {Dim{1}, Dim{3}, Dim{8}, Dim{13}}) {
    const std::size_t n = 32;
    const Dataset data = TieHeavyDataset(n, d, 2000 + d);
    for (Value poison : kPoison) {
      AlignedDataset aligned(data);
      aligned.FillPaddingForTesting(poison);
      for (PointId a = 0; a < n; ++a) {
        for (PointId b = 0; b < n; ++b) {
          EXPECT_EQ(Dominates(data.row(a), data.row(b), d),
                    kernels::Dominates(aligned.row(a), aligned.row(b), d));
          bool sw = false;
          bool kw = false;
          EXPECT_EQ(
              DominatingSubspaceEx(data.row(a), data.row(b), d, &sw),
              kernels::DominatingSubspaceEx(aligned.row(a), aligned.row(b), d,
                                            &kw));
          EXPECT_EQ(sw, kw);
        }
      }
    }
  }
}

TEST(KernelDifferentialTest, AlignedRowsStartOnCacheLines) {
  for (Dim d : kDims) {
    const Dataset data = TieHeavyDataset(9, d, 3000 + d);
    const AlignedDataset aligned(data);
    EXPECT_EQ(aligned.stride() % (kRowAlignment / sizeof(Value)), 0u);
    EXPECT_GE(aligned.stride(), d);
    for (std::size_t i = 0; i < aligned.num_rows(); ++i) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(aligned.row(i)) %
                    kRowAlignment,
                0u)
          << "d=" << d << " row=" << i;
    }
  }
}

TEST(KernelDifferentialTest, GatheredBlockMatchesSourceRows) {
  const Dim d = 7;
  const Dataset data = TieHeavyDataset(40, d, 99);
  const std::vector<PointId> ids = {31, 2, 2, 17, 0, 39};  // dups allowed
  const AlignedDataset block(data, ids);
  ASSERT_EQ(block.num_rows(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (Dim k = 0; k < d; ++k) {
      EXPECT_EQ(block.row(i)[k], data.row(ids[i])[k]);
    }
  }
}

TEST(KernelDifferentialTest, DominatesAnyMatchesScalarLoopAndCharge) {
  std::mt19937_64 rng(4242);
  for (Dim d : {Dim{1}, Dim{4}, Dim{8}, Dim{24}}) {
    const std::size_t n = 64;
    const Dataset data = TieHeavyDataset(n, d, 4000 + d);
    AlignedDataset aligned(data);
    // Plane built so the dispatched wrapper gets packed rows, as the
    // probe callers hand it them, unless SKYLINE_PREFILTER is off.
    aligned.EnsureQuantized();
    const bool prefilter = cpu::PrefilterEnabled();
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<PointId> candidates(rng() % 12);
      for (PointId& c : candidates) c = static_cast<PointId>(rng() % n);
      const PointId q = static_cast<PointId>(rng() % n);

      // Scalar reference: early-exit loop with one charge per pivot
      // scanned, the contract the batched kernel must reproduce.
      std::size_t scalar_first = kernels::kNoDominator;
      std::uint64_t scalar_scanned = 0;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        ++scalar_scanned;
        if (Dominates(data.row(candidates[i]), data.row(q), d)) {
          scalar_first = i;
          break;
        }
      }

      const std::vector<std::uint8_t> packed = PackedRows(aligned, candidates);
      const kernels::BatchProbeResult r = kernels::DominatesAny(
          aligned, candidates, packed.data(), aligned.row(q),
          prefilter ? aligned.qrow_unchecked(q) : nullptr, d);
      EXPECT_EQ(r.first, scalar_first) << "d=" << d << " trial=" << trial;
      EXPECT_EQ(r.scanned, scalar_scanned) << "d=" << d << " trial=" << trial;
    }
  }
}

TEST(KernelDifferentialTest, DominatingSubspaceExBatchMatchesPairKernel) {
  for (Dim d : {Dim{1}, Dim{8}, Dim{64}}) {
    const std::size_t n = 48;
    const Dataset data = TieHeavyDataset(n, d, 6000 + d);
    const AlignedDataset aligned(data);
    // 27 rows: the last 4-row group holds 3.
    std::vector<std::uint32_t> rows;
    for (std::uint32_t i = 0; i < n; i += 2) rows.push_back(i);
    rows.insert(rows.end(), {1, 3, 5});
    for (PointId pivot = 0; pivot < 8; ++pivot) {
      std::vector<Subspace> masks(rows.size());
      std::vector<std::uint8_t> worse(rows.size());
      kernels::DominatingSubspaceExBatch(aligned, rows, aligned.row(pivot), d,
                                         masks.data(), worse.data());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        bool scalar_worse = false;
        const Subspace m = DominatingSubspaceEx(
            data.row(rows[i]), data.row(pivot), d, &scalar_worse);
        EXPECT_EQ(masks[i], m) << "d=" << d << " i=" << i;
        EXPECT_EQ(worse[i] != 0, scalar_worse) << "d=" << d << " i=" << i;
      }
    }
  }
}

// The DominanceTester counter contract (src/core/dominance.h): one test
// per pivot actually scanned — a batched DominatesAny call must charge
// exactly what the equivalent sequence of the tester's single-pair calls
// charges.
TEST(KernelDifferentialTest, DominanceTesterBatchedChargeEqualsScalarCharge) {
  std::mt19937_64 rng(31337);
  const Dim d = 8;
  const std::size_t n = 96;
  const Dataset data = TieHeavyDataset(n, d, 7000);
  AlignedDataset aligned(data);
  ASSERT_TRUE(aligned.EnsureQuantized());
  const bool prefilter = cpu::PrefilterEnabled();
  DominanceTester pairwise(data);
  std::uint64_t batched_tests = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<PointId> candidates(rng() % 16);
    for (PointId& c : candidates) c = static_cast<PointId>(rng() % n);
    const PointId q = static_cast<PointId>(rng() % n);

    bool scalar_dominated = false;
    for (PointId s : candidates) {
      if (pairwise.Dominates(s, q)) {
        scalar_dominated = true;
        break;
      }
    }
    const std::vector<std::uint8_t> packed = PackedRows(aligned, candidates);
    const kernels::BatchProbeResult batched = kernels::DominatesAny(
        aligned, candidates, packed.data(), aligned.row(q),
        prefilter ? aligned.qrow_unchecked(q) : nullptr, d);
    batched_tests += batched.scanned;

    EXPECT_EQ(batched.first != kernels::kNoDominator, scalar_dominated)
        << "trial=" << trial;
    EXPECT_EQ(batched_tests, pairwise.tests()) << "trial=" << trial;
  }
  EXPECT_GT(batched_tests, 0u);
}

TEST(KernelDifferentialTest, SingleDimensionAndMaxDimensionEdges) {
  // d=1: dominance degenerates to <; d=64: every Subspace bit in use.
  {
    const Dataset data = Dataset::FromRows({{0.0}, {0.0}, {1.0}});
    const AlignedDataset aligned(data);
    EXPECT_FALSE(kernels::Dominates(aligned.row(0), aligned.row(1), 1));
    EXPECT_TRUE(kernels::Dominates(aligned.row(0), aligned.row(2), 1));
    EXPECT_EQ(kernels::Compare(aligned.row(0), aligned.row(1), 1),
              DominanceRelation::kEqual);
    EXPECT_EQ(kernels::DominatingSubspace(aligned.row(0), aligned.row(2), 1),
              Subspace({0}));
  }
  {
    const Dim d = 64;
    // Row 0 is all zeros (better), row 1 all ones (worse).
    std::vector<Value> values(2 * d, 0.0);
    std::fill(values.begin() + d, values.end(), 1.0);
    const Dataset data(d, std::move(values));
    const AlignedDataset aligned(data);
    EXPECT_TRUE(kernels::Dominates(aligned.row(0), aligned.row(1), d));
    EXPECT_EQ(kernels::DominatingSubspace(aligned.row(0), aligned.row(1), d),
              Subspace::Full(d));
    bool w = false;
    EXPECT_EQ(
        kernels::DominatingSubspaceEx(aligned.row(1), aligned.row(0), d, &w),
        Subspace{});
    EXPECT_TRUE(w);
  }
}

// ---------------------------------------------------------------------------
// Per-backend differentials: every backend cpu::OpsFor exposes (scalar,
// AVX2, AVX-512 — whichever are executable here), with the quantized
// prefilter both off and on, must reproduce the scalar reference loops
// exactly: same booleans, same Subspace bits, same `scanned` charges.
// CI additionally runs this whole binary once per backend under
// SKYLINE_FORCE_ISA, which exercises the *dispatched* wrappers of
// src/core/kernels.h per level; the loops below cover every compiled
// backend within a single process regardless of the forced level.
// ---------------------------------------------------------------------------

/// Scalar early-exit DominatesAny reference (result + charge).
void ScalarDominatesAny(const Dataset& data,
                        const std::vector<PointId>& candidates, PointId q,
                        Dim d, std::size_t* first, std::uint64_t* scanned) {
  *first = kernels::kNoDominator;
  *scanned = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    ++*scanned;
    if (Dominates(data.row(candidates[i]), data.row(q), d)) {
      *first = i;
      return;
    }
  }
}

/// Runs the full batched differential (both batched kernels, random
/// candidate lists with duplicates) for one backend and prefilter
/// setting against one dataset.
void CheckBackendAgainstScalar(const kernels::simd::KernelOps& ops,
                               const char* isa, bool prefilter,
                               const Dataset& data,
                               const AlignedDataset& aligned, Dim d,
                               std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::size_t n = data.num_points();
  for (int trial = 0; trial < 120; ++trial) {
    std::vector<PointId> candidates(rng() % 20);
    for (PointId& c : candidates) c = static_cast<PointId>(rng() % n);
    const PointId q = static_cast<PointId>(rng() % n);

    std::size_t want_first;
    std::uint64_t want_scanned;
    ScalarDominatesAny(data, candidates, q, d, &want_first, &want_scanned);
    const std::vector<std::uint8_t> packed = PackedRows(aligned, candidates);
    const kernels::BatchProbeResult probe = ops.dominates_any(
        aligned, candidates, packed.data(), aligned.row(q),
        prefilter ? aligned.qrow_unchecked(q) : nullptr, d);
    EXPECT_EQ(probe.first, want_first)
        << isa << " prefilter=" << prefilter << " d=" << d
        << " trial=" << trial;
    EXPECT_EQ(probe.scanned, want_scanned)
        << isa << " prefilter=" << prefilter << " d=" << d
        << " trial=" << trial;
  }

  // The one-vs-many Ex form (Merge inner loop) per backend, over row
  // counts whose last 4-row group holds 1, 2, 3 and 4 rows. Outputs
  // past the count must stay untouched.
  std::vector<std::uint32_t> rows;
  for (std::uint32_t i = 0; i < n; i += 3) rows.push_back(i);
  const Subspace untouched(~std::uint64_t{0});
  std::vector<Subspace> masks(rows.size());
  std::vector<std::uint8_t> worse(rows.size());
  for (std::size_t count = rows.size() - 3; count <= rows.size(); ++count) {
    const std::span<const std::uint32_t> batch(rows.data(), count);
    for (PointId pivot = 0; pivot < std::min<std::size_t>(n, 6); ++pivot) {
      std::fill(masks.begin(), masks.end(), untouched);
      ops.dominating_subspace_ex_batch(aligned, batch, aligned.row(pivot), d,
                                       masks.data(), worse.data());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i >= count) {
          EXPECT_EQ(masks[i], untouched)
              << isa << " d=" << d << " count=" << count << " i=" << i;
          continue;
        }
        bool scalar_worse = false;
        const Subspace m = DominatingSubspaceEx(
            data.row(rows[i]), data.row(pivot), d, &scalar_worse);
        EXPECT_EQ(masks[i], m)
            << isa << " d=" << d << " count=" << count << " i=" << i;
        EXPECT_EQ(worse[i] != 0, scalar_worse)
            << isa << " d=" << d << " count=" << count << " i=" << i;
      }
    }
  }
}

TEST(KernelDifferentialTest, EveryBackendMatchesScalarWithPoisonedPadding) {
  // Every AVX2 tail width (d mod 4) and AVX-512 tail width (d mod 8),
  // with and without whole chunks before the tail.
  for (Dim d : {Dim{1}, Dim{2}, Dim{3}, Dim{4}, Dim{6}, Dim{7}, Dim{8},
                Dim{13}, Dim{15}, Dim{18}, Dim{24}, Dim{64}}) {
    const std::size_t n = 72;
    const Dataset data = TieHeavyDataset(n, d, 8000 + d);
    AlignedDataset aligned(data);
    // The exact plane's padding is poisoned; tail loads in the SIMD
    // backends must mask it out. (The quantized plane keeps its neutral
    // zero padding — that IS its contract.)
    aligned.FillPaddingForTesting(std::numeric_limits<Value>::quiet_NaN());
    // Built AFTER poisoning: the lazy plane build sweeps only the
    // packed columns, so poison in the tail must not leak into the
    // grid (or trip its finiteness check).
    ASSERT_TRUE(aligned.EnsureQuantized());
    ASSERT_TRUE(aligned.has_quantized());
    for (cpu::IsaLevel level : cpu::kAllLevels) {
      const kernels::simd::KernelOps* ops = cpu::OpsFor(level);
      if (ops == nullptr) continue;
      for (bool prefilter : {false, true}) {
        CheckBackendAgainstScalar(*ops, cpu::IsaName(level), prefilter, data,
                                  aligned, d, 9000 + d);
      }
    }
  }
}

/// Rows drawn from the exact bucket-edge lattice of the quantization
/// grid: with per-dimension range [0, 255] the grid maps v to bucket
/// floor(v), so values k, k - eps, k + eps straddle bucket borders —
/// the spots where an unsound rounding rule would let the prefilter
/// reject a true dominator.
Dataset BucketBoundaryDataset(Dim d) {
  std::mt19937_64 rng(0xb0a7);
  Dataset data(d);
  std::vector<Value> row(d);
  // Anchor rows pinning the grid to [0, 255] in every dimension.
  std::fill(row.begin(), row.end(), 0.0);
  data.Append(row);
  std::fill(row.begin(), row.end(), 255.0);
  data.Append(row);
  for (int i = 0; i < 96; ++i) {
    for (Dim k = 0; k < d; ++k) {
      const double base = static_cast<double>(rng() % 256);
      const int jitter = static_cast<int>(rng() % 3) - 1;
      row[k] = std::min(255.0, std::max(0.0, base + jitter * 1e-9));
    }
    data.Append(row);
  }
  return data;
}

TEST(KernelDifferentialTest, BackendsAgreeOnBucketBoundaryValues) {
  const Dim d = 6;
  const Dataset data = BucketBoundaryDataset(d);
  AlignedDataset aligned(data);
  ASSERT_TRUE(aligned.EnsureQuantized());
  for (cpu::IsaLevel level : cpu::kAllLevels) {
    const kernels::simd::KernelOps* ops = cpu::OpsFor(level);
    if (ops == nullptr) continue;
    CheckBackendAgainstScalar(*ops, cpu::IsaName(level), /*prefilter=*/true,
                              data, aligned, d, 0xfeed);
  }
}

// ---------------------------------------------------------------------------
// The probe kernel over blocks of every length: a block of 0..17
// members, each with its packed row copied out of the plane into an
// exactly sized buffer (as a SubsetIndex node holds them, so a read
// past the block or past a row is visible to ASan), must give the
// scalar early-exit loop's `first` and `scanned` on every backend, with
// the probe's packed row (prefilter on) and without it (exact compares
// only).
// ---------------------------------------------------------------------------

/// Checks every backend's probe kernel over blocks of every length in
/// 0..17 drawn from `data`. With `with_plane` the prefilter runs both on
/// and off; without, only the exact walk is possible.
void CheckPackedBlocksAgainstScalar(const Dataset& data,
                                    const AlignedDataset& aligned, Dim d,
                                    bool with_plane, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::size_t n = data.num_points();
  const std::size_t qstride = aligned.qstride();
  for (int trial = 0; trial < 90; ++trial) {
    const std::size_t len = static_cast<std::size_t>(trial) % 18;
    const PointId q = static_cast<PointId>(rng() % n);
    std::vector<PointId> ids(len);
    for (PointId& id : ids) id = static_cast<PointId>(rng() % n);
    // A member equal to the probe: never a dominator, never rejected.
    if (len > 0 && trial % 3 == 0) ids[rng() % len] = q;

    const std::vector<std::uint8_t> qrows = PackedRows(aligned, ids);
    std::vector<std::uint8_t> q_packed;
    if (with_plane) {
      const std::uint8_t* row = aligned.qrow_unchecked(q);
      q_packed.assign(row, row + qstride);
    }
    std::size_t want_first;
    std::uint64_t want_scanned;
    ScalarDominatesAny(data, ids, q, d, &want_first, &want_scanned);
    for (cpu::IsaLevel level : cpu::kAllLevels) {
      const kernels::simd::KernelOps* ops = cpu::OpsFor(level);
      if (ops == nullptr) continue;
      for (bool prefilter : {false, true}) {
        if (prefilter && !with_plane) continue;
        const kernels::BatchProbeResult r = ops->dominates_any(
            aligned, ids, qrows.data(), aligned.row(q),
            prefilter ? q_packed.data() : nullptr, d);
        EXPECT_EQ(r.first, want_first)
            << cpu::IsaName(level) << " prefilter=" << prefilter
            << " d=" << d << " len=" << len << " trial=" << trial;
        EXPECT_EQ(r.scanned, want_scanned)
            << cpu::IsaName(level) << " prefilter=" << prefilter
            << " d=" << d << " len=" << len << " trial=" << trial;
      }
    }
  }
}

TEST(KernelDifferentialTest, PackedBlockMatchesScalarOnEveryBackendAndWidth) {
  // Every packed width (qstride 8..64) and, at d <= 8, every count of
  // used bytes in the 8-byte row.
  for (Dim d : {Dim{1}, Dim{2}, Dim{3}, Dim{4}, Dim{5}, Dim{6}, Dim{7},
                Dim{8}, Dim{9}, Dim{15}, Dim{16}, Dim{17}, Dim{24},
                Dim{64}}) {
    const Dataset data = TieHeavyDataset(80, d, 16000 + d);
    AlignedDataset aligned(data);
    aligned.FillPaddingForTesting(std::numeric_limits<Value>::quiet_NaN());
    ASSERT_TRUE(aligned.EnsureQuantized());
    EXPECT_EQ(aligned.qstride(), (static_cast<std::size_t>(d) + 7) / 8 * 8);
    CheckPackedBlocksAgainstScalar(data, aligned, d, /*with_plane=*/true,
                                   17000 + d);
  }
}

TEST(KernelDifferentialTest, PackedBlockAgreesOnBucketBoundaryValues) {
  for (Dim d : {Dim{6}, Dim{8}, Dim{12}}) {
    const Dataset data = BucketBoundaryDataset(d);
    AlignedDataset aligned(data);
    ASSERT_TRUE(aligned.EnsureQuantized());
    CheckPackedBlocksAgainstScalar(data, aligned, d, /*with_plane=*/true,
                                   0xbeef + d);
  }
}

TEST(KernelDifferentialTest, PackedBlockWithoutPlaneRunsExactCompares) {
  // A NaN anywhere leaves the dataset without a plane: the node walk
  // then hands the kernel no packed rows and it must still agree.
  const Dim d = 8;
  Dataset data = TieHeavyDataset(40, d, 18000);
  std::vector<Value> row(d, 0.5);
  row[3] = std::numeric_limits<Value>::quiet_NaN();
  data.Append(row);
  AlignedDataset aligned(data);
  ASSERT_FALSE(aligned.EnsureQuantized());
  CheckPackedBlocksAgainstScalar(data, aligned, d, /*with_plane=*/false,
                                 18001);
}

TEST(KernelDifferentialTest, QuantizeRowIsMonotoneAndExactOnMembers) {
  const Dim d = 9;
  const Dataset data = TieHeavyDataset(64, d, 11000);
  AlignedDataset aligned(data);
  ASSERT_TRUE(aligned.EnsureQuantized());

  // Member rows quantize to exactly their stored quantized line — the
  // probe-side QuantizeRow and the build-side bucketing must be the
  // same function, or a row could prefilter-reject itself.
  alignas(kRowAlignment) std::uint8_t qbuf[AlignedDataset::kMaxQuantDims];
  for (std::size_t i = 0; i < aligned.num_rows(); ++i) {
    ASSERT_TRUE(aligned.QuantizeRow(aligned.row(i), qbuf));
    const std::uint8_t* stored = aligned.qrow_unchecked(i);
    for (std::size_t b = 0; b < aligned.qstride(); ++b) {
      ASSERT_EQ(qbuf[b], stored[b]) << "row=" << i << " byte=" << b;
    }
  }

  // Monotone per dimension: v1 <= v2 implies bucket(v1) <= bucket(v2),
  // including values far outside the build range (they clamp).
  std::mt19937_64 rng(0xc0de);
  std::vector<Value> a(d), b(d);
  alignas(kRowAlignment) std::uint8_t qa[AlignedDataset::kMaxQuantDims];
  alignas(kRowAlignment) std::uint8_t qb[AlignedDataset::kMaxQuantDims];
  for (int trial = 0; trial < 500; ++trial) {
    for (Dim k = 0; k < d; ++k) {
      const double lo = -1.0 + 3.0 * (static_cast<double>(rng() % 10000) /
                                      10000.0);
      const double hi = lo + 2.0 * (static_cast<double>(rng() % 10000) /
                                    10000.0);
      a[k] = lo;
      b[k] = hi;
    }
    ASSERT_TRUE(aligned.QuantizeRow(a.data(), qa));
    ASSERT_TRUE(aligned.QuantizeRow(b.data(), qb));
    for (Dim k = 0; k < d; ++k) {
      EXPECT_LE(qa[k], qb[k]) << "trial=" << trial << " k=" << k;
    }
  }
}

TEST(KernelDifferentialTest, NonFiniteProbeSkipsPrefilterButStaysExact) {
  // Dataset finite (quantized plane exists) but the probe row has a
  // NaN / infinity: QuantizeRow must refuse it, and the probe kernel,
  // handed the members' packed rows but no packed probe row, must still
  // match the scalar reference bit for bit.
  const Dim d = 5;
  const Dataset data = TieHeavyDataset(48, d, 12000);
  AlignedDataset aligned(data);
  ASSERT_TRUE(aligned.EnsureQuantized());

  const Value kBad[] = {std::numeric_limits<Value>::quiet_NaN(),
                        std::numeric_limits<Value>::infinity(),
                        -std::numeric_limits<Value>::infinity()};
  std::vector<PointId> all(aligned.num_rows());
  std::iota(all.begin(), all.end(), PointId{0});
  const std::vector<std::uint8_t> packed = PackedRows(aligned, all);
  for (Value bad : kBad) {
    std::vector<Value> probe(data.row(7), data.row(7) + d);
    probe[d / 2] = bad;
    alignas(kRowAlignment) std::uint8_t qbuf[AlignedDataset::kMaxQuantDims];
    const bool quantized = aligned.QuantizeRow(probe.data(), qbuf);
    EXPECT_FALSE(quantized);

    // Scalar reference over the raw probe values.
    std::size_t want_first = kernels::kNoDominator;
    std::uint64_t want_scanned = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      ++want_scanned;
      if (Dominates(data.row(all[i]), probe.data(), d)) {
        want_first = i;
        break;
      }
    }
    for (cpu::IsaLevel level : cpu::kAllLevels) {
      const kernels::simd::KernelOps* ops = cpu::OpsFor(level);
      if (ops == nullptr) continue;
      const kernels::BatchProbeResult r =
          ops->dominates_any(aligned, all, packed.data(), probe.data(),
                             quantized ? qbuf : nullptr, d);
      EXPECT_EQ(r.first, want_first) << cpu::IsaName(level);
      EXPECT_EQ(r.scanned, want_scanned) << cpu::IsaName(level);
    }
  }
}

TEST(KernelDifferentialTest, NonFiniteDatasetHasNoQuantizedPlane) {
  const Dim d = 4;
  Dataset data = TieHeavyDataset(16, d, 13000);
  std::vector<Value> row(d, 0.25);
  row[1] = std::numeric_limits<Value>::quiet_NaN();
  data.Append(row);
  AlignedDataset aligned(data);
  EXPECT_FALSE(aligned.EnsureQuantized());
  EXPECT_FALSE(aligned.has_quantized());
  // Without a plane a caller hands the dispatched wrapper no packed
  // rows; its exact walk must still agree with the scalar loop.
  std::vector<PointId> all(aligned.num_rows());
  std::iota(all.begin(), all.end(), PointId{0});
  for (PointId q = 0; q < aligned.num_rows(); ++q) {
    std::size_t want_first;
    std::uint64_t want_scanned;
    ScalarDominatesAny(data, all, q, d, &want_first, &want_scanned);
    const kernels::BatchProbeResult r = kernels::DominatesAny(
        aligned, all, /*qrows=*/nullptr, aligned.row(q), nullptr, d);
    EXPECT_EQ(r.first, want_first) << "q=" << q;
    EXPECT_EQ(r.scanned, want_scanned) << "q=" << q;
  }
}

TEST(KernelDifferentialTest, QuantizedPlaneIsLazyAndResetByAssign) {
  const Dim d = 5;
  const Dataset data = TieHeavyDataset(24, d, 14000);
  AlignedDataset aligned(data);
  // No plane until explicitly requested.
  EXPECT_FALSE(aligned.has_quantized());
  EXPECT_TRUE(aligned.EnsureQuantized());
  EXPECT_TRUE(aligned.has_quantized());
  // Idempotent.
  EXPECT_TRUE(aligned.EnsureQuantized());
  // Re-assigning drops the stale plane (its grid belongs to the old
  // contents); a fresh Ensure rebuilds it for the new rows.
  const Dataset other = TieHeavyDataset(12, d, 15000);
  aligned.Assign(other);
  EXPECT_FALSE(aligned.has_quantized());
  EXPECT_TRUE(aligned.EnsureQuantized());
  alignas(kRowAlignment) std::uint8_t qbuf[AlignedDataset::kMaxQuantDims];
  for (std::size_t i = 0; i < aligned.num_rows(); ++i) {
    ASSERT_TRUE(aligned.QuantizeRow(aligned.row(i), qbuf));
    const std::uint8_t* stored = aligned.qrow_unchecked(i);
    for (std::size_t b = 0; b < aligned.qstride(); ++b) {
      ASSERT_EQ(qbuf[b], stored[b]) << "row=" << i << " byte=" << b;
    }
  }
}

TEST(KernelDifferentialTest, DispatcherInvariants) {
  // The active level is always executable, never above the detected
  // level, and the scalar backend is unconditionally available.
  EXPECT_NE(cpu::OpsFor(cpu::ActiveIsa()), nullptr);
  EXPECT_LE(static_cast<int>(cpu::ActiveIsa()),
            static_cast<int>(cpu::DetectedIsa()));
  EXPECT_NE(cpu::OpsFor(cpu::IsaLevel::kScalar), nullptr);
  EXPECT_EQ(cpu::OpsFor(cpu::IsaLevel::kScalar),
            &kernels::simd::kScalarOps);
}

}  // namespace
}  // namespace skyline

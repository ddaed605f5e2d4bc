// AlignedDataset: the padded, cache-line-aligned storage variant of
// Dataset used by the vectorized dominance kernels (src/core/kernels.h).
//
// Dataset keeps rows packed (stride == num_dims) because it is the
// user-facing, append-friendly container. The kernels instead want:
//
//   * every row starting on a 64-byte boundary (aligned vector loads),
//   * a power-of-two-friendly stride (no cross-row dependence when the
//     compiler unrolls across the tail), and
//   * an accessor without bounds checks on the hot path.
//
// Two planes are built from the source rows:
//
//   * the EXACT plane — bit-identical double copies at a stride of
//     num_dims rounded up to a full cache line, so any computation
//     routed through an AlignedDataset produces exactly the results of
//     the same computation on the source Dataset rows;
//   * the QUANTIZED summary plane — one byte per (row, dim), a
//     monotone per-dimension bucketing of the exact values onto 0..255
//     packed at qstride() = num_dims rounded up to 8 bytes per row (8
//     bytes at d <= 8, so one 64-byte compare covers eight rows; 64 at
//     d = 64). Monotonicity gives the prefilter
//     soundness direction: qa[i] > qb[i] implies a[i] > b[i], so a
//     quantized "a is strictly worse somewhere" verdict PROVES a
//     cannot dominate b and the exact plane need not be read. The
//     summary can only abstain, never decide wrongly (docs/kernels.md
//     has the full argument). The plane exists only when the dataset
//     is fully finite and d <= kMaxQuantDims; otherwise
//     has_quantized() is false and the kernels skip the prefilter.
//
// The EXACT plane is sized up front and filled in ONE gather pass over
// the source rows; nothing reallocates per row. The QUANTIZED plane is
// built on demand by EnsureQuantized() — one dense O(n*d) min/max sweep
// over the already-gathered exact plane plus the bucketing pass — so
// consumers that only ever run pairwise compares (or skycube window
// seeds below cpu::kPrefilterMinBlock) never pay for it. Assign() reuses
// existing capacity, so a long-lived instance (e.g. the per-thread
// scratch of the query-service seeded path) stops allocating once it
// has seen its high-water size; Reserve() pre-sizes that capacity
// explicitly.
//
// The padding tail of each EXACT row is zero-filled but, by contract,
// NEVER read by any kernel: all kernels loop over exactly num_dims()
// values, which the differential tests verify by poisoning the tail
// (FillPaddingForTesting) and re-checking results. The QUANTIZED
// padding tail is the opposite: it is deliberately neutral (zero on
// every row, including quantized probe rows), so the byte kernels may
// compare whole qstride()-byte packed rows without masking — equal
// bytes can never signal "worse somewhere". A SubsetIndex bound to the
// dataset copies each member's packed row next to its id
// (src/subset/subset_index.h).
//
// Accessor contract: `row(i)` is checked under SKYLINE_ASSERT (active in
// Debug and SKYLINE_CHECKS builds, free in plain Release);
// `row_unchecked(i)` / `qrow_unchecked(i)` are never checked and exist
// for kernel interiors that have already validated their index block
// once up front.
#ifndef SKYLINE_CORE_ALIGNED_DATASET_H_
#define SKYLINE_CORE_ALIGNED_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/aligned.h"
#include "src/core/contracts.h"
#include "src/core/dataset.h"
#include "src/core/subspace.h"
#include "src/core/types.h"

namespace skyline {

class AlignedDataset {
 public:
  /// Widest dimensionality the summary plane covers (one byte per
  /// dimension inside a single cache line; also Subspace::kMaxDims).
  /// A kMaxQuantDims-byte buffer therefore holds any packed row.
  static constexpr Dim kMaxQuantDims = 64;

  /// Empty dataset; fill via Assign / AssignProjected.
  AlignedDataset() = default;

  /// Copies every row of `data` (row i here == point i of `data`).
  explicit AlignedDataset(const Dataset& data) { Assign(data); }

  /// Gathers the rows named by `ids` (row i here == data.row(ids[i])).
  /// Used by the Merge pass to turn a scattered partition into a dense
  /// block that is scanned sequentially.
  AlignedDataset(const Dataset& data, std::span<const PointId> ids) {
    Assign(data, ids);
  }

  /// Rebuilds both planes from every row of `data`, reusing capacity.
  void Assign(const Dataset& data);

  /// Rebuilds both planes from the rows named by `ids`, reusing
  /// capacity.
  void Assign(const Dataset& data, std::span<const PointId> ids);

  /// Gathers the rows named by `ids` projected onto `subspace`: row i
  /// holds the values of data.row(ids[i]) at the subspace's dimensions,
  /// in ascending dimension order, so num_dims() == subspace.size().
  /// The seeded query path uses this to turn a candidate list into a
  /// dense projected block without materializing a Dataset first.
  void AssignProjected(const Dataset& data, Subspace subspace,
                       std::span<const PointId> ids);

  /// Pre-sizes the underlying storage of both planes for `rows` rows of
  /// `dims` dimensions; later Assign calls up to that shape never
  /// reallocate.
  void Reserve(std::size_t rows, Dim dims);

  std::size_t num_rows() const { return num_rows_; }
  Dim num_dims() const { return num_dims_; }

  /// Row stride in Values: num_dims rounded up to a whole cache line.
  std::size_t stride() const { return stride_; }

  /// Packed quantized row width in bytes: num_dims rounded up to 8.
  std::size_t qstride() const { return qstride_; }

  /// Checked row accessor (free in Release without SKYLINE_CHECKS).
  const Value* row(std::size_t i) const {
    SKYLINE_ASSERT(i < num_rows_, "AlignedDataset::row: index out of range");
    return row_unchecked(i);
  }

  /// Unchecked row accessor for kernel interiors; the caller must have
  /// established i < num_rows().
  const Value* row_unchecked(std::size_t i) const {
    return values_.data() + i * stride_;
  }

  /// Builds the quantized summary plane if this shape supports one and
  /// it has not been built since the last Assign. Returns
  /// has_quantized(). Idempotent and cheap when already attempted (one
  /// flag test), so scan loops may call it per batch; callers that
  /// never scan simply never call it and skip the O(n*d) build.
  bool EnsureQuantized();

  /// True when the quantized summary plane exists: EnsureQuantized()
  /// ran after the last Assign, every value is finite, and
  /// 1 <= num_dims <= kMaxQuantDims with at least one row.
  bool has_quantized() const { return has_quantized_; }

  /// Unchecked quantized-row accessor (qstride() bytes: num_dims
  /// buckets, then neutral zero padding; 8-byte aligned). Only
  /// meaningful when has_quantized().
  const std::uint8_t* qrow_unchecked(std::size_t i) const {
    return qvalues_.data() + i * qstride_;
  }

  /// Quantizes an external probe row (num_dims values) with this
  /// dataset's bucketing grid into `out` (qstride() bytes: buckets
  /// then zero padding). A member row quantizes to exactly its stored
  /// summary row. Returns false — and the caller must then skip the
  /// prefilter — when the probe contains a non-finite value, for which
  /// bucket order would not imply value order. Requires
  /// has_quantized(). The probe callers never need it, since every
  /// probe is a row of the plane; it is the bucketing reference the
  /// kernel tests check the plane against.
  bool QuantizeRow(const Value* row, std::uint8_t* out) const;

  /// Overwrites every padding slot (columns num_dims..stride-1 of every
  /// exact row) with `v`. Test-only: proves the kernels never read the
  /// exact-plane tail. (The quantized tail stays zero — it is neutral
  /// by contract and IS read by whole-line byte compares.)
  void FillPaddingForTesting(Value v);

 private:
  /// Shared plane builder: `dims` lists the source dimensions of each
  /// output dimension (nullptr = identity), `ids` the source rows
  /// (nullptr = all rows in order).
  void Build(const Dataset& data, const PointId* ids, std::size_t n,
             const Dim* dims, Dim d);

  Dim num_dims_ = 0;
  std::size_t stride_ = 0;
  std::size_t qstride_ = 0;
  std::size_t num_rows_ = 0;
  bool has_quantized_ = false;
  /// EnsureQuantized already ran for the current contents (whether or
  /// not it produced a plane) — makes repeated calls a flag test.
  bool quant_attempted_ = false;
  std::vector<Value, AlignedAllocator<Value>> values_;
  std::vector<std::uint8_t, AlignedAllocator<std::uint8_t>> qvalues_;
  /// Per-dimension bucketing grid: bucket = clamp((v - lo) * scale).
  std::vector<Value> lo_;
  std::vector<Value> scale_;
};

}  // namespace skyline

#endif  // SKYLINE_CORE_ALIGNED_DATASET_H_

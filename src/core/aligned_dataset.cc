#include "src/core/aligned_dataset.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace skyline {

namespace {

std::size_t PaddedStride(Dim num_dims) {
  constexpr std::size_t kValuesPerLine = kRowAlignment / sizeof(Value);
  const std::size_t d = num_dims;
  return (d + kValuesPerLine - 1) / kValuesPerLine * kValuesPerLine;
}

/// Packed quantized row width: one byte per dimension, rounded up to a
/// whole 64-bit word.
std::size_t PackedQuantStride(Dim num_dims) {
  const std::size_t d = num_dims;
  return (d + 7) / 8 * 8;
}

/// Monotone bucket map onto 0..255. For a fixed (lo, scale >= 0) grid,
/// v1 <= v2 implies Bucket(v1) <= Bucket(v2), which is the entire
/// soundness argument of the prefilter (contrapositive: a bucket
/// strictly above proves a value strictly above). The comparison chain
/// sends NaN intermediates (degenerate grids) to bucket 0 without
/// undefined float-to-int casts.
std::uint8_t Bucket(Value v, Value lo, Value scale) {
  const Value t = (v - lo) * scale;
  if (!(t > Value{0})) return 0;
  if (t >= Value{255}) return 255;
  return static_cast<std::uint8_t>(t);
}

}  // namespace

void AlignedDataset::Assign(const Dataset& data) {
  Build(data, nullptr, data.num_points(), nullptr, data.num_dims());
}

void AlignedDataset::Assign(const Dataset& data,
                            std::span<const PointId> ids) {
  Build(data, ids.data(), ids.size(), nullptr, data.num_dims());
}

void AlignedDataset::AssignProjected(const Dataset& data, Subspace subspace,
                                     std::span<const PointId> ids) {
  Dim dims[Subspace::kMaxDims];
  Dim d = 0;
  subspace.ForEachDim([&](Dim i) { dims[d++] = i; });
  SKYLINE_ASSERT(d >= 1, "AssignProjected: empty subspace");
  Build(data, ids.data(), ids.size(), dims, d);
}

void AlignedDataset::Reserve(std::size_t rows, Dim dims) {
  values_.reserve(rows * PaddedStride(dims));
  qvalues_.reserve(rows * PackedQuantStride(dims));
  lo_.reserve(dims);
  scale_.reserve(dims);
}

void AlignedDataset::Build(const Dataset& data, const PointId* ids,
                           std::size_t n, const Dim* dims, Dim d) {
  num_dims_ = d;
  stride_ = PaddedStride(d);
  qstride_ = PackedQuantStride(d);
  num_rows_ = n;
  has_quantized_ = false;
  quant_attempted_ = false;

  // Single gather pass for the exact plane: pre-sized (clear keeps
  // capacity, so a reused instance never reallocates below its
  // high-water shape), every destination row written exactly once —
  // exact values then zero padding. The quantized plane is NOT built
  // here: EnsureQuantized() derives it from the gathered rows on
  // demand, so pairwise-only consumers pay nothing for it.
  values_.clear();
  values_.resize(n * stride_, Value{0});
  qvalues_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const Value* src =
        data.row(ids != nullptr ? ids[i] : static_cast<PointId>(i));
    Value* dst = values_.data() + i * stride_;
    if (dims == nullptr) {
      std::copy(src, src + d, dst);
    } else {
      for (Dim k = 0; k < d; ++k) dst[k] = src[dims[k]];
    }
  }
}

bool AlignedDataset::EnsureQuantized() {
  if (quant_attempted_) return has_quantized_;
  quant_attempted_ = true;

  // Quantization grid: per-dimension minima/maxima plus a finiteness
  // check, one dense O(n*d) sweep over the already-gathered exact
  // plane (bit-identical to the source rows, so sweeping here equals
  // sweeping the source).
  const std::size_t n = num_rows_;
  const Dim d = num_dims_;
  const bool want_quantized = n > 0 && d >= 1 && d <= kMaxQuantDims;
  bool finite = want_quantized;
  lo_.assign(d, std::numeric_limits<Value>::infinity());
  scale_.assign(d, Value{0});
  Value hi[kMaxQuantDims];  // d <= kMaxQuantDims whenever this is read
  std::fill(hi, hi + (want_quantized ? d : Dim{0}),
            -std::numeric_limits<Value>::infinity());
  for (std::size_t i = 0; i < n && finite; ++i) {
    const Value* src = values_.data() + i * stride_;
    for (Dim k = 0; k < d; ++k) {
      const Value v = src[k];
      if (!std::isfinite(v)) {
        finite = false;
        break;
      }
      if (v < lo_[k]) lo_[k] = v;
      if (v > hi[k]) hi[k] = v;
    }
  }
  for (Dim k = 0; k < d && finite; ++k) {
    // A degenerate (single-value) dimension keeps scale 0: every
    // bucket collapses to 0 and the prefilter abstains on that
    // dimension. An infinite range (hi - lo overflows) likewise
    // degrades to an abstaining grid via the Bucket NaN chain.
    if (hi[k] > lo_[k]) scale_[k] = Value{255} / (hi[k] - lo_[k]);
  }
  has_quantized_ = finite;
  if (!has_quantized_) return false;

  qvalues_.clear();
  qvalues_.resize(n * qstride_, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Value* src = values_.data() + i * stride_;
    std::uint8_t* qdst = qvalues_.data() + i * qstride_;
    for (Dim k = 0; k < d; ++k) {
      qdst[k] = Bucket(src[k], lo_[k], scale_[k]);
    }
  }
  return true;
}

bool AlignedDataset::QuantizeRow(const Value* row, std::uint8_t* out) const {
  SKYLINE_ASSERT(has_quantized_,
                 "QuantizeRow: dataset carries no quantized plane");
  std::fill(out + num_dims_, out + qstride_, 0);
  bool finite = true;
  for (Dim k = 0; k < num_dims_; ++k) {
    finite = finite && std::isfinite(row[k]);
    out[k] = Bucket(row[k], lo_[k], scale_[k]);
  }
  return finite;
}

void AlignedDataset::FillPaddingForTesting(Value v) {
  for (std::size_t i = 0; i < num_rows_; ++i) {
    Value* row = values_.data() + i * stride_;
    std::fill(row + num_dims_, row + stride_, v);
  }
}

}  // namespace skyline

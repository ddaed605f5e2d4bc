#include "src/stream/streaming_skyline.h"

#include <algorithm>

#include "src/core/contracts.h"
#include "src/core/dominance.h"
#include "src/core/kernels.h"
#include "src/core/scores.h"

namespace skyline {

StreamingSkyline::StreamingSkyline(Dim num_dims, StreamingOptions options)
    : data_(num_dims), options_(options), index_(num_dims) {
  options_.bootstrap_size = std::max<std::size_t>(1, options_.bootstrap_size);
  options_.max_reference_points =
      std::max<std::size_t>(1, options_.max_reference_points);
  effective_adapt_interval_ = options_.adapt_interval;
}

bool StreamingSkyline::Insert(std::span<const Value> point) {
  SKYLINE_ASSERT(point.size() == data_.num_dims(),
                 "Insert: point length != num_dims");
  const PointId id = next_id_++;
  ++stats_.inserts;

  bool entered;
  if (!frozen_) {
    entered = BootstrapInsert(point);
    if (entered) AppendRow(id, point, Subspace{});
    if (stats_.inserts >= options_.bootstrap_size) Freeze();
  } else {
    entered = IndexedInsert(id, point);
    MaybeRereference();
  }
  MaybeCompact();
  if constexpr (kSkylineDeepChecks) CheckConsistency(false);
  return entered;
}

bool StreamingSkyline::BootstrapInsert(std::span<const Value> point) {
  const Dim d = data_.num_dims();
  // BNL over the live rows. If a dominator exists, no eviction can have
  // preceded it: p evicting w1 (p < w1) and being dominated by w2
  // (w2 < p) would give w2 < w1, contradicting that the live rows form
  // an antichain — so breaking out on the first dominator is safe.
  for (std::size_t row = 0; row < data_.num_points(); ++row) {
    if (!live_[row]) continue;
    ++stats_.dominance_tests;
    switch (Compare(data_.row(static_cast<PointId>(row)), point.data(), d)) {
      case DominanceRelation::kFirstDominates:
        ++stats_.rejected_dominated;
        return false;
      case DominanceRelation::kSecondDominates:
        KillRow(row);
        ++stats_.evictions;
        break;
      case DominanceRelation::kEqual:
      case DominanceRelation::kIncomparable:
        break;
    }
  }
  ++skyline_size_;
  return true;
}

void StreamingSkyline::Freeze() {
  frozen_ = true;
  BuildReferenceSet();
  RebuildIndex();
  if constexpr (kSkylineDeepChecks) CheckConsistency(true);
}

void StreamingSkyline::BuildReferenceSet() {
  const Dim d = data_.num_dims();
  // Reference points: drawn from the current skyline, lowest Euclidean
  // scores first — near-origin points split the space into informative
  // dominating subspaces for later arrivals.
  std::vector<std::size_t> rows;
  for (std::size_t row = 0; row < data_.num_points(); ++row) {
    if (live_[row]) rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
    const Value sa = ScorePoint(data_.row(static_cast<PointId>(a)), d,
                                ScoreFunction::kEuclidean);
    const Value sb = ScorePoint(data_.row(static_cast<PointId>(b)), d,
                                ScoreFunction::kEuclidean);
    if (sa != sb) return sa < sb;
    return ext_ids_[a] < ext_ids_[b];
  });
  if (rows.size() > options_.max_reference_points) {
    rows.resize(options_.max_reference_points);
  }
  reference_.clear();
  ref_values_.clear();
  for (std::size_t row : rows) {
    reference_.push_back(ext_ids_[row]);
    const Value* values = data_.row(static_cast<PointId>(row));
    ref_values_.insert(ref_values_.end(), values, values + d);
  }
}

void StreamingSkyline::RebuildIndex() {
  index_ = SubsetIndex(data_.num_dims());
  for (std::size_t row = 0; row < data_.num_points(); ++row) {
    if (!live_[row]) continue;
    masks_[row] = ReferenceMask(data_.row(static_cast<PointId>(row)));
    index_.Add(ext_ids_[row], masks_[row]);
  }
}

Subspace StreamingSkyline::ReferenceMask(const Value* row_values,
                                         bool* dominated_by_reference) {
  const Dim d = data_.num_dims();
  // One D_{q<ref} per reference, one charge each. With the filter on, a
  // reference with empty D_{q<ref} that is strictly better somewhere
  // dominates the arrival, which is then off the skyline without an
  // index query: a reference is a previously inserted point, and if it
  // has since been evicted, a live dominator exists by transitivity.
  // This keeps a dominated-heavy stream at O(refs) per arrival. The
  // scan stops there and charges one more test, the confirming
  // Dominates call of the historical loop. An exact duplicate of the
  // arrival adds no bits and the scan goes on.
  Subspace mask;
  for (std::size_t r = 0; r < reference_.size(); ++r) {
    ++stats_.dominance_tests;
    bool worse = false;
    const Subspace m = kernels::DominatingSubspaceEx(
        row_values, ref_values_.data() + r * d, d, &worse);
    if (dominated_by_reference != nullptr && m.empty() && worse) {
      ++stats_.dominance_tests;
      *dominated_by_reference = true;
      return mask;
    }
    mask |= m;
  }
  return mask;
}

std::size_t StreamingSkyline::RowOf(PointId id) const {
  // ext_ids_ is ascending (rows are appended in insertion order and
  // compaction is stable), so the id->row remap is a binary search.
  const auto it = std::lower_bound(ext_ids_.begin(), ext_ids_.end(), id);
  if (it == ext_ids_.end() || *it != id) return data_.num_points();
  return static_cast<std::size_t>(it - ext_ids_.begin());
}

bool StreamingSkyline::IndexedInsert(PointId id, std::span<const Value> point) {
  const Dim d = data_.num_dims();
  bool dominated_by_reference = false;
  const Subspace mask = ReferenceMask(point.data(), &dominated_by_reference);
  if (dominated_by_reference) {
    ++stats_.rejected_dominated;
    return false;
  }

  // Dominator check: by Lemma 4.3 (which holds for any fixed reference
  // set), a dominator's mask is a superset of the new point's mask. A
  // rejected point is never stored — this is what keeps an adversarial
  // dominated-heavy stream from growing the structure at all.
  scratch_.clear();
  index_.Query(mask, &scratch_);
  ++stats_.index_queries;
  stats_.index_candidates += scratch_.size();
  adapt_candidates_ += scratch_.size();
  for (PointId s : scratch_) {
    const std::size_t row = RowOf(s);
    SKYLINE_ASSERT(row < data_.num_points() && live_[row],
                   "IndexedInsert: index returned a non-resident id");
    ++stats_.dominance_tests;
    if (Dominates(data_.row(static_cast<PointId>(row)), point.data(), d)) {
      ++stats_.rejected_dominated;
      return false;
    }
  }

  // Eviction check: anything the new point dominates has a mask that is
  // a subset of the new point's mask.
  scratch_.clear();
  index_.QueryContained(mask, &scratch_);
  ++stats_.index_queries;
  stats_.index_candidates += scratch_.size();
  adapt_candidates_ += scratch_.size();
  for (PointId s : scratch_) {
    const std::size_t row = RowOf(s);
    SKYLINE_ASSERT(row < data_.num_points() && live_[row],
                   "IndexedInsert: index returned a non-resident id");
    ++stats_.dominance_tests;
    if (Dominates(point.data(), data_.row(static_cast<PointId>(row)), d)) {
      index_.Remove(s, masks_[row]);
      KillRow(row);
      ++stats_.evictions;
    }
  }

  AppendRow(id, point, mask);
  index_.Add(id, mask);
  ++skyline_size_;
  return true;
}

void StreamingSkyline::AppendRow(PointId id, std::span<const Value> point,
                                 Subspace mask) {
  data_.Append(point);
  ext_ids_.push_back(id);
  masks_.push_back(mask);
  live_.push_back(true);
  stats_.peak_resident_rows =
      std::max<std::uint64_t>(stats_.peak_resident_rows, data_.num_points());
}

void StreamingSkyline::KillRow(std::size_t row) {
  live_[row] = false;
  ++dead_rows_;
  --skyline_size_;
}

void StreamingSkyline::MaybeCompact() {
  if (options_.compact_high_water == 0) return;
  const std::size_t resident = data_.num_points();
  if (resident >= options_.compact_high_water && dead_rows_ * 2 >= resident) {
    CompactNow();
  }
}

void StreamingSkyline::CompactNow() {
  if (dead_rows_ == 0) return;
  const Dim d = data_.num_dims();
  std::vector<Value> values;
  values.reserve((data_.num_points() - dead_rows_) * d);
  std::vector<PointId> ext_ids;
  std::vector<Subspace> masks;
  ext_ids.reserve(data_.num_points() - dead_rows_);
  masks.reserve(data_.num_points() - dead_rows_);
  for (std::size_t row = 0; row < data_.num_points(); ++row) {
    if (!live_[row]) continue;
    const Value* row_values = data_.row(static_cast<PointId>(row));
    values.insert(values.end(), row_values, row_values + d);
    ext_ids.push_back(ext_ids_[row]);
    masks.push_back(masks_[row]);
  }
  data_ = Dataset(d, std::move(values));
  ext_ids_ = std::move(ext_ids);
  masks_ = std::move(masks);
  live_.assign(ext_ids_.size(), true);
  dead_rows_ = 0;
  ++stats_.compactions;
  if constexpr (kSkylineDeepChecks) CheckConsistency(true);
}

void StreamingSkyline::MaybeRereference() {
  if (options_.adapt_interval == 0) return;
  ++adapt_inserts_;
  if (adapt_inserts_ < effective_adapt_interval_) return;
  const double mean_candidates = static_cast<double>(adapt_candidates_) /
                                 static_cast<double>(adapt_inserts_);
  adapt_inserts_ = 0;
  adapt_candidates_ = 0;
  // With a skyline no larger than the reference budget the index cannot
  // degenerate (re-freezing would make the reference set the skyline
  // itself), so only treat larger skylines as drift.
  const double ratio =
      skyline_size_ == 0
          ? 0.0
          : mean_candidates / static_cast<double>(skyline_size_);
  const bool degraded = skyline_size_ > options_.max_reference_points &&
                        ratio > options_.adapt_candidate_fraction;
  if (!degraded) {
    // Healthy window: leave backoff and rearm at the base cadence.
    in_backoff_ = false;
    just_refroze_ = false;
    effective_adapt_interval_ = options_.adapt_interval;
    return;
  }
  // Some streams are inherently index-hostile (e.g. arrivals the whole
  // reference set is incomparable with): re-freezing cannot help them,
  // and doing it every window just burns O(skyline) rebuilds. If the
  // previous refreeze did not visibly improve the ratio, back off
  // exponentially instead of thrashing; a healthy window rearms.
  if (just_refroze_ && ratio > 0.75 * last_trigger_ratio_) {
    in_backoff_ = true;
    just_refroze_ = false;
  }
  if (in_backoff_) {
    effective_adapt_interval_ = std::min(effective_adapt_interval_ * 2,
                                         options_.adapt_interval * 64);
    return;
  }
  last_trigger_ratio_ = ratio;
  just_refroze_ = true;
  ++stats_.refreezes;
  BuildReferenceSet();
  RebuildIndex();
  if constexpr (kSkylineDeepChecks) CheckConsistency(true);
}

bool StreamingSkyline::IsSkyline(PointId id) const {
  const std::size_t row = RowOf(id);
  return row < data_.num_points() && live_[row];
}

std::span<const Value> StreamingSkyline::point(PointId id) const {
  const std::size_t row = RowOf(id);
  SKYLINE_ASSERT(row < data_.num_points(),
                 "StreamingSkyline::point: id is not resident");
  return data_.point(static_cast<PointId>(row));
}

std::vector<PointId> StreamingSkyline::Skyline() const {
  std::vector<PointId> out;
  out.reserve(skyline_size_);
  for (std::size_t row = 0; row < data_.num_points(); ++row) {
    if (live_[row]) out.push_back(ext_ids_[row]);
  }
  return out;
}

void StreamingSkyline::CheckConsistency(bool verify_antichain) const {
  // The per-insert tier stays O(1); the O(n)/O(n^2) sweeps run only at
  // freeze/re-freeze/compaction (verify_antichain).
  const std::size_t resident = data_.num_points();
  SKYLINE_DCHECK(ext_ids_.size() == resident && masks_.size() == resident &&
                     live_.size() == resident,
                 "streaming: row-parallel arrays out of sync");
  SKYLINE_DCHECK(resident == 0 || ext_ids_.back() < next_id_,
                 "streaming: resident id from the future");
  if (options_.compact_high_water != 0) {
    SKYLINE_DCHECK(
        resident <= std::max(options_.compact_high_water,
                             2 * (skyline_size_ == 0 ? 1 : skyline_size_)),
        "streaming: resident rows exceed the memory-bound invariant");
  }
  if (verify_antichain) {
    std::size_t live_count = 0;
    std::size_t live_dead = 0;
    for (std::size_t row = 0; row < resident; ++row) {
      live_[row] ? ++live_count : ++live_dead;
    }
    SKYLINE_DCHECK(live_count == skyline_size_,
                   "streaming: skyline_size_ accounting out of sync");
    SKYLINE_DCHECK(live_dead == dead_rows_,
                   "streaming: dead_rows_ accounting out of sync");
    if (frozen_) {
      SKYLINE_DCHECK(index_.num_points() == skyline_size_,
                     "streaming: index entries != live skyline points");
    }
    // The live rows must form an antichain (no live point dominates
    // another) — the core streaming postcondition.
    const Dim d = data_.num_dims();
    for (std::size_t a = 0; a < resident; ++a) {
      if (!live_[a]) continue;
      for (std::size_t b = a + 1; b < resident; ++b) {
        if (!live_[b]) continue;
        SKYLINE_DCHECK(
            !Dominates(data_.row(static_cast<PointId>(a)),
                       data_.row(static_cast<PointId>(b)), d) &&
                !Dominates(data_.row(static_cast<PointId>(b)),
                           data_.row(static_cast<PointId>(a)), d),
            "streaming: live rows are not an antichain");
      }
    }
  }
}

}  // namespace skyline

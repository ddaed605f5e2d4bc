// Streaming skyline maintenance — the paper's future-work item (3):
// "adapting the proposed method to updating data such as data streams".
//
// The key observation making the subset approach streamable is that
// Lemma 4.3 never uses the skyline-ness of the reference set: for ANY
// fixed set R of reference points, q1 < q2 implies
// D_{q1<R} ⊇ D_{q2<R}. So a StreamingSkyline freezes a reference set
// from the first arrivals and then maintains the skyline under inserts
// with two subset queries per point:
//
//   * dominator candidates  = stored masks ⊇ mask(q)   (Query)
//   * eviction candidates   = stored masks ⊆ mask(q)   (QueryContained)
//
// Everything outside those candidate sets is provably incomparable with
// the incoming point and is never touched.
//
// Memory model (the part that makes the structure safe to run forever):
//
//   * Rejected (dominated-on-arrival) points are never retained — they
//     cost one mask computation and one candidate probe, nothing more.
//   * Evicted skyline points leave a dead row behind; when resident
//     rows reach `compact_high_water` and at least half of them are
//     dead, the row store is compacted down to the live skyline. Caller
//     -visible ids are insertion-order external ids, stable across
//     compactions (a sorted id->row remap translates them internally).
//     Invariant: resident_rows() <= max(compact_high_water,
//     2 * skyline_size()) after every insert.
//   * The SubsetIndex reclaims emptied tree paths on Remove, so evicted
//     points do not leak index nodes either.
//   * When the observed pruning power of the frozen reference set
//     degrades (mean index candidates per insert creeping toward the
//     skyline size — the drift that makes every query degenerate to a
//     root-level scan), the structure re-freezes against the current
//     skyline and rebuilds all masks (`adapt_interval`,
//     `adapt_candidate_fraction`).
#ifndef SKYLINE_STREAM_STREAMING_SKYLINE_H_
#define SKYLINE_STREAM_STREAMING_SKYLINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/dataset.h"
#include "src/core/stats.h"
#include "src/core/subspace.h"
#include "src/subset/subset_index.h"

namespace skyline {

/// Tuning knobs for StreamingSkyline.
struct StreamingOptions {
  /// Number of points to buffer before freezing the reference set. The
  /// reference points are drawn from the bootstrap skyline; larger
  /// values give finer masks (stronger pruning) at a cost of one O(d)
  /// scan per reference per insert.
  std::size_t bootstrap_size = 64;

  /// Maximum number of frozen reference points.
  std::size_t max_reference_points = 16;

  /// High-water mark for resident rows: once the row store holds this
  /// many rows and at least half are dead (evicted), it is compacted
  /// down to the live skyline. 0 disables compaction (the pre-bounded
  /// behavior: every surviving insert is retained forever).
  std::size_t compact_high_water = 4096;

  /// Post-freeze adaptation period, in inserts. Every `adapt_interval`
  /// inserts the mean candidate count of the window is compared against
  /// the skyline size; on degradation the reference set is re-frozen
  /// from the current skyline. Refreezes that fail to improve the ratio
  /// trigger exponential backoff (up to 64x this interval) instead of
  /// thrashing. 0 disables adaptive re-referencing.
  std::size_t adapt_interval = 1024;

  /// Degradation threshold: re-freeze when the window's mean index
  /// candidates per insert exceeds this fraction of the current skyline
  /// size (candidates ~ skyline size means the index prunes nothing).
  /// On stationary streams the ratio settles well below this (~0.6 for
  /// 6-d uniform); full reference drift pushes it to ~1.0 and beyond.
  double adapt_candidate_fraction = 0.85;
};

/// Maintains the skyline of an append-only stream of points, in bounded
/// memory.
///
/// Points are addressed by insertion order (PointId, the "external id");
/// external ids remain valid across internal storage compactions. The
/// structure answers "is p on the current skyline" and enumerates the
/// current skyline at any time; deletions from the stream are not
/// supported (a point can only leave the skyline by being dominated by
/// a later insert).
class StreamingSkyline {
 public:
  explicit StreamingSkyline(Dim num_dims, StreamingOptions options = {});

  /// Inserts a point (copied unless rejected). Returns true iff the
  /// point is on the skyline *at insertion time* (it may be evicted
  /// later).
  bool Insert(std::span<const Value> point);

  /// Current skyline ids, in insertion order.
  std::vector<PointId> Skyline() const;

  /// True iff `id` is on the current skyline.
  bool IsSkyline(PointId id) const;

  /// Values of the resident point with external id `id`. Valid for any
  /// id on the current skyline (rejected points are never stored and
  /// evicted rows are eventually compacted away — asserts on
  /// non-resident ids). The span is invalidated by the next Insert or
  /// CompactNow.
  std::span<const Value> point(PointId id) const;

  /// Compacts the row store down to the live skyline immediately,
  /// regardless of the high-water mark. External ids stay valid.
  void CompactNow();

  std::size_t skyline_size() const { return skyline_size_; }

  /// Total points ever inserted (including rejected ones); also the
  /// next external id to be assigned.
  std::size_t num_points() const { return static_cast<std::size_t>(next_id_); }

  /// Rows currently resident in memory (live skyline points plus dead
  /// rows awaiting compaction). Bounded by
  /// max(compact_high_water, 2 * skyline_size()) when compaction is on.
  std::size_t resident_rows() const { return data_.num_points(); }

  Dim num_dims() const { return data_.num_dims(); }

  /// The retained rows (live skyline points plus not-yet-compacted dead
  /// rows), in insertion order. NOT every point ever inserted: rejected
  /// points are never stored and evicted rows are reclaimed.
  const Dataset& data() const { return data_; }

  /// External ids of the frozen reference points (empty while
  /// bootstrapping). The referenced *values* are retained internally
  /// even after the points themselves are evicted or compacted away.
  const std::vector<PointId>& reference_points() const { return reference_; }

  const StreamingStats& stats() const { return stats_; }

 private:
  /// Mask of the point at `row_values` w.r.t. the frozen reference set.
  /// When `dominated_by_reference` is non-null the scan also checks the
  /// reference filter (a reference dominating the point proves it off
  /// the skyline) and may return early with the flag set.
  Subspace ReferenceMask(const Value* row_values,
                         bool* dominated_by_reference = nullptr);

  /// Row index of external id `id`, or resident_rows() if not resident.
  std::size_t RowOf(PointId id) const;

  /// Appends a retained row for external id `id`.
  void AppendRow(PointId id, std::span<const Value> point, Subspace mask);

  /// Marks row dead (bootstrap or indexed eviction bookkeeping).
  void KillRow(std::size_t row);

  /// Picks reference points from the current live skyline and snapshots
  /// their values.
  void BuildReferenceSet();

  /// Recomputes every live mask w.r.t. the current reference set and
  /// rebuilds the index from scratch (dropping any dead structure).
  void RebuildIndex();

  /// Switches from the bootstrap window to the indexed regime.
  void Freeze();

  /// Compacts when the high-water trigger fires.
  void MaybeCompact();

  /// Closes an adaptation window; re-freezes on degradation.
  void MaybeRereference();

  /// Insert into the bootstrap BNL window (the live rows).
  bool BootstrapInsert(std::span<const Value> point);

  /// Insert via the subset index (post-freeze).
  bool IndexedInsert(PointId id, std::span<const Value> point);

  /// Deep-check (SKYLINE_CHECKS): accounting, id-remap ordering, index
  /// consistency and — when `verify_antichain` — pairwise
  /// incomparability of the live rows.
  void CheckConsistency(bool verify_antichain) const;

  Dataset data_;  // retained rows only, insertion order
  StreamingOptions options_;
  StreamingStats stats_;

  // Parallel to the rows of data_:
  std::vector<PointId> ext_ids_;  // external id per row, ascending
  std::vector<Subspace> masks_;   // stored mask (meaningful post-freeze)
  std::vector<bool> live_;        // on the current skyline?

  std::size_t dead_rows_ = 0;
  std::size_t skyline_size_ = 0;
  PointId next_id_ = 0;

  bool frozen_ = false;
  std::vector<PointId> reference_;  // external ids, for reporting
  // Snapshot of the reference rows, d values each in reference order:
  // they outlive the points themselves (eviction, compaction).
  std::vector<Value> ref_values_;
  SubsetIndex index_;  // keyed by external id
  std::vector<PointId> scratch_;    // candidate buffer

  // Current adaptation window. The effective interval starts at
  // options_.adapt_interval and doubles (capped at 64x) while refreezes
  // fail to improve the candidate ratio — some streams are inherently
  // index-hostile and re-freezing every window would thrash.
  std::uint64_t adapt_inserts_ = 0;
  std::uint64_t adapt_candidates_ = 0;
  std::size_t effective_adapt_interval_ = 0;
  double last_trigger_ratio_ = 0.0;
  bool just_refroze_ = false;
  bool in_backoff_ = false;
};

}  // namespace skyline

#endif  // SKYLINE_STREAM_STREAMING_SKYLINE_H_

// Concurrent subspace-skyline query service with a memoized cuboid
// cache — the serving layer over a live (mutable) dataset.
//
// A QueryService answers a stream of subspace-skyline queries ("best
// hotels by price and rating only") without recomputing per query:
//
//   * Exact hit: the queried cuboid is cached at the current epoch; the
//     id list is returned under a shared lock, with a single atomic LRU
//     touch.
//   * Seeded miss: the nearest cached ancestor cuboid U ⊇ V (fewest
//     skyline ids, then fewest dimensions, then lowest subspace bits)
//     seeds the computation via the skycube top-down
//     sharing scheme — sky_V over sky(U) followed by the
//     duplicate-projection tie repair of src/skycube. Sound for ANY
//     ancestor, not just a parent: a U-dominator chain from any point
//     terminates in sky(U) without increasing any coordinate, so every
//     V-skyline point either is in sky(U) or ties on V with a core
//     member, and every core member is V-undominated globally. The
//     repair scans every row; it is skipped when V contains one of the
//     version's distinct_dims() (no two rows share a value there, so a
//     row ties on V only with itself and the core is the answer).
//   * Cold miss: no cached ancestor — the subset-boosted engine
//     (sfs-subset, or its block-parallel scan, parallel-subset-sfs,
//     from `parallel_cold_threshold` rows on) computes the cuboid on the
//     projected dataset.
//
// Mutation (epochs): ApplyUpdate(inserts, removes) installs a new
// immutable DatasetVersion (copy-on-write snapshot), bumps the epoch and
// repairs every ready cached cuboid to it, so the cache never holds an
// answer of an older epoch (docs/query_service.md proves the rule). For
// a cuboid V with cached answer S (closed under V-ties):
//
//   * Insert rule — an inserted point p that is V-dominated by some
//     member of S changes nothing; otherwise p joins S and evicts
//     exactly the members it V-dominates.
//   * Remove rule — with M the removed members of S, the answer becomes
//     (S \ M) ∪ seeded(C), where C holds the live rows outside S that
//     some member of M V-dominates and no other member does, and
//     seeded() is a seeded miss's own kernels and tie rule. C is drawn
//     from the already-repaired pinned full-space answer when there is
//     one (and V is not the full space), else from every live row.
//
// In-flight computations that an update overtakes are detached from
// the cache: their waiters still get the pre-update answer (tagged with
// the entry's epoch) but the result is never cached under the new
// epoch. PeekStale, the degraded read behind SkylineServer's
// kServeStale policy, returns the core of sky(V) over the nearest
// cached ancestor without the tie repair: a subset of the exact answer
// at the current epoch.
//
// Concurrency: lookups take a shared lock; per-cuboid single-flight
// means concurrent identical misses compute once (latecomers block on
// the in-flight entry's condition variable, counted as `coalesced`).
// Cached id lists are immutable once published — a repair publishes a
// REPLACEMENT entry rather than mutating in place — so hits copy them
// without per-entry locking (release/acquire on the entry's `ready`
// flag), and eviction only unlinks entries from the map — readers that
// already hold the shared_ptr keep a valid snapshot. Updates hold the
// exclusive lock for the whole sweep, so they serialize against claims
// and publications (but not against in-flight computes, which are
// detached instead).
//
// Eviction: bounded by entry count alone; least-recently-used ready
// entries are dropped first. The full-space cuboid can be pinned
// (default) so every miss has a universal seed; the pinned entry is
// repaired first on every update, and the other entries' removal
// repairs draw their candidates from it.
#ifndef SKYLINE_QUERY_QUERY_SERVICE_H_
#define SKYLINE_QUERY_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/algo/algorithm.h"
#include "src/core/dataset.h"
#include "src/core/subspace.h"
#include "src/core/sync.h"
#include "src/harness/histogram.h"

namespace skyline {

/// Tuning knobs of the QueryService cache.
struct QueryServiceOptions {
  /// Maximum number of cached cuboids, the pinned full space excluded.
  /// At least 1.
  std::size_t max_entries = 64;

  /// Compute and pin the full-space cuboid at construction, so every
  /// miss has a cached ancestor and the cold path is construction-only.
  bool pin_full_space = true;

  /// Cold computes on datasets with at least this many rows use the
  /// parallel subset engine instead of the sequential one.
  std::size_t parallel_cold_threshold = 100000;

  /// Seeded misses with at least this many ancestor candidates run the
  /// subset-boosted engine over the projected candidate rows instead of
  /// the skycube BNL. Small seeds stay on the BNL, which wins when the
  /// candidate set is already near the answer (the common parent→child
  /// case); large seeds — e.g. a near-total anti-correlated full-space
  /// skyline — would cost O(|seed|^2) there.
  std::size_t seeded_boost_threshold = 256;

  /// Worker threads for parallel cold computes; 0 = hardware pick.
  unsigned threads = 0;

  /// Options forwarded to the subset-boosted engines (sigma etc.).
  AlgorithmOptions algorithm;
};

/// One immutable snapshot of the live dataset. Rows are append-only and
/// point ids are stable across versions: an insert appends rows, a
/// remove only tombstones (live[id] = false). Any id valid at epoch e
/// therefore still names the same row values in every epoch >= e — the
/// property that lets an update repair a cached answer against the
/// newest version's rows.
struct DatasetVersion {
  Dataset data;            ///< All rows ever inserted (removed included).
  std::vector<char> live;  ///< live[id] != 0 iff id has not been removed.
  std::size_t num_live = 0;   ///< Count of live rows.
  bool has_removed = false;   ///< Any tombstone in this version?
  std::uint64_t epoch = 0;    ///< 0 at construction; +1 per ApplyUpdate.

  DatasetVersion() : data(1) {}
  bool IsLive(PointId id) const { return live[id] != 0; }

  /// Dimensions in which no two rows (removed ones included) share a
  /// value; empty if any row holds a NaN. A seeded miss whose subspace
  /// meets it skips the tie scan. Unless set, the first call computes
  /// it (DistinctDims over every row), so a service that never seeds a
  /// miss never pays for the pass. When the old version's mask is
  /// known, ApplyUpdate sets the next version's from it and the
  /// inserted rows (a removal keeps it); otherwise it leaves the mask
  /// unset. Thread-safe.
  Subspace distinct_dims() const;
  /// Whether the mask is set or already computed.
  bool distinct_dims_known() const { return distinct_known_.load(); }
  /// Sets the mask; only before the version is shared.
  void set_distinct_dims(Subspace dims);

 private:
  // Filled by the first distinct_dims() call unless set. Concurrent
  // first callers may each run the pass; they store the same mask.
  mutable std::atomic<bool> distinct_known_{false};
  mutable std::atomic<std::uint64_t> distinct_bits_{0};
};
using DatasetVersionPtr = std::shared_ptr<const DatasetVersion>;

/// A plain, copyable snapshot of the service counters. All counts are
/// cumulative since construction.
struct QueryStatsSnapshot {
  std::uint64_t queries = 0;     ///< Total Query() calls.
  std::uint64_t hits = 0;        ///< Entry was ready on arrival.
  std::uint64_t coalesced = 0;   ///< Waited on another thread's compute.
  std::uint64_t seeded = 0;      ///< Misses computed from an ancestor.
  std::uint64_t tie_scans = 0;   ///< Of those, misses that ran the tie
                                 ///< scan (no distinct dim in the subspace).
  std::uint64_t cold = 0;        ///< Misses computed from scratch.
  std::uint64_t evictions = 0;   ///< Cuboids dropped by the LRU policy.
  std::uint64_t seeded_tests = 0;  ///< Dominance tests on seeded misses.
  std::uint64_t cold_tests = 0;    ///< Dominance tests on cold misses
                                   ///< (pinned full-space included).

  // ---- Mutation counters (ApplyUpdate) ----
  std::uint64_t updates = 0;        ///< ApplyUpdate calls that changed data.
  std::uint64_t insert_points = 0;  ///< Rows inserted across all updates.
  std::uint64_t remove_points = 0;  ///< Rows tombstoned across all updates.
  std::uint64_t repaired = 0;       ///< Entries repaired to a new epoch.
  std::uint64_t aborted_inflight = 0;  ///< In-flight computes detached.
  std::uint64_t update_tests = 0;   ///< Dominance tests in repairs.
  /// Always 0: every update repairs every ready entry, so none is left
  /// stale and the pinned entry is never recomputed. Kept for readers
  /// of these two counters (perfbench's result line and replay).
  std::uint64_t invalidated = 0;
  std::uint64_t pinned_recomputes = 0;

  std::uint64_t epoch = 0;         ///< Current dataset epoch.
  std::size_t live_points = 0;     ///< Live rows in the current version.
  std::size_t cache_entries = 0;   ///< Ready cuboids currently cached.
  std::size_t cache_ids = 0;       ///< Ids currently cached (incl. pinned).
  LatencyHistogram::Snapshot latency;  ///< Per-Query() wall latency.
  LatencyHistogram::Snapshot update_latency;  ///< Per-ApplyUpdate() wall.

  std::uint64_t misses() const { return coalesced + seeded + cold; }
  std::uint64_t dominance_tests() const {
    return seeded_tests + cold_tests + update_tests;
  }
  double HitRate() const {
    return queries == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(queries);
  }
};

/// A degraded answer (QueryService::PeekStale).
struct StaleAnswer {
  std::vector<PointId> ids;  ///< Ascending.
  /// True when `ids` is the cached cuboid itself; false for a core over
  /// an ancestor, a sorted subset of the exact answer at `epoch` (only
  /// duplicate-projection ties may be missing).
  bool exact = false;
  std::uint64_t epoch = 0;  ///< Epoch of the cache entry read.
  std::uint64_t tests = 0;  ///< Dominance tests spent on the core.
};

/// Thread-safe memoizing subspace-skyline server over one Dataset. The
/// construction dataset is snapshotted as epoch 0; it must stay alive
/// and unmodified only through the constructor call itself, unless the
/// caller reads it back through data(). All later mutation goes through
/// ApplyUpdate.
///
/// Every subspace argument must be non-empty and lie inside the
/// dataset's space; one that does not is a contract violation in every
/// build type.
class QueryService {
 public:
  explicit QueryService(const Dataset& data, QueryServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Ids of the skyline of the subspace `v`, ascending, over the live
  /// rows of one dataset version. Safe to call concurrently. When
  /// `epoch_out` is non-null it receives the epoch of the version the
  /// answer reflects — always the current epoch at some instant during
  /// the call, except for waiters coalesced onto a computation that an
  /// update detached, which get the pre-update epoch they queued behind.
  std::vector<PointId> Query(Subspace v, std::uint64_t* epoch_out = nullptr)
      SKYLINE_EXCLUDES(cache_mu_);

  /// Applies a batch of mutations: `inserts` is a row-major block of
  /// k * num_dims() values appended as k new points (their ids are the
  /// old version's num_points() on, ascending); `removes` tombstones
  /// existing live points (each id must be live, predate this batch and
  /// appear once). Bumps the epoch, detaches in-flight computes and
  /// repairs every ready cached cuboid to the new epoch, the pinned
  /// full-space seed first (see the header comment). Returns the new
  /// epoch, or the current one for an empty batch, which is a no-op.
  /// A malformed batch (a partial row, or a remove id that breaks the
  /// rules above) is refused: no value is returned and nothing changes,
  /// counters included. It is checked under the lock the batch would be
  /// applied under, because whether an id is live depends on the
  /// version it applies to. Serializes against claims/publications via
  /// the cache lock; safe to call concurrently with Query.
  std::optional<std::uint64_t> ApplyUpdate(std::span<const Value> inserts,
                                           std::span<const PointId> removes)
      SKYLINE_EXCLUDES(cache_mu_);

  /// Copies the current counters; safe to call concurrently.
  QueryStatsSnapshot Stats() const SKYLINE_EXCLUDES(cache_mu_);

  /// Non-blocking exact lookup: if the cuboid `v` is cached and ready,
  /// copies its ids into `*ids` (when non-null) and its epoch, the
  /// current one, into `*epoch_out` (when non-null), touches the LRU
  /// stamp, and returns true. Never computes and never waits on an
  /// in-flight entry. Counted neither as a hit nor as a query.
  bool PeekExact(Subspace v, std::vector<PointId>* ids,
                 std::uint64_t* epoch_out = nullptr)
      SKYLINE_EXCLUDES(cache_mu_);

  /// Non-blocking nearest-ancestor lookup: if any ready cuboid U ⊇ `v`
  /// is cached (the exact cuboid first, then the fewest
  /// ids, the fewest dimensions and the lowest subspace bits), copies
  /// its subspace/ids into the non-null out-params, touches the LRU
  /// stamp, and returns true. This is the ancestor a Query miss of `v`
  /// would seed from, with the same cache contents. Never computes and
  /// never waits.
  bool PeekNearestAncestor(Subspace v, Subspace* ancestor,
                           std::vector<PointId>* ids)
      SKYLINE_EXCLUDES(cache_mu_);

  /// Non-blocking degraded read of `v`. When `v` is cached, returns that
  /// entry (`exact`). Otherwise it picks the ancestor U ⊇ `v` that
  /// PeekNearestAncestor would and returns the core of sky(v) over
  /// sky(U), computed with a seeded
  /// miss's kernel choice (ComputeSeededCore) but without the tie
  /// repair, so it reads no row outside sky(U). Touches the picked
  /// entry's LRU stamp; never caches, never waits, and counts neither
  /// as a query nor as a hit. Returns false when no U ⊇ `v` is cached.
  bool PeekStale(Subspace v, StaleAnswer* answer) SKYLINE_EXCLUDES(cache_mu_);

  /// The current dataset version (immutable snapshot); safe to hold
  /// across updates. Point ids of any epoch resolve against any later
  /// version's rows (rows are append-only).
  DatasetVersionPtr current_version() const SKYLINE_EXCLUDES(cache_mu_);

  /// The current epoch (0 until the first non-empty ApplyUpdate).
  std::uint64_t epoch() const SKYLINE_EXCLUDES(cache_mu_);

  /// The construction-time dataset (epoch 0), read through the caller's
  /// reference: valid only while the caller keeps that dataset alive
  /// and unmodified. Later epochs are reached through current_version(),
  /// which needs neither.
  const Dataset& data() const { return data_; }
  Dim num_dims() const { return num_dims_; }
  const QueryServiceOptions& options() const { return options_; }

 private:
  /// One cached cuboid. Publication protocol: `ids_` is written exactly
  /// once, under `mu`, before `ready` is set with release order
  /// (Publish). Readers that observed `ready` with acquire order may
  /// therefore read `ids_` lock-free (published_ids) — the entry is
  /// immutable from publication on. Repairs publish a replacement Entry
  /// instead of mutating this one; `epoch` is fixed at claim time.
  struct Entry {
    explicit Entry(std::uint64_t entry_epoch) : epoch(entry_epoch) {}

    /// Stores the result, marks the entry ready, and wakes coalesced
    /// waiters. Called exactly once per entry, by the computing thread.
    void Publish(std::vector<PointId> new_ids) SKYLINE_EXCLUDES(mu);

    /// The published id list, read lock-free. Sound without holding
    /// `mu` because the caller observed `ready` (acquire) and `ids_` is
    /// never written again after the releasing store in Publish.
    const std::vector<PointId>& published_ids() const
        SKYLINE_NO_THREAD_SAFETY_ANALYSIS;

    Mutex mu;
    CondVar cv;
    std::atomic<bool> ready{false};
    std::atomic<std::uint64_t> last_used{0};
    /// Epoch of the dataset version the ids are (being) computed for.
    const std::uint64_t epoch;

   private:
    std::vector<PointId> ids_ SKYLINE_GUARDED_BY(mu);
  };
  using EntryPtr = std::shared_ptr<Entry>;

  /// Waits until `entry` is published and returns a copy of its ids.
  std::vector<PointId> AwaitAndCopy(const EntryPtr& entry);

  /// The best ready cached cuboid U ⊇ `v`, or nullptr. Candidates are
  /// ranked by (U ≠ v, id count, dimension count, subspace bits), so the
  /// pick is a function of the cache contents alone. Writes U to the
  /// non-null out-param. The one ranking behind Query's seed,
  /// PeekNearestAncestor and PeekStale.
  EntryPtr FindBestAncestor(Subspace v, Subspace* ancestor_subspace) const
      SKYLINE_REQUIRES_SHARED(cache_mu_);

  /// Computes sky(v) over the live rows of `version` from scratch with
  /// the subset-boosted engine; adds the dominance tests spent to
  /// `tests`.
  std::vector<PointId> ComputeCold(const DatasetVersion& version, Subspace v,
                                   std::uint64_t* tests) const;

  /// Computes the core of sky(v) over the ancestor `candidates`: the
  /// skycube BNL below `seeded_boost_threshold` candidates, the
  /// subset-boosted engine on the projected candidate rows at or above
  /// it. Reads only the candidates' rows, which `version` holds for any
  /// id of its epoch or an earlier one. Tie repair is the caller's job.
  std::vector<PointId> ComputeSeededCore(const DatasetVersion& version,
                                         Subspace v,
                                         const std::vector<PointId>& candidates,
                                         std::uint64_t* tests) const;

  /// The seeded miss's rule: ComputeSeededCore over `candidates`, then
  /// the tie closure over the live rows of `version`, which is skipped
  /// when `v` holds one of its distinct_dims(). Ids ascending. Sets
  /// `*tie_scanned` (when non-null) to whether the closure ran.
  std::vector<PointId> ComputeSeeded(const DatasetVersion& version, Subspace v,
                                     const std::vector<PointId>& candidates,
                                     std::uint64_t* tests,
                                     bool* tie_scanned) const;

  /// Repairs `ids`, the answer of cuboid `v` one epoch before `next`
  /// (ascending, closed under v-ties), to `next`: the update appended the
  /// ids from `first_inserted` on, and the members `next` no longer
  /// holds live are the ones it removed. `pinned`, when non-null, is the
  /// full-space answer already repaired to `next`; the removal
  /// candidates are drawn from it instead of from every live row.
  /// Returns the answer at `next`, ascending; adds the dominance tests
  /// spent to `*tests`.
  std::vector<PointId> Repair(const DatasetVersion& next, Subspace v,
                              PointId first_inserted,
                              const std::vector<PointId>* pinned,
                              std::vector<PointId> ids,
                              std::uint64_t* tests) const;

  /// Publishes `ids` into `entry` and evicts LRU entries until the
  /// entry bound holds again. If an update detached `entry` from the
  /// cache while it was computing, the publication only feeds its
  /// waiters and the cache is untouched.
  void PublishAndEvict(const EntryPtr& entry, std::uint64_t key,
                       std::vector<PointId> ids) SKYLINE_EXCLUDES(cache_mu_);

  /// Whether the cuboid with subspace bits `key` is the pinned full
  /// space: never evicted, repaired first on every update.
  bool IsPinned(std::uint64_t key) const {
    return options_.pin_full_space && key == Subspace::Full(num_dims_).bits();
  }

  /// True while the unpinned entries exceed `max_entries`.
  bool OverBudget() const SKYLINE_REQUIRES_SHARED(cache_mu_);

  /// Only data() reads it: every other path reads the service's own
  /// version snapshot and `num_dims_`.
  const Dataset& data_;
  const Dim num_dims_;
  const QueryServiceOptions options_;

  mutable SharedMutex cache_mu_;
  /// Key: subspace bits.
  std::unordered_map<std::uint64_t, EntryPtr> cache_
      SKYLINE_GUARDED_BY(cache_mu_);
  /// The current dataset snapshot; replaced wholesale by ApplyUpdate.
  DatasetVersionPtr version_ SKYLINE_GUARDED_BY(cache_mu_);

  std::atomic<std::uint64_t> clock_{0};  ///< LRU stamp source.

  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> seeded_{0};
  std::atomic<std::uint64_t> tie_scans_{0};
  std::atomic<std::uint64_t> cold_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> seeded_tests_{0};
  std::atomic<std::uint64_t> cold_tests_{0};
  std::atomic<std::uint64_t> updates_{0};
  std::atomic<std::uint64_t> insert_points_{0};
  std::atomic<std::uint64_t> remove_points_{0};
  std::atomic<std::uint64_t> repaired_{0};
  std::atomic<std::uint64_t> aborted_inflight_{0};
  std::atomic<std::uint64_t> update_tests_{0};
  LatencyHistogram latency_;  // unguarded: internally lock-free atomics
  LatencyHistogram update_latency_;  // unguarded: internally lock-free atomics
};

}  // namespace skyline

#endif  // SKYLINE_QUERY_QUERY_SERVICE_H_

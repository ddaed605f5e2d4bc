#include "src/query/query_service.h"

#include <algorithm>
#include <chrono>
#include <tuple>
#include <utility>

#include "src/core/contracts.h"
#include "src/parallel/parallel_subset.h"
#include "src/skycube/skycube.h"
#include "src/subset/boosted.h"

namespace skyline {

namespace {

/// Runs `engine` over rows `ids` of `data` projected onto `v` (engine row
/// i is point ids[i]) and maps its answer back to point ids. Adds the
/// dominance tests spent to `*tests`.
std::vector<PointId> SkylineOfRows(const SkylineAlgorithm& engine,
                                   const Dataset& data, Subspace v,
                                   std::span<const PointId> ids,
                                   std::uint64_t* tests) {
  std::vector<Value> values;
  values.reserve(ids.size() * v.size());
  for (PointId id : ids) {
    const Value* row = data.row(id);
    v.ForEachDim([&](Dim i) { values.push_back(row[i]); });
  }
  SkylineStats stats;
  std::vector<PointId> local =
      engine.Compute(Dataset(v.size(), std::move(values)), &stats);
  if (tests != nullptr) *tests += stats.dominance_tests;
  for (PointId& id : local) id = ids[id];
  return local;
}

/// Aborts unless `v` is a non-empty subspace of the first `num_dims`
/// dimensions. Subspaces are caller input: checked in every build type.
void CheckSubspace(Subspace v, Dim num_dims, const char* msg) {
  if (v.empty() || !v.IsSubsetOf(Subspace::Full(num_dims))) {
    SKYLINE_CONTRACT_VIOLATION(msg);
  }
}

/// Why ApplyUpdate must refuse the batch against `version`, or nullptr
/// when it can apply it.
const char* UpdateError(const DatasetVersion& version,
                        std::span<const Value> inserts,
                        std::span<const PointId> removes) {
  if (inserts.size() % version.data.num_dims() != 0) {
    return "ApplyUpdate: inserts must be k * num_dims values";
  }
  std::vector<PointId> sorted(removes.begin(), removes.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] >= version.data.num_points()) {
      return "ApplyUpdate: remove id out of range or from this batch";
    }
    if (!version.IsLive(sorted[i]) || (i > 0 && sorted[i] == sorted[i - 1])) {
      return "ApplyUpdate: remove of an already-removed or repeated id";
    }
  }
  return nullptr;
}

}  // namespace

Subspace DatasetVersion::distinct_dims() const {
  if (!distinct_known_.load()) {
    distinct_bits_.store(
        DistinctDims(data, Subspace::Full(data.num_dims()), 0).bits());
    distinct_known_.store(true);
  }
  return Subspace(distinct_bits_.load());
}

void DatasetVersion::set_distinct_dims(Subspace dims) {
  distinct_bits_.store(dims.bits());
  distinct_known_.store(true);
}

void QueryService::Entry::Publish(std::vector<PointId> new_ids) {
  {
    MutexLock lock(mu);
    ids_ = std::move(new_ids);
    ready.store(true, std::memory_order_release);
  }
  cv.NotifyAll();
}

const std::vector<PointId>& QueryService::Entry::published_ids() const {
  // Lock-free by protocol: ids_ was written under mu before the
  // releasing ready store, the caller synchronized with an acquiring
  // ready load, and no write ever follows publication.
  SKYLINE_DCHECK(ready.load(std::memory_order_acquire),
                 "Entry::published_ids: entry not published yet");
  return ids_;
}

QueryService::QueryService(const Dataset& data, QueryServiceOptions options)
    : data_(data), num_dims_(data.num_dims()), options_(std::move(options)) {
  SKYLINE_ASSERT(options_.max_entries >= 1,
                 "QueryService: max_entries must be at least 1");
  auto v0 = std::make_shared<DatasetVersion>();
  v0->data = data_;
  v0->live.assign(data_.num_points(), 1);
  v0->num_live = data_.num_points();
  {
    WriterLock lock(cache_mu_);
    version_ = v0;
  }
  if (!options_.pin_full_space) return;
  const Subspace full = Subspace::Full(num_dims_);
  std::uint64_t tests = 0;
  auto entry = std::make_shared<Entry>(/*pinned_entry=*/true, /*entry_epoch=*/0);
  std::vector<PointId> ids = ComputeCold(*v0, full, &tests);
  cold_tests_.fetch_add(tests, std::memory_order_relaxed);
  entry->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  entry->Publish(std::move(ids));
  // No other thread can hold a reference yet, but taking the lock keeps
  // the guarded-field discipline uniform (and is uncontended here).
  WriterLock lock(cache_mu_);
  pinned_entries_ = 1;
  cache_.emplace(full.bits(), std::move(entry));
}

std::vector<PointId> QueryService::AwaitAndCopy(const EntryPtr& entry) {
  if (!entry->ready.load(std::memory_order_acquire)) {
    MutexLock lock(entry->mu);
    entry->cv.Wait(
        lock, [&] { return entry->ready.load(std::memory_order_acquire); });
  }
  entry->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  // epoch-ok: waiters get the answer of the epoch the entry was claimed
  // at; the Query caller reports entry->epoch alongside these ids.
  return entry->published_ids();  // Immutable once ready; copy is race-free.
}

QueryService::EntryPtr QueryService::FindBestAncestor(
    Subspace v, Subspace* ancestor_subspace) const {
  // Subspace bits end every tie, so the pick never depends on the map's
  // iteration order.
  using Rank = std::tuple<bool, std::size_t, Dim, std::uint64_t>;
  EntryPtr best;
  Rank best_rank;
  for (const auto& [bits, entry] : cache_) {
    const Subspace u(bits);
    if (!v.IsSubsetOf(u)) continue;
    if (!entry->ready.load(std::memory_order_acquire)) continue;
    // epoch-ok: every ready entry is at the current epoch (ApplyUpdate
    // repairs them all), so any one is a sound seed.
    const Rank rank{u != v, entry->published_ids().size(), u.size(), bits};
    if (best == nullptr || rank < best_rank) {
      best = entry;
      best_rank = rank;
    }
  }
  if (best != nullptr && ancestor_subspace != nullptr) {
    *ancestor_subspace = Subspace(std::get<3>(best_rank));
  }
  return best;
}

std::vector<PointId> QueryService::ComputeCold(const DatasetVersion& version,
                                               Subspace v,
                                               std::uint64_t* tests) const {
  if (version.num_live == 0) return {};
  const ParallelSubsetSfs parallel(options_.threads, options_.algorithm);
  const SfsSubset sequential(options_.algorithm);
  const SkylineAlgorithm& engine =
      version.num_live >= options_.parallel_cold_threshold
          ? static_cast<const SkylineAlgorithm&>(parallel)
          : sequential;
  std::vector<PointId> ids;
  if (v == Subspace::Full(version.data.num_dims()) && !version.has_removed) {
    // Every row in every dimension: the engine reads the version's rows
    // in place instead of a gathered copy of them.
    SkylineStats stats;
    ids = engine.Compute(version.data, &stats);
    if (tests != nullptr) *tests += stats.dominance_tests;
  } else {
    std::vector<PointId> live_ids;
    live_ids.reserve(version.num_live);
    for (PointId p = 0; p < version.data.num_points(); ++p) {
      if (version.IsLive(p)) live_ids.push_back(p);
    }
    ids = SkylineOfRows(engine, version.data, v, live_ids, tests);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<PointId> QueryService::ComputeSeededCore(
    const DatasetVersion& version, Subspace v,
    const std::vector<PointId>& candidates, std::uint64_t* tests) const {
  if (candidates.size() < options_.seeded_boost_threshold) {
    // Warm this worker's projection scratch to the largest seed the BNL
    // can see (below the threshold, and no more than the live rows; a
    // "never boost" threshold must not size an allocation), at full
    // dimensionality, so repeated seeded queries stop allocating.
    WarmSubspaceScratch(
        std::min(options_.seeded_boost_threshold, version.num_live),
        version.data.num_dims());
    return SubspaceSkylineOverCandidates(version.data, v, candidates, tests);
  }
  // Large seed (e.g. a near-total anti-correlated full-space skyline):
  // the O(|seed|^2) BNL loses to the subset-boosted engine on the
  // projected candidate rows.
  return SkylineOfRows(SfsSubset(options_.algorithm), version.data, v,
                       candidates, tests);
}

std::vector<PointId> QueryService::ComputeSeeded(
    const DatasetVersion& version, Subspace v,
    const std::vector<PointId>& candidates, std::uint64_t* tests,
    bool* tie_scanned) const {
  std::vector<PointId> core = ComputeSeededCore(version, v, candidates, tests);
  // A distinct dimension in V leaves every core member tied only with
  // itself, so the tie repair would return the core: skip its scan of
  // every row.
  const bool scan = (v & version.distinct_dims()).empty();
  if (tie_scanned != nullptr) *tie_scanned = scan;
  if (!scan) {
    std::sort(core.begin(), core.end());
    return core;
  }
  return version.has_removed
             ? CloseUnderProjectionTies(version.data, v, core, version.live)
             : CloseUnderProjectionTies(version.data, v, core);
}

std::vector<PointId> QueryService::Repair(const DatasetVersion& next,
                                          Subspace v, PointId first_inserted,
                                          const std::vector<PointId>* pinned,
                                          std::vector<PointId> ids,
                                          std::uint64_t* tests) const {
  // Insert rule: an inserted point p strictly V-dominated by some
  // member changes nothing (dominance is transitive, so a member
  // witness exists whenever any dominator exists); otherwise p joins
  // the answer and evicts exactly the members it V-dominates. A tie on
  // V with a member also joins (nothing can dominate p without
  // dominating that member). Inserted ids exceed every prior id, so
  // appending keeps `ids` sorted; later inserts of the same batch are
  // correctly checked against earlier ones.
  std::uint64_t local_tests = 0;
  const auto dominates = [&](PointId a, PointId b) {
    ++local_tests;
    return DominatesInSubspace(next.data.row(a), next.data.row(b), v);
  };
  for (PointId p = first_inserted; p < next.data.num_points(); ++p) {
    bool dominated = false;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const PointId s = ids[i];
      if (dominates(s, p)) {
        dominated = true;
        for (std::size_t j = i; j < ids.size(); ++j) ids[keep++] = ids[j];
        break;
      }
      if (dominates(p, s)) continue;
      ids[keep++] = s;
    }
    ids.resize(keep);
    if (!dominated) ids.push_back(p);
  }

  // Remove rule: a removed non-member was strictly V-dominated by a
  // member (ties are members by the closure property), so it shielded
  // nothing. Removed members M may uncover C: the live rows outside the
  // answer that a member of M V-dominates and no kept member does. The
  // new answer is the kept members plus the seeded skyline of C.
  std::vector<PointId> removed;
  for (PointId s : ids) {
    if (!next.IsLive(s)) removed.push_back(s);
  }
  if (!removed.empty()) {
    std::erase_if(ids, [&](PointId s) { return !next.IsLive(s); });
    std::vector<PointId> candidates;
    std::size_t member = 0;  // walks the kept `ids` beside the scan
    const auto consider = [&](PointId x) {
      while (member < ids.size() && ids[member] < x) ++member;
      if (member < ids.size() && ids[member] == x) return;
      if (!next.IsLive(x)) return;  // removed members among them
      if (std::none_of(removed.begin(), removed.end(),
                       [&](PointId m) { return dominates(m, x); })) {
        return;
      }
      if (std::any_of(ids.begin(), ids.end(),
                      [&](PointId s) { return dominates(s, x); })) {
        return;
      }
      candidates.push_back(x);
    };
    if (pinned != nullptr) {
      for (PointId x : *pinned) consider(x);
    } else {
      for (PointId x = 0; x < next.data.num_points(); ++x) consider(x);
    }
    if (!candidates.empty()) {
      // Drawn from every live row, C holds each row tied with a member
      // of its skyline, so the tie closure would add nothing there.
      const std::vector<PointId> surfaced =
          pinned != nullptr
              ? ComputeSeeded(next, v, candidates, &local_tests, nullptr)
              : ComputeSeededCore(next, v, candidates, &local_tests);
      ids.insert(ids.end(), surfaced.begin(), surfaced.end());
      std::sort(ids.begin(), ids.end());
    }
  }
  if (tests != nullptr) *tests += local_tests;
  return ids;
}

std::uint64_t QueryService::ApplyUpdate(std::span<const Value> inserts,
                                        std::span<const PointId> removes) {
  if (inserts.empty() && removes.empty()) return epoch();  // No-op.
  const Dim d = num_dims_;
  const std::size_t num_inserts = inserts.size() / d;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t tests = 0;
  std::uint64_t new_epoch = 0;
  {
    WriterLock lock(cache_mu_);
    const DatasetVersionPtr old = version_;
    // The batch is caller input, so it is checked in every build type; a
    // bad one aborts before any state changes.
    if (const char* error = UpdateError(*old, inserts, removes)) {
      SKYLINE_CONTRACT_VIOLATION(error);
    }
    auto next = std::make_shared<DatasetVersion>();
    const PointId first_inserted =
        static_cast<PointId>(old->data.num_points());
    // Rows and live flags are each copied once, into buffers sized for
    // the inserted rows up front.
    next->live.reserve(old->live.size() + num_inserts);
    next->live.assign(old->live.begin(), old->live.end());
    for (PointId r : removes) next->live[r] = 0;
    next->live.resize(old->live.size() + num_inserts, 1);
    const std::vector<Value>& old_values = old->data.values();
    std::vector<Value> values;
    values.reserve(old_values.size() + inserts.size());
    values.insert(values.end(), old_values.begin(), old_values.end());
    values.insert(values.end(), inserts.begin(), inserts.end());
    next->data = Dataset(d, std::move(values));
    next->epoch = old->epoch + 1;
    next->has_removed = old->has_removed || !removes.empty();
    next->num_live = old->num_live + num_inserts - removes.size();
    next->set_distinct_dims(
        DistinctDims(next->data, old->distinct_dims(), first_inserted));
    version_ = next;
    new_epoch = next->epoch;

    // Sweep the cache: detach what is still computing and repair every
    // ready entry to the new epoch, the pinned full space first, so the
    // others draw their removal candidates from its repaired answer.
    // Published id lists are immutable, so a repair installs a
    // replacement entry re-stamped with the new epoch.
    std::size_t unpinned_ids = 0;
    const auto repair = [&](EntryPtr& entry, Subspace v,
                            const std::vector<PointId>* pinned) {
      // epoch-ok: the entry is at the old epoch, the one Repair starts
      // from.
      std::vector<PointId> ids = Repair(*next, v, first_inserted, pinned,
                                        entry->published_ids(), &tests);
      if (!entry->pinned) unpinned_ids += ids.size();
      auto fresh = std::make_shared<Entry>(entry->pinned, next->epoch);
      fresh->last_used.store(entry->last_used.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
      fresh->Publish(std::move(ids));
      entry = std::move(fresh);
      repaired_.fetch_add(1, std::memory_order_relaxed);
    };
    const Subspace full = Subspace::Full(d);
    const std::vector<PointId>* pinned = nullptr;
    if (options_.pin_full_space) {
      EntryPtr& entry = cache_.at(full.bits());
      repair(entry, full, nullptr);
      // epoch-ok: repaired to the new epoch just above.
      pinned = &entry->published_ids();
    }
    for (auto it = cache_.begin(); it != cache_.end();) {
      if (!it->second->ready.load(std::memory_order_acquire)) {
        // In-flight computation over the old version: unlink it so its
        // result is never cached under the new epoch. The computing
        // thread still publishes to its waiters and detects the
        // detachment in PublishAndEvict.
        aborted_inflight_.fetch_add(1, std::memory_order_relaxed);
        it = cache_.erase(it);
        continue;
      }
      if (!it->second->pinned) repair(it->second, Subspace(it->first), pinned);
      ++it;
    }
    cached_ids_ = unpinned_ids;
    if constexpr (kSkylineDeepChecks) {
      for (const auto& [bits, entry] : cache_) {
        SKYLINE_DCHECK(entry->epoch == next->epoch,
                       "ApplyUpdate: a cached cuboid missed the repair");
      }
    }
  }
  updates_.fetch_add(1, std::memory_order_relaxed);
  insert_points_.fetch_add(num_inserts, std::memory_order_relaxed);
  remove_points_.fetch_add(removes.size(), std::memory_order_relaxed);
  update_tests_.fetch_add(tests, std::memory_order_relaxed);
  update_latency_.Record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return new_epoch;
}

bool QueryService::CanApplyUpdate(std::span<const Value> inserts,
                                  std::span<const PointId> removes) const {
  ReaderLock lock(cache_mu_);
  return UpdateError(*version_, inserts, removes) == nullptr;
}

bool QueryService::OverBudget() const {
  const std::size_t unpinned = cache_.size() - pinned_entries_;
  if (unpinned > options_.max_entries) return true;
  return options_.max_total_ids != 0 && cached_ids_ > options_.max_total_ids;
}

void QueryService::PublishAndEvict(const EntryPtr& entry, std::uint64_t key,
                                   std::vector<PointId> ids) {
  const std::size_t num_ids = ids.size();
  entry->Publish(std::move(ids));

  WriterLock lock(cache_mu_);
  auto self = cache_.find(key);
  if (self == cache_.end() || self->second != entry) {
    // An ApplyUpdate detached this computation while it ran: the
    // publication above fed the coalesced waiters (who get the answer
    // for the epoch they queued behind), but the cache — now at a newer
    // epoch — must not absorb it.
    return;
  }
  cached_ids_ += num_ids;
  entry->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);

  while (OverBudget()) {
    // LRU victim among ready unpinned entries, the freshly published
    // one excluded unless it is the only candidate left.
    auto victim = cache_.end();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      const EntryPtr& e = it->second;
      if (e->pinned || e == entry) continue;
      if (!e->ready.load(std::memory_order_acquire)) continue;
      if (victim == cache_.end() ||
          e->last_used.load(std::memory_order_relaxed) <
              victim->second->last_used.load(std::memory_order_relaxed)) {
        victim = it;
      }
    }
    if (victim == cache_.end()) {
      // Only in-flight entries (or the fresh one) remain; if the fresh
      // entry alone busts the id budget, keeping it is the policy.
      if (cache_.count(key) != 0 &&
          cache_.size() - pinned_entries_ > options_.max_entries) {
        cached_ids_ -= num_ids;
        cache_.erase(key);
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    // epoch-ok: eviction accounting — the ids are dropped, not served.
    cached_ids_ -= victim->second->published_ids().size();
    cache_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<PointId> QueryService::Query(Subspace v,
                                         std::uint64_t* epoch_out) {
  CheckSubspace(v, num_dims_,
                "Query: empty subspace or one outside the dataset's space");
  const auto start = std::chrono::steady_clock::now();
  queries_.fetch_add(1, std::memory_order_relaxed);

  auto finish = [&](std::vector<PointId> ids) {
    latency_.Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    return ids;
  };
  // Serves an entry found in the map, after the lock is released: a
  // ready entry is a hit, an in-flight one coalesces onto its compute.
  auto serve = [&](const EntryPtr& entry, bool was_ready) {
    (was_ready ? hits_ : coalesced_).fetch_add(1, std::memory_order_relaxed);
    if (epoch_out != nullptr) *epoch_out = entry->epoch;
    return finish(AwaitAndCopy(entry));
  };

  // Fast path: shared-lock lookup. Every entry in the map is current:
  // an update repairs each ready one and detaches each in-flight one.
  {
    ReaderLock lock(cache_mu_);
    auto it = cache_.find(v.bits());
    if (it != cache_.end()) {
      EntryPtr entry = it->second;
      const bool was_ready = entry->ready.load(std::memory_order_acquire);
      lock.Unlock();
      return serve(entry, was_ready);
    }
  }

  // Miss: claim the cuboid (single-flight) and pick a seed, all under
  // one exclusive-lock critical section.
  EntryPtr entry;
  EntryPtr ancestor;
  Subspace ancestor_subspace;
  DatasetVersionPtr snap;
  {
    WriterLock lock(cache_mu_);
    auto it = cache_.find(v.bits());
    if (it != cache_.end()) {
      // Another thread claimed it between our two lookups.
      EntryPtr existing = it->second;
      const bool was_ready = existing->ready.load(std::memory_order_acquire);
      lock.Unlock();
      return serve(existing, was_ready);
    }
    snap = version_;
    entry = std::make_shared<Entry>(/*pinned_entry=*/false, snap->epoch);
    cache_.emplace(v.bits(), entry);
    ancestor = FindBestAncestor(v, &ancestor_subspace);
  }

  std::vector<PointId> ids;
  std::uint64_t tests = 0;
  if (ancestor != nullptr && ancestor_subspace != v) {
    // Top-down sharing from the ancestor cuboid: V-skyline of the
    // ancestor's ids, then the duplicate-projection tie repair (live
    // rows only once the version carries tombstones).
    // epoch-ok: the ancestor is at `snap`'s epoch (both captured under
    // the same lock, and every cached entry is current).
    bool tie_scanned = false;
    ids = ComputeSeeded(*snap, v, ancestor->published_ids(), &tests,
                        &tie_scanned);
    if (tie_scanned) tie_scans_.fetch_add(1, std::memory_order_relaxed);
    seeded_.fetch_add(1, std::memory_order_relaxed);
    seeded_tests_.fetch_add(tests, std::memory_order_relaxed);
  } else {
    ids = ComputeCold(*snap, v, &tests);
    cold_.fetch_add(1, std::memory_order_relaxed);
    cold_tests_.fetch_add(tests, std::memory_order_relaxed);
  }

  if (epoch_out != nullptr) *epoch_out = snap->epoch;
  PublishAndEvict(entry, v.bits(), ids);
  return finish(std::move(ids));
}

bool QueryService::PeekExact(Subspace v, std::vector<PointId>* ids,
                             std::uint64_t* epoch_out) {
  CheckSubspace(
      v, num_dims_,
      "PeekExact: empty subspace or one outside the dataset's space");
  ReaderLock lock(cache_mu_);
  auto it = cache_.find(v.bits());
  if (it == cache_.end()) return false;
  const EntryPtr& entry = it->second;
  if (!entry->ready.load(std::memory_order_acquire)) return false;
  entry->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  // epoch-ok: a ready entry in the map is at the current epoch, which
  // the caller receives with it.
  if (ids != nullptr) *ids = entry->published_ids();
  if (epoch_out != nullptr) *epoch_out = entry->epoch;
  return true;
}

bool QueryService::PeekNearestAncestor(Subspace v, Subspace* ancestor,
                                       std::vector<PointId>* ids) {
  CheckSubspace(
      v, num_dims_,
      "PeekNearestAncestor: empty subspace or one outside the dataset's "
      "space");
  ReaderLock lock(cache_mu_);
  const EntryPtr best = FindBestAncestor(v, ancestor);
  if (best == nullptr) return false;
  best->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  // epoch-ok: every ready entry in the map is at the current epoch.
  if (ids != nullptr) *ids = best->published_ids();
  return true;
}

bool QueryService::PeekStale(Subspace v, StaleAnswer* answer) {
  CheckSubspace(
      v, num_dims_,
      "PeekStale: empty subspace or one outside the dataset's space");
  EntryPtr best;
  Subspace ancestor;
  DatasetVersionPtr snap;
  {
    ReaderLock lock(cache_mu_);
    best = FindBestAncestor(v, &ancestor);
    if (best == nullptr) return false;
    best->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
    snap = version_;
  }
  // epoch-ok: the entry is at `snap`'s epoch (both read under one lock),
  // which travels with the answer.
  answer->epoch = best->epoch;
  answer->tests = 0;
  answer->exact = ancestor == v;
  if (answer->exact) {
    answer->ids = best->published_ids();
    return true;
  }
  answer->ids =
      ComputeSeededCore(*snap, v, best->published_ids(), &answer->tests);
  std::sort(answer->ids.begin(), answer->ids.end());
  return true;
}

DatasetVersionPtr QueryService::current_version() const {
  ReaderLock lock(cache_mu_);
  return version_;
}

std::uint64_t QueryService::epoch() const {
  ReaderLock lock(cache_mu_);
  return version_->epoch;
}

QueryStatsSnapshot QueryService::Stats() const {
  QueryStatsSnapshot snap;
  snap.queries = queries_.load(std::memory_order_relaxed);
  snap.hits = hits_.load(std::memory_order_relaxed);
  snap.coalesced = coalesced_.load(std::memory_order_relaxed);
  snap.seeded = seeded_.load(std::memory_order_relaxed);
  snap.tie_scans = tie_scans_.load(std::memory_order_relaxed);
  snap.cold = cold_.load(std::memory_order_relaxed);
  snap.evictions = evictions_.load(std::memory_order_relaxed);
  snap.seeded_tests = seeded_tests_.load(std::memory_order_relaxed);
  snap.cold_tests = cold_tests_.load(std::memory_order_relaxed);
  snap.updates = updates_.load(std::memory_order_relaxed);
  snap.insert_points = insert_points_.load(std::memory_order_relaxed);
  snap.remove_points = remove_points_.load(std::memory_order_relaxed);
  snap.repaired = repaired_.load(std::memory_order_relaxed);
  snap.aborted_inflight = aborted_inflight_.load(std::memory_order_relaxed);
  snap.update_tests = update_tests_.load(std::memory_order_relaxed);
  {
    ReaderLock lock(cache_mu_);
    snap.epoch = version_->epoch;
    snap.live_points = version_->num_live;
    for (const auto& [bits, entry] : cache_) {
      if (!entry->ready.load(std::memory_order_acquire)) continue;
      ++snap.cache_entries;
      // epoch-ok: counting, not serving.
      snap.cache_ids += entry->published_ids().size();
    }
  }
  snap.latency = latency_.Snap();
  snap.update_latency = update_latency_.Snap();
  return snap;
}

}  // namespace skyline

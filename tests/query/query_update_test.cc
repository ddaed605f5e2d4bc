// Unit tests of QueryService::ApplyUpdate: epoch bumping, the
// insert/remove repair rules, invalidation, the pinned full-space
// seed's eager maintenance, the stale-entry reads (PeekExact refuses
// them, PeekStale serves them), and the
// epoch edge cases of ISSUE 9 (update overtaking an in-flight compute,
// removal of a pinned seed member, empty batches).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/dataset.h"
#include "src/data/generator.h"
#include "src/query/query_service.h"
#include "src/skycube/skycube.h"

namespace skyline {
namespace {

// Recompute-from-scratch oracle over a version's live rows: densify,
// run the reference SubspaceSkyline, map row indices back to stable
// point ids.
std::vector<PointId> OracleSkyline(const DatasetVersion& version, Subspace v) {
  std::vector<PointId> live_ids;
  Dataset dense(version.data.num_dims());
  for (PointId id = 0; id < version.data.num_points(); ++id) {
    if (!version.IsLive(id)) continue;
    live_ids.push_back(id);
    dense.Append(version.data.point(id));
  }
  std::vector<PointId> out;
  for (PointId p : SubspaceSkyline(dense, v)) out.push_back(live_ids[p]);
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectAllCuboidsMatchOracle(QueryService& service) {
  const DatasetVersionPtr version = service.current_version();
  const std::uint64_t full = (std::uint64_t{1} << version->data.num_dims()) - 1;
  for (std::uint64_t bits = 1; bits <= full; ++bits) {
    const Subspace v(bits);
    std::uint64_t epoch = 0;
    EXPECT_EQ(service.Query(v, &epoch), OracleSkyline(*version, v))
        << "cuboid " << v.ToString();
    EXPECT_EQ(epoch, version->epoch);
  }
}

TEST(QueryUpdateTest, EmptyUpdateIsANoOp) {
  const Dataset data = Generate(DataType::kUniformIndependent, 100, 3, 40);
  QueryService service(data);
  EXPECT_EQ(service.ApplyUpdate({}, {}), 0u);
  EXPECT_EQ(service.epoch(), 0u);
  const QueryStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.updates, 0u);
  EXPECT_EQ(stats.update_latency.total, 0u);
}

TEST(QueryUpdateTest, InsertBumpsEpochAndAssignsAppendedIds) {
  const Dataset data = Generate(DataType::kUniformIndependent, 50, 3, 41);
  QueryService service(data);
  const std::vector<Value> rows = {0.5, 0.5, 0.5, 0.25, 0.9, 0.1};
  EXPECT_EQ(service.ApplyUpdate(rows, {}), 1u);
  EXPECT_EQ(service.epoch(), 1u);

  const DatasetVersionPtr version = service.current_version();
  EXPECT_EQ(version->epoch, 1u);
  EXPECT_EQ(version->data.num_points(), 52u);
  EXPECT_EQ(version->num_live, 52u);
  EXPECT_TRUE(version->IsLive(50));
  EXPECT_EQ(version->data.at(50, 0), 0.5);
  EXPECT_EQ(version->data.at(51, 1), 0.9);

  const QueryStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(stats.insert_points, 2u);
  EXPECT_EQ(stats.remove_points, 0u);
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.live_points, 52u);
  EXPECT_EQ(stats.update_latency.total, 1u);
  ExpectAllCuboidsMatchOracle(service);
}

TEST(QueryUpdateTest, DominatedInsertRepairsCachedCuboids) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 3, 42);
  QueryService service(data);
  for (std::uint64_t bits = 1; bits < 8; ++bits) service.Query(Subspace(bits));
  const std::vector<PointId> before = service.Query(Subspace::Full(3));

  // A point dominated by everything cannot join any cuboid's skyline:
  // every cached entry repairs in place and stays current.
  const std::uint64_t repaired_before = service.Stats().repaired;
  service.ApplyUpdate(std::vector<Value>{2.0, 2.0, 2.0}, {});
  const QueryStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.repaired - repaired_before, 7u);
  EXPECT_EQ(stats.invalidated, 0u);
  EXPECT_EQ(stats.stale_entries, 0u);
  EXPECT_GT(stats.update_tests, 0u);

  // Repaired entries serve hits at the new epoch — no recompute.
  const std::uint64_t hits_before = stats.hits;
  std::uint64_t epoch = 0;
  EXPECT_EQ(service.Query(Subspace::Full(3), &epoch), before);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(service.Stats().hits, hits_before + 1);
  ExpectAllCuboidsMatchOracle(service);
}

TEST(QueryUpdateTest, DominatingInsertJoinsAndEvictsViaRepair) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 3, 43);
  QueryService service(data);
  for (std::uint64_t bits = 1; bits < 8; ++bits) service.Query(Subspace(bits));

  // A point that dominates every row takes over every cuboid — still a
  // repair (insert rule), never an invalidation.
  service.ApplyUpdate(std::vector<Value>{-1.0, -1.0, -1.0}, {});
  const QueryStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.invalidated, 0u);
  EXPECT_GE(stats.repaired, 7u);
  for (std::uint64_t bits = 1; bits < 8; ++bits) {
    EXPECT_EQ(service.Query(Subspace(bits)), (std::vector<PointId>{200}));
  }
}

TEST(QueryUpdateTest, RemoveOfNonMemberRepairsRemoveOfMemberInvalidates) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 3, 44);
  QueryServiceOptions options;
  options.pin_full_space = false;
  QueryService service(data, options);
  const Subspace v = Subspace::Full(3);
  const std::vector<PointId> sky = service.Query(v);
  ASSERT_FALSE(sky.empty());

  // Remove a non-member: the cached answer stays valid (remove rule).
  PointId non_member = 0;
  while (std::binary_search(sky.begin(), sky.end(), non_member)) ++non_member;
  service.ApplyUpdate({}, std::vector<PointId>{non_member});
  QueryStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.repaired, 1u);
  EXPECT_EQ(stats.invalidated, 0u);
  std::uint64_t epoch = 0;
  EXPECT_EQ(service.Query(v, &epoch), sky);
  EXPECT_EQ(epoch, 1u);

  // Remove a member: unrepairable — the entry goes stale and the next
  // query recomputes at the new epoch.
  service.ApplyUpdate({}, std::vector<PointId>{sky.front()});
  stats = service.Stats();
  EXPECT_EQ(stats.invalidated, 1u);
  EXPECT_EQ(stats.stale_entries, 1u);
  const std::uint64_t misses_before = stats.misses();
  EXPECT_EQ(service.Query(v, &epoch), OracleSkyline(*service.current_version(), v));
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(service.Stats().misses(), misses_before + 1);
  EXPECT_EQ(service.Stats().stale_entries, 0u);  // replaced in place
  ExpectAllCuboidsMatchOracle(service);
}

TEST(QueryUpdateTest, RemovedPinnedSeedMemberIsRecomputedEagerly) {
  const Dataset data = Generate(DataType::kUniformIndependent, 300, 4, 45);
  QueryService service(data);  // pinned full space
  const std::vector<PointId> sky = service.Query(Subspace::Full(4));
  ASSERT_FALSE(sky.empty());

  service.ApplyUpdate({}, std::vector<PointId>{sky.front()});
  const QueryStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.pinned_recomputes, 1u);
  EXPECT_EQ(stats.stale_entries, 0u);  // the pin never goes stale

  // The recomputed pin still seeds every first subspace query: no cold
  // misses beyond construction.
  for (std::uint64_t bits = 1; bits < 15; ++bits) service.Query(Subspace(bits));
  EXPECT_EQ(service.Stats().cold, 0u);
  ExpectAllCuboidsMatchOracle(service);
}

TEST(QueryUpdateTest, ParallelColdPathMatchesSequentialAtAnyThreadCount) {
  // parallel_cold_threshold = 1 sends every cold compute to the parallel
  // engine: the pinned setup, an unpinned cold query, and the pinned
  // recompute after a full-space skyline member is removed. Each must
  // answer as a service that never reaches the threshold does, and the
  // dominance tests charged must not depend on the thread count.
  const Dataset data = Generate(DataType::kAntiCorrelated, 3000, 6, 46);
  const Subspace full = Subspace::Full(6);
  const Subspace v{0, 2, 3};

  QueryServiceOptions sequential;
  sequential.parallel_cold_threshold = data.num_points() + 1;
  QueryService pinned_reference(data, sequential);
  const std::vector<PointId> sky = pinned_reference.Query(full);
  ASSERT_FALSE(sky.empty());
  const std::vector<PointId> removes{sky.front()};
  pinned_reference.ApplyUpdate({}, removes);
  const std::vector<PointId> recomputed = pinned_reference.Query(full);
  sequential.pin_full_space = false;
  QueryService unpinned_reference(data, sequential);
  const std::vector<PointId> cold = unpinned_reference.Query(v);

  std::vector<std::uint64_t> setup_tests, cold_tests, update_tests;
  for (unsigned threads : {1u, 2u, 4u}) {
    QueryServiceOptions options;
    options.parallel_cold_threshold = 1;
    options.threads = threads;
    QueryService pinned(data, options);
    EXPECT_EQ(pinned.Query(full), sky) << "threads=" << threads;
    pinned.ApplyUpdate({}, removes);
    EXPECT_EQ(pinned.Query(full), recomputed) << "threads=" << threads;
    EXPECT_EQ(pinned.Stats().pinned_recomputes, 1u);

    options.pin_full_space = false;
    QueryService unpinned(data, options);
    EXPECT_EQ(unpinned.Query(v), cold) << "threads=" << threads;
    EXPECT_EQ(unpinned.Stats().cold, 1u);

    setup_tests.push_back(pinned.Stats().cold_tests);
    update_tests.push_back(pinned.Stats().update_tests);
    cold_tests.push_back(unpinned.Stats().cold_tests);
  }
  for (std::size_t t = 1; t < setup_tests.size(); ++t) {
    EXPECT_EQ(setup_tests[t], setup_tests[0]);
    EXPECT_EQ(update_tests[t], update_tests[0]);
    EXPECT_EQ(cold_tests[t], cold_tests[0]);
  }
  // The parallel engine ran: it skips SfsSubset's pivot re-tests.
  EXPECT_LT(setup_tests[0], pinned_reference.Stats().cold_tests);
  EXPECT_LT(update_tests[0], pinned_reference.Stats().update_tests);
  EXPECT_LT(cold_tests[0], unpinned_reference.Stats().cold_tests);
}

TEST(QueryUpdateTest, InsertThatRepeatsAValueReenablesTheTieScan) {
  // UI values are distinct in every dimension, so seeded misses skip the
  // tie scan. The inserted row repeats the dimension-0 minimum and is
  // worse everywhere else: the full space drops it, but it ties the
  // minimum on {0}, so only the tie scan can answer {0} — and only if
  // the update took dimension 0 out of the distinct mask.
  const Dataset data = Generate(DataType::kUniformIndependent, 300, 3, 52);
  QueryService service(data);
  const Subspace full = Subspace::Full(3);
  ASSERT_EQ(service.current_version()->distinct_dims(), full);
  PointId argmin = 0;
  for (PointId p = 1; p < data.num_points(); ++p) {
    if (data.row(p)[0] < data.row(argmin)[0]) argmin = p;
  }
  const std::vector<Value> insert = {data.row(argmin)[0], 1.0, 1.0};
  service.ApplyUpdate(insert, {});
  EXPECT_EQ(service.current_version()->distinct_dims(), (Subspace{1, 2}));

  const PointId inserted = static_cast<PointId>(data.num_points());
  EXPECT_EQ(service.Query(Subspace{0}),
            (std::vector<PointId>{argmin, inserted}));
  EXPECT_EQ(service.Stats().tie_scans, 1u);
  // {0, 1} holds a distinct dimension: seeded, no scan.
  EXPECT_EQ(service.Query(Subspace{0, 1}),
            OracleSkyline(*service.current_version(), Subspace{0, 1}));
  EXPECT_EQ(service.Stats().seeded, 2u);
  EXPECT_EQ(service.Stats().tie_scans, 1u);

  // A removal keeps the mask: removed rows still count.
  const std::vector<PointId> remove = {0};
  service.ApplyUpdate({}, remove);
  EXPECT_EQ(service.current_version()->distinct_dims(), (Subspace{1, 2}));
  ExpectAllCuboidsMatchOracle(service);
}

TEST(QueryUpdateTest, PeekExactEpochOptInContract) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 3, 46);
  QueryServiceOptions options;
  options.pin_full_space = false;
  QueryService service(data, options);
  const Subspace v = Subspace::Full(3);
  const std::vector<PointId> sky = service.Query(v);

  // Invalidate the entry by removing a member.
  service.ApplyUpdate({}, std::vector<PointId>{sky.front()});

  // PeekExact never serves a stale entry.
  std::vector<PointId> ids;
  std::uint64_t entry_epoch = 99;
  EXPECT_FALSE(service.PeekExact(v, &ids, &entry_epoch));
  EXPECT_EQ(entry_epoch, 99u);

  // The stale read is PeekStale's: the core of sky(v) over the stale
  // entry — sky(v) itself, since no member dominates another — tagged
  // with the entry's epoch and age.
  StaleAnswer stale;
  ASSERT_TRUE(service.PeekStale(v, &stale));
  EXPECT_FALSE(stale.exact);
  EXPECT_EQ(stale.ids, sky);
  EXPECT_EQ(stale.epoch, 0u);
  EXPECT_EQ(stale.epoch_delta, 1u);

  // After a fresh compute the probe serves the current entry.
  service.Query(v);
  ASSERT_TRUE(service.PeekExact(v, &ids, &entry_epoch));
  EXPECT_EQ(entry_epoch, 1u);
  EXPECT_TRUE(service.PeekExact(v, nullptr));
}

TEST(QueryUpdateTest, PeekNearestAncestorPrefersFresherEpochs) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 3, 47);
  QueryServiceOptions options;
  options.pin_full_space = false;
  QueryService service(data, options);
  const Subspace target{0};
  const std::vector<PointId> full_sky = service.Query(Subspace::Full(3));

  // Make the full-space entry stale (remove one of its members), then
  // cache a current-epoch ancestor {0,1}.
  service.ApplyUpdate({}, std::vector<PointId>{full_sky.front()});
  const std::vector<PointId> pair_sky = service.Query(Subspace{0, 1});

  // Only the current-epoch ancestor is eligible.
  Subspace ancestor;
  std::vector<PointId> ids;
  ASSERT_TRUE(service.PeekNearestAncestor(target, &ancestor, &ids));
  EXPECT_EQ(ancestor, (Subspace{0, 1}));
  EXPECT_EQ(ids, pair_sky);

  // The stale read admits stale entries, yet the current ancestor still
  // ranks first (delta 0 beats delta 1 regardless of size): the answer
  // is the core over {0,1}'s skyline, at epoch 1.
  StaleAnswer answer;
  answer.epoch = answer.epoch_delta = 99;
  ASSERT_TRUE(service.PeekStale(target, &answer));
  EXPECT_FALSE(answer.exact);
  EXPECT_EQ(answer.epoch_delta, 0u);
  EXPECT_EQ(answer.epoch, 1u);
  std::vector<PointId> core =
      SubspaceSkylineOverCandidates(service.current_version()->data, target,
                                    pair_sky);
  std::sort(core.begin(), core.end());
  EXPECT_EQ(answer.ids, core);
}

TEST(QueryUpdateTest, StaleEntryNeverSeedsAMiss) {
  const Dataset data = Generate(DataType::kAntiCorrelated, 300, 3, 48);
  QueryServiceOptions options;
  options.pin_full_space = false;
  QueryService service(data, options);
  const std::vector<PointId> full_sky = service.Query(Subspace::Full(3));

  // Invalidate the only cached cuboid, then query a subspace: the miss
  // must go cold, not seed from the stale full space.
  service.ApplyUpdate({}, std::vector<PointId>{full_sky.front()});
  const std::uint64_t cold_before = service.Stats().cold;
  service.Query(Subspace{0, 1});
  const QueryStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.cold, cold_before + 1);
  EXPECT_EQ(stats.seeded, 0u);
  ExpectAllCuboidsMatchOracle(service);
}

TEST(QueryUpdateTest, MixedBatchMatchesOracleOnDuplicateHeavyData) {
  // Quantized values force duplicate projections, exercising the
  // tombstone-aware tie-closure path of seeded misses after updates.
  Dataset base = Generate(DataType::kUniformIndependent, 300, 3, 49);
  std::vector<Value> values = base.values();
  for (Value& v : values) v = std::floor(v * 4);
  const Dataset data(3, std::move(values));
  QueryService service(data);
  for (std::uint64_t bits = 1; bits < 8; ++bits) service.Query(Subspace(bits));

  service.ApplyUpdate(std::vector<Value>{1.0, 2.0, 0.0, 0.0, 1.0, 3.0},
                      std::vector<PointId>{7, 42, 133});
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.Stats().remove_points, 3u);
  ExpectAllCuboidsMatchOracle(service);

  service.ApplyUpdate(std::vector<Value>{0.0, 0.0, 0.0}, std::vector<PointId>{300});
  EXPECT_EQ(service.epoch(), 2u);
  ExpectAllCuboidsMatchOracle(service);
}

TEST(QueryUpdateTest, UpdateOvertakingInFlightComputeDetachesEntry) {
  // Race an uncached-query thread against an update burst. Any compute
  // the updates overtake must feed its waiter the pre-update epoch and
  // stay out of the cache; afterwards every cuboid must read current.
  const Dataset data = Generate(DataType::kAntiCorrelated, 2000, 4, 50);
  QueryServiceOptions options;
  options.pin_full_space = false;  // keep first queries slow (cold)
  QueryService service(data, options);

  std::uint64_t detached_observed = 0;
  for (int round = 0; round < 20; ++round) {
    const Subspace v(1 + static_cast<std::uint64_t>(round) % 14);
    std::uint64_t query_epoch = 0;
    std::vector<PointId> answer;
    std::thread querier([&] { answer = service.Query(v, &query_epoch); });
    const std::vector<Value> row = {0.5, 0.5, 0.5, 0.5};
    const std::uint64_t new_epoch = service.ApplyUpdate(row, {});
    querier.join();

    // The answer must be exact for the epoch it reports.
    DatasetVersionPtr version = service.current_version();
    ASSERT_LE(query_epoch, version->epoch);
    if (query_epoch < new_epoch) ++detached_observed;

    // And the cache must never hold that answer under a newer epoch:
    // a post-update query returns the current-epoch oracle.
    std::uint64_t check_epoch = 0;
    const std::vector<PointId> now = service.Query(v, &check_epoch);
    version = service.current_version();
    EXPECT_EQ(check_epoch, version->epoch);
    EXPECT_EQ(now, OracleSkyline(*version, v)) << "cuboid " << v.ToString();
  }
  // Whether any round actually raced (aborted_inflight > 0) is
  // timing-dependent and not asserted; the invariants above are what
  // must hold on every interleaving.
  (void)detached_observed;
}

TEST(QueryUpdateTest, ConstructionDatasetMayDieAfterTheConstructor) {
  // The service snapshots the construction dataset; updates and queries
  // must never read the caller's copy again.
  auto data = std::make_unique<Dataset>(
      Generate(DataType::kUniformIndependent, 200, 3, 52));
  QueryService service(*data);
  data.reset();  // a later read of it is a heap use-after-free (ASan)
  service.ApplyUpdate(std::vector<Value>{0.05, 0.9, 0.9, 0.9, 0.05, 0.9},
                      std::vector<PointId>{3});
  const DatasetVersionPtr version = service.current_version();
  EXPECT_EQ(version->data.num_dims(), 3u);
  EXPECT_EQ(version->num_live, 201u);
  ExpectAllCuboidsMatchOracle(service);
}

TEST(QueryUpdateTest, UpdateCountersAreExact) {
  const Dataset data = Generate(DataType::kUniformIndependent, 100, 3, 51);
  QueryService service(data);
  service.ApplyUpdate(std::vector<Value>{0.1, 0.2, 0.3}, {});
  service.ApplyUpdate({}, std::vector<PointId>{0, 1});
  service.ApplyUpdate(std::vector<Value>{0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
                      std::vector<PointId>{2});
  const QueryStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.updates, 3u);
  EXPECT_EQ(stats.insert_points, 3u);
  EXPECT_EQ(stats.remove_points, 3u);
  EXPECT_EQ(stats.epoch, 3u);
  EXPECT_EQ(stats.live_points, 100u);  // 100 + 3 - 3
  EXPECT_EQ(stats.update_latency.total, 3u);
  EXPECT_EQ(stats.dominance_tests(),
            stats.seeded_tests + stats.cold_tests + stats.update_tests);
}

}  // namespace
}  // namespace skyline

// Unit tests of QueryService::ApplyUpdate: epoch bumping, the insert
// and remove repair rules on pinned and unpinned services (removal
// candidates drawn from the pinned answer or from every live row, the
// tie rule, duplicates, a batch that inserts and removes), the reads
// after an update (PeekExact, PeekNearestAncestor, PeekStale), and the
// epoch edge cases (an update overtaking an in-flight compute, empty
// batches).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "src/core/dataset.h"
#include "src/data/generator.h"
#include "src/query/query_service.h"
#include "src/skycube/skycube.h"

namespace skyline {
namespace {

// Brute-force oracle: the live rows of `version` that no other live row
// V-dominates, every pair tested. Ids ascending.
std::vector<PointId> OracleSkyline(const DatasetVersion& version, Subspace v) {
  const Dataset& data = version.data;
  std::vector<PointId> out;
  for (PointId p = 0; p < data.num_points(); ++p) {
    if (!version.IsLive(p)) continue;
    bool dominated = false;
    for (PointId q = 0; q < data.num_points() && !dominated; ++q) {
      dominated = q != p && version.IsLive(q) &&
                  DominatesInSubspace(data.row(q), data.row(p), v);
    }
    if (!dominated) out.push_back(p);
  }
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

TEST(QueryUpdateTest, RemoveOfNonMemberOrMemberRepairs) {
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
  std::uint64_t epoch = 0;
  EXPECT_EQ(service.Query(v, &epoch), sky);
  EXPECT_EQ(epoch, 1u);

  // Remove a member: the rows it alone dominated surface from a scan of
  // every live row (no pinned answer to draw them from), and the next
  // query is a hit at the new epoch.
  service.ApplyUpdate({}, std::vector<PointId>{sky.front()});
  stats = service.Stats();
  EXPECT_EQ(stats.repaired, 2u);
  EXPECT_EQ(stats.invalidated, 0u);
  EXPECT_EQ(service.Query(v, &epoch),
            OracleSkyline(*service.current_version(), v));
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(service.Stats().hits, stats.hits + 1);
  EXPECT_EQ(service.Stats().misses(), stats.misses());
  ExpectAllCuboidsMatchOracle(service);
}

TEST(QueryUpdateTest, RemovedPinnedSeedMemberIsRepaired) {
  const Dataset data = Generate(DataType::kUniformIndependent, 300, 4, 45);
  QueryService service(data);  // pinned full space
  const std::vector<PointId> sky = service.Query(Subspace::Full(4));
  ASSERT_FALSE(sky.empty());

  service.ApplyUpdate({}, std::vector<PointId>{sky.front()});
  const QueryStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.repaired, 1u);
  EXPECT_EQ(stats.pinned_recomputes, 0u);
  EXPECT_EQ(stats.cold, 0u);
  const DatasetVersionPtr version = service.current_version();
  std::vector<PointId> pinned;
  std::uint64_t epoch = 0;
  ASSERT_TRUE(service.PeekExact(Subspace::Full(4), &pinned, &epoch));
  EXPECT_EQ(pinned, OracleSkyline(*version, Subspace::Full(4)));
  EXPECT_EQ(epoch, 1u);

  // The repaired pin still seeds every first subspace query: no cold
  // misses beyond construction.
  for (std::uint64_t bits = 1; bits < 15; ++bits) service.Query(Subspace(bits));
  EXPECT_EQ(service.Stats().cold, 0u);
  ExpectAllCuboidsMatchOracle(service);
}

TEST(QueryUpdateTest, ParallelColdPathMatchesSequentialAtAnyThreadCount) {
  // parallel_cold_threshold = 1 sends every cold compute to the parallel
  // engine: the pinned setup, and an unpinned cold query before and
  // after a removal tombstones the version. Each must answer as a
  // service that never reaches the threshold does, and the dominance
  // tests charged must not depend on the thread count, nor must the
  // repair of the pinned entry after a full-space member is removed.
  const Dataset data = Generate(DataType::kAntiCorrelated, 3000, 6, 46);
  const Subspace full = Subspace::Full(6);
  const Subspace v{0, 2, 3};
  const Subspace w{1, 4};

  QueryServiceOptions sequential;
  sequential.parallel_cold_threshold = data.num_points() + 1;
  QueryService pinned_reference(data, sequential);
  const std::vector<PointId> sky = pinned_reference.Query(full);
  ASSERT_FALSE(sky.empty());
  const std::vector<PointId> removes{sky.front()};
  pinned_reference.ApplyUpdate({}, removes);
  const std::vector<PointId> repaired = pinned_reference.Query(full);
  EXPECT_EQ(repaired, OracleSkyline(*pinned_reference.current_version(), full));
  sequential.pin_full_space = false;
  QueryService unpinned_reference(data, sequential);
  const std::vector<PointId> cold = unpinned_reference.Query(v);
  unpinned_reference.ApplyUpdate({}, removes);
  const std::vector<PointId> tombstoned_cold = unpinned_reference.Query(w);
  EXPECT_EQ(tombstoned_cold,
            OracleSkyline(*unpinned_reference.current_version(), w));

  std::vector<std::uint64_t> setup_tests, cold_tests, update_tests;
  for (unsigned threads : {1u, 2u, 4u}) {
    QueryServiceOptions options;
    options.parallel_cold_threshold = 1;
    options.threads = threads;
    QueryService pinned(data, options);
    EXPECT_EQ(pinned.Query(full), sky) << "threads=" << threads;
    pinned.ApplyUpdate({}, removes);
    EXPECT_EQ(pinned.Query(full), repaired) << "threads=" << threads;
    EXPECT_EQ(pinned.Stats().cold, 0u);

    options.pin_full_space = false;
    QueryService unpinned(data, options);
    EXPECT_EQ(unpinned.Query(v), cold) << "threads=" << threads;
    unpinned.ApplyUpdate({}, removes);
    EXPECT_EQ(unpinned.Query(w), tombstoned_cold) << "threads=" << threads;
    EXPECT_EQ(unpinned.Stats().cold, 2u);

    setup_tests.push_back(pinned.Stats().cold_tests);
    update_tests.push_back(pinned.Stats().update_tests);
    cold_tests.push_back(unpinned.Stats().cold_tests);
  }
  for (std::size_t t = 1; t < setup_tests.size(); ++t) {
    EXPECT_EQ(setup_tests[t], setup_tests[0]);
    EXPECT_EQ(update_tests[t], update_tests[0]);
    EXPECT_EQ(cold_tests[t], cold_tests[0]);
  }
  // The parallel engine ran: it skips SfsSubset's pivot re-tests. The
  // repair runs no engine over the full space, so it costs the same.
  EXPECT_LT(setup_tests[0], pinned_reference.Stats().cold_tests);
  EXPECT_EQ(update_tests[0], pinned_reference.Stats().update_tests);
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

  // Remove a member: the entry is repaired, not dropped.
  service.ApplyUpdate({}, std::vector<PointId>{sky.front()});

  // PeekExact serves the repaired entry with the epoch it is exact at,
  // when the caller opts into receiving it.
  std::vector<PointId> ids;
  std::uint64_t entry_epoch = 99;
  ASSERT_TRUE(service.PeekExact(v, &ids, &entry_epoch));
  EXPECT_EQ(entry_epoch, 1u);
  EXPECT_EQ(ids, OracleSkyline(*service.current_version(), v));
  EXPECT_TRUE(service.PeekExact(v, nullptr));

  // PeekStale reads the same entry as exact, at the same epoch.
  StaleAnswer answer;
  ASSERT_TRUE(service.PeekStale(v, &answer));
  EXPECT_TRUE(answer.exact);
  EXPECT_EQ(answer.ids, ids);
  EXPECT_EQ(answer.epoch, 1u);
  EXPECT_EQ(answer.tests, 0u);
}

TEST(QueryUpdateTest, PeekNearestAncestorPrefersFresherEpochs) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 3, 47);
  QueryServiceOptions options;
  options.pin_full_space = false;
  QueryService service(data, options);
  const Subspace target{0};
  const std::vector<PointId> full_sky = service.Query(Subspace::Full(3));

  // Remove a member of the full-space entry, then cache {0,1}: both
  // entries are at the new epoch, the first through its repair.
  service.ApplyUpdate({}, std::vector<PointId>{full_sky.front()});
  const std::vector<PointId> pair_sky = service.Query(Subspace{0, 1});
  ASSERT_LT(pair_sky.size(), full_sky.size());

  // The smaller ancestor ranks first.
  Subspace ancestor;
  std::vector<PointId> ids;
  ASSERT_TRUE(service.PeekNearestAncestor(target, &ancestor, &ids));
  EXPECT_EQ(ancestor, (Subspace{0, 1}));
  EXPECT_EQ(ids, pair_sky);

  // The degraded read picks the same ancestor: the answer is the core
  // over {0,1}'s skyline, at epoch 1.
  StaleAnswer answer;
  answer.epoch = 99;
  ASSERT_TRUE(service.PeekStale(target, &answer));
  EXPECT_FALSE(answer.exact);
  EXPECT_EQ(answer.epoch, 1u);
  std::vector<PointId> core =
      SubspaceSkylineOverCandidates(service.current_version()->data, target,
                                    pair_sky);
  std::sort(core.begin(), core.end());
  EXPECT_EQ(answer.ids, core);
}

TEST(QueryUpdateTest, RepairedEntrySeedsAMiss) {
  const Dataset data = Generate(DataType::kAntiCorrelated, 300, 3, 48);
  QueryServiceOptions options;
  options.pin_full_space = false;
  QueryService service(data, options);
  const std::vector<PointId> full_sky = service.Query(Subspace::Full(3));

  // Remove a member of the only cached cuboid, then query a subspace:
  // the repaired full space is current, so the miss seeds from it.
  service.ApplyUpdate({}, std::vector<PointId>{full_sky.front()});
  const std::uint64_t cold_before = service.Stats().cold;
  std::uint64_t epoch = 0;
  EXPECT_EQ(service.Query(Subspace{0, 1}, &epoch),
            OracleSkyline(*service.current_version(), Subspace{0, 1}));
  EXPECT_EQ(epoch, 1u);
  const QueryStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.cold, cold_before);
  EXPECT_EQ(stats.seeded, 1u);
  ExpectAllCuboidsMatchOracle(service);
}

// Queries every cuboid once, so each is cached.
void CacheEveryCuboid(QueryService& service) {
  const std::uint64_t full = Subspace::Full(service.num_dims()).bits();
  for (std::uint64_t bits = 1; bits <= full; ++bits) {
    service.Query(Subspace(bits));
  }
}

// Applies the batch to a service whose every cuboid is cached, then
// checks that the update repaired each cached entry and that every
// cuboid is then a hit equal to the brute-force oracle.
void ExpectUpdateRepairsEveryCuboid(QueryService& service,
                                    std::span<const Value> inserts,
                                    std::span<const PointId> removes) {
  const QueryStatsSnapshot before = service.Stats();
  const std::uint64_t epoch = service.ApplyUpdate(inserts, removes);
  const QueryStatsSnapshot after = service.Stats();
  EXPECT_EQ(after.repaired - before.repaired, before.cache_entries);
  EXPECT_EQ(after.cache_entries, before.cache_entries);
  EXPECT_EQ(after.invalidated, 0u);
  EXPECT_EQ(after.pinned_recomputes, 0u);
  ExpectAllCuboidsMatchOracle(service);
  const QueryStatsSnapshot queried = service.Stats();
  EXPECT_EQ(queried.hits - after.hits, before.cache_entries);
  EXPECT_EQ(queried.misses(), after.misses());
  EXPECT_EQ(queried.epoch, epoch);
}

// The id of the row with the smallest value in dimension `dim`.
PointId ArgMin(const Dataset& data, Dim dim) {
  PointId best = 0;
  for (PointId p = 1; p < data.num_points(); ++p) {
    if (data.row(p)[dim] < data.row(best)[dim]) best = p;
  }
  return best;
}

TEST(QueryUpdateTest, MemberRemovalRepairsEveryCachedCuboidFromThePin) {
  // The dimension-0 minimum is on the skyline of every cuboid holding
  // dimension 0: its removal hits eight cached answers, the pinned full
  // space among them, and the other seven draw their candidates from
  // the repaired pin.
  const Dataset data = Generate(DataType::kUniformIndependent, 300, 4, 60);
  QueryService service(data);
  CacheEveryCuboid(service);
  ASSERT_EQ(service.Stats().cache_entries, 15u);
  const PointId argmin = ArgMin(data, 0);
  ExpectUpdateRepairsEveryCuboid(service, {}, std::vector<PointId>{argmin});
}

TEST(QueryUpdateTest, MemberRemovalRepairsEveryCachedCuboidUnpinned) {
  // The same removal without a pinned answer: every repair scans every
  // live row for its candidates.
  const Dataset data = Generate(DataType::kUniformIndependent, 300, 4, 60);
  QueryServiceOptions options;
  options.pin_full_space = false;
  QueryService service(data, options);
  CacheEveryCuboid(service);
  ASSERT_EQ(service.Stats().cache_entries, 15u);
  const PointId argmin = ArgMin(data, 0);
  ExpectUpdateRepairsEveryCuboid(service, {}, std::vector<PointId>{argmin});
}

TEST(QueryUpdateTest, RemovingTheSoleMemberOfAOneDimensionalCuboid) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 3, 61);
  for (const bool pin : {true, false}) {
    QueryServiceOptions options;
    options.pin_full_space = pin;
    QueryService service(data, options);
    const PointId argmin = ArgMin(data, 2);
    ASSERT_EQ(service.Query(Subspace{2}), std::vector<PointId>{argmin});
    const std::uint64_t hits = service.Stats().hits;
    service.ApplyUpdate({}, std::vector<PointId>{argmin});
    const std::vector<PointId> after = service.Query(Subspace{2});
    EXPECT_EQ(after, OracleSkyline(*service.current_version(), Subspace{2}))
        << "pinned=" << pin;
    ASSERT_EQ(after.size(), 1u);
    EXPECT_NE(after.front(), argmin);
    EXPECT_EQ(service.Stats().hits, hits + 1) << "pinned=" << pin;
  }
}

TEST(QueryUpdateTest, RemovingOneOfTwoDuplicatesKeepsTheTwin) {
  // A full-space skyline member with an exact twin: removing it leaves
  // the twin on every answer it was on, and no row surfaces (the twin
  // dominates whatever the removed row did), so each answer only loses
  // the removed id.
  const Dataset base = Generate(DataType::kUniformIndependent, 200, 3, 62);
  const PointId original = ArgMin(base, 1);
  std::vector<Value> values = base.values();
  const Value* row = base.row(original);
  values.insert(values.end(), row, row + 3);
  const Dataset data(3, std::move(values));
  const PointId twin = static_cast<PointId>(base.num_points());
  QueryService service(data);
  CacheEveryCuboid(service);
  std::vector<std::vector<PointId>> before;
  for (std::uint64_t bits = 1; bits < 8; ++bits) {
    before.push_back(service.Query(Subspace(bits)));
  }
  ExpectUpdateRepairsEveryCuboid(service, {}, std::vector<PointId>{original});
  for (std::uint64_t bits = 1; bits < 8; ++bits) {
    std::vector<PointId> want = before[bits - 1];
    std::erase(want, original);
    const std::vector<PointId> got = service.Query(Subspace(bits));
    EXPECT_EQ(got, want) << "cuboid " << Subspace(bits).ToString();
    if (Subspace(bits).Contains(1)) {
      EXPECT_TRUE(std::binary_search(got.begin(), got.end(), twin));
    }
  }
}

TEST(QueryUpdateTest, BatchInsertsARowDominatedOnlyByARemovedMember) {
  // p is dominated by m alone. The insert rule keeps p out of every
  // answer that holds m; the remove rule, in the same batch, must then
  // surface it.
  const Dataset data(3, {0.1, 0.9, 0.9,    // a
                         0.9, 0.1, 0.9,    // b
                         0.9, 0.9, 0.1,    // c
                         0.3, 0.3, 0.3,    // m = id 3
                         0.5, 0.5, 0.5,    // dominated by m
                         0.6, 0.4, 0.7});  // dominated by m
  const std::vector<Value> p = {0.35, 0.35, 0.35};
  const PointId p_id = static_cast<PointId>(data.num_points());
  for (const bool pin : {true, false}) {
    QueryServiceOptions options;
    options.pin_full_space = pin;
    QueryService service(data, options);
    CacheEveryCuboid(service);
    ExpectUpdateRepairsEveryCuboid(service, p, std::vector<PointId>{3});
    const std::vector<PointId> full = service.Query(Subspace::Full(3));
    EXPECT_TRUE(std::binary_search(full.begin(), full.end(), p_id))
        << "pinned=" << pin;
  }
}

TEST(QueryUpdateTest, RepairFromThePinnedAnswerRunsTheTieRule) {
  // Dimension 0 repeats a value, so {0} holds no distinct dimension.
  // Removing m leaves y and x tied at the new minimum of dimension 0,
  // but only y is on the full-space skyline (it dominates x there): the
  // repair of {0} finds y among the pinned answer's rows, and only the
  // tie rule can add x.
  const Dataset data(2, {0.0, 5.0,    // m = id 0
                         1.0, 1.0,    // y = id 1
                         1.0, 2.0,    // x = id 2
                         2.0, 0.5});  // z = id 3
  QueryService service(data);
  ASSERT_FALSE(service.current_version()->distinct_dims().Contains(0));
  CacheEveryCuboid(service);
  ASSERT_EQ(service.Query(Subspace{0}), std::vector<PointId>{0});
  ExpectUpdateRepairsEveryCuboid(service, {}, std::vector<PointId>{0});
  EXPECT_EQ(service.Query(Subspace{0}), (std::vector<PointId>{1, 2}));
  EXPECT_EQ(service.Query(Subspace::Full(2)), (std::vector<PointId>{1, 3}));
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

// Unit tests of the QueryService cache machinery: hit/miss/seeded/cold
// accounting, LRU eviction bounds, full-space pinning, and result
// correctness against SubspaceSkyline on small inputs.
#include "src/query/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/verify.h"
#include "src/data/generator.h"
#include "src/skycube/skycube.h"

namespace skyline {
namespace {

TEST(QueryServiceTest, AnswersMatchSubspaceSkyline) {
  const Dataset data = Generate(DataType::kUniformIndependent, 400, 4, 21);
  QueryService service(data);
  for (std::uint64_t bits = 1; bits < 16; ++bits) {
    const Subspace v(bits);
    EXPECT_EQ(service.Query(v), SubspaceSkyline(data, v))
        << "cuboid " << v.ToString();
  }
}

TEST(QueryServiceTest, AnswersSortedAscending) {
  const Dataset data = Generate(DataType::kAntiCorrelated, 300, 4, 22);
  QueryService service(data);
  for (std::uint64_t bits = 1; bits < 16; ++bits) {
    const std::vector<PointId> ids = service.Query(Subspace(bits));
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  }
}

TEST(QueryServiceTest, RepeatQueriesHitTheCache) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 3, 23);
  QueryService service(data);
  const Subspace v{0, 2};
  const std::vector<PointId> first = service.Query(v);
  const std::vector<PointId> second = service.Query(v);
  EXPECT_EQ(first, second);

  const QueryStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses(), 1u);
  EXPECT_EQ(stats.latency.total, 2u);
}

TEST(QueryServiceTest, PinnedFullSpaceSeedsEveryFirstQuery) {
  const Dataset data = Generate(DataType::kUniformIndependent, 300, 4, 24);
  QueryService service(data);  // pin_full_space default: true
  for (std::uint64_t bits = 1; bits < 15; ++bits) {
    service.Query(Subspace(bits));
  }
  const QueryStatsSnapshot stats = service.Stats();
  // Every proper-subspace miss found the pinned full cube as ancestor.
  EXPECT_EQ(stats.cold, 0u);
  EXPECT_EQ(stats.seeded, 14u);
  EXPECT_GT(stats.cold_tests, 0u);  // construction compute
}

TEST(QueryServiceTest, UnpinnedFirstQueryIsCold) {
  const Dataset data = Generate(DataType::kUniformIndependent, 300, 4, 25);
  QueryServiceOptions options;
  options.pin_full_space = false;
  QueryService service(data, options);
  service.Query(Subspace{0, 1});
  QueryStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.cold, 1u);
  EXPECT_EQ(stats.seeded, 0u);

  // {0} ⊂ {0,1} is now cached: the second query seeds from it.
  service.Query(Subspace{0});
  stats = service.Stats();
  EXPECT_EQ(stats.cold, 1u);
  EXPECT_EQ(stats.seeded, 1u);
}

TEST(QueryServiceTest, AncestorTiesGoToTheLowerSubspaceBits) {
  // {0,1} (bits 3) and {0,2} (bits 5) both have a 4-id skyline: p0-p3
  // and p4-p7. Seeding {0} from them costs different dominance tests
  // (their dim-0 values run 1,1,2,2 and 2,2,1,1 in id order), so the
  // seeded charge shows which ancestor a Query miss used.
  const Dataset data = Dataset::FromRows({{1, 1, 9}, {1, 1, 9}, {2, 0, 9},
                                          {2, 0, 9}, {2, 5, 0}, {2, 5, 0},
                                          {1, 5, 1}, {1, 5, 1}});
  const Subspace low{0, 1};
  const Subspace high{0, 2};
  const Subspace v{0};
  const auto seed_tests = [&](Subspace u) {
    std::uint64_t tests = 0;
    SubspaceSkylineOverCandidates(data, v, SubspaceSkyline(data, u), &tests);
    return tests;
  };
  ASSERT_EQ(SubspaceSkyline(data, low).size(),
            SubspaceSkyline(data, high).size());
  ASSERT_NE(seed_tests(low), seed_tests(high));

  QueryServiceOptions options;
  options.pin_full_space = false;
  for (const auto& order : {std::pair{low, high}, std::pair{high, low}}) {
    QueryService service(data, options);
    service.Query(order.first);
    service.Query(order.second);
    Subspace ancestor;
    std::vector<PointId> ids;
    ASSERT_TRUE(service.PeekNearestAncestor(v, &ancestor, &ids));
    EXPECT_EQ(ancestor, low) << "cached " << order.first.ToString()
                             << " first";
    const QueryStatsSnapshot before = service.Stats();
    EXPECT_EQ(service.Query(v), SubspaceSkyline(data, v));
    const QueryStatsSnapshot after = service.Stats();
    EXPECT_EQ(after.seeded, before.seeded + 1);
    EXPECT_EQ(after.seeded_tests - before.seeded_tests, seed_tests(low))
        << "cached " << order.first.ToString() << " first";
  }
}

TEST(QueryServiceTest, SeededAnswersAgreeWithColdOnDuplicateHeavyData) {
  // Quantized values force duplicate projections — the tie-repair path.
  Dataset base = Generate(DataType::kUniformIndependent, 400, 4, 26);
  std::vector<Value> values = base.values();
  for (Value& v : values) v = std::floor(v * 4);
  const Dataset data(4, std::move(values));

  QueryService seeded(data);
  for (std::uint64_t bits = 1; bits < 16; ++bits) {
    const Subspace v(bits);
    EXPECT_EQ(seeded.Query(v), SubspaceSkyline(data, v))
        << "cuboid " << v.ToString();
  }
}

TEST(QueryServiceTest, SeededTieRepairTreatsNegativeZeroAsZero) {
  // Point 1 ties with point 0 on dimension 0 (-0.0 == 0.0) but is not
  // in the pinned full-space seed, so only the tie repair can add it.
  const Dataset data = Dataset::FromRows({{0.0, 1.0}, {-0.0, 2.0}});
  QueryService service(data);
  const Subspace v{0};
  EXPECT_EQ(service.Query(v), SubspaceSkyline(data, v));
  EXPECT_EQ(service.Stats().seeded, 1u);
  EXPECT_EQ(service.Stats().tie_scans, 1u);  // dimension 0 repeats a value
}

TEST(QueryServiceTest, BoostedSeededKernelMatchesBnlSeededKernel) {
  // threshold 0 forces every seeded miss onto the subset-boosted
  // engine over the projected candidate rows; the default (large
  // threshold here) keeps them all on the skycube BNL. Same answers,
  // on duplicate-heavy data so the tie repair runs in both.
  Dataset base = Generate(DataType::kAntiCorrelated, 500, 4, 32);
  std::vector<Value> values = base.values();
  for (Value& v : values) v = std::floor(v * 8);
  const Dataset data(4, std::move(values));

  QueryServiceOptions boosted_options;
  boosted_options.seeded_boost_threshold = 0;
  QueryService boosted(data, boosted_options);
  QueryServiceOptions bnl_options;
  bnl_options.seeded_boost_threshold = 100000;
  QueryService bnl(data, bnl_options);

  for (std::uint64_t bits = 1; bits < 16; ++bits) {
    const Subspace v(bits);
    const std::vector<PointId> expected = SubspaceSkyline(data, v);
    EXPECT_EQ(boosted.Query(v), expected) << "cuboid " << v.ToString();
    EXPECT_EQ(bnl.Query(v), expected) << "cuboid " << v.ToString();
  }
  // Both services actually took the seeded path (full space pinned).
  EXPECT_EQ(boosted.Stats().seeded, 14u);
  EXPECT_EQ(bnl.Stats().seeded, 14u);
}

TEST(QueryServiceTest, NeverBoostThresholdAnswersSeededMisses) {
  // SIZE_MAX keeps every seeded miss on the skycube BNL. The threshold
  // must not size the BNL's scratch: a throw there would leave the
  // claimed entry unpublished and block every later query of it.
  const Dataset data = Generate(DataType::kAntiCorrelated, 300, 3, 33);
  QueryServiceOptions options;
  options.seeded_boost_threshold = SIZE_MAX;
  QueryService service(data, options);
  const Subspace v{0, 2};
  const std::vector<PointId> expected = SubspaceSkyline(data, v);
  EXPECT_EQ(service.Query(v), expected);
  EXPECT_EQ(service.Query(v), expected);
  const QueryStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.seeded, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(QueryServiceTest, EvictionRespectsEntryBound) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 4, 27);
  QueryServiceOptions options;
  options.max_entries = 3;
  QueryService service(data, options);
  for (std::uint64_t bits = 1; bits < 16; ++bits) {
    service.Query(Subspace(bits));
  }
  const QueryStatsSnapshot stats = service.Stats();
  // 3 unpinned + 1 pinned full space.
  EXPECT_LE(stats.cache_entries, 4u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(QueryServiceTest, PinnedEntrySurvivesEvictionPressure) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 4, 29);
  QueryServiceOptions options;
  options.max_entries = 1;
  QueryService service(data, options);
  for (std::uint64_t bits = 1; bits < 16; ++bits) {
    service.Query(Subspace(bits));
  }
  // The full space is still served as a hit (pinned, never evicted).
  const std::uint64_t hits_before = service.Stats().hits;
  service.Query(Subspace::Full(4));
  EXPECT_EQ(service.Stats().hits, hits_before + 1);
}

TEST(QueryServiceTest, LruEvictsColdestCuboid) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 3, 30);
  QueryServiceOptions options;
  options.max_entries = 2;
  options.pin_full_space = false;
  QueryService service(data, options);
  service.Query(Subspace{0});      // A
  service.Query(Subspace{1});      // B
  service.Query(Subspace{0});      // touch A: B is now LRU
  service.Query(Subspace{0, 1});   // evicts B
  const std::uint64_t hits_before = service.Stats().hits;
  service.Query(Subspace{0});      // still cached
  EXPECT_EQ(service.Stats().hits, hits_before + 1);
  service.Query(Subspace{1});      // evicted: recomputed, not a hit
  EXPECT_EQ(service.Stats().hits, hits_before + 1);
}

TEST(QueryServiceTest, SingleDimensionQueryIsArgminSet) {
  const Dataset data = Dataset::FromRows({{3, 1}, {1, 2}, {1, 9}, {2, 0}});
  QueryService service(data);
  EXPECT_EQ(service.Query(Subspace{0}), (std::vector<PointId>{1, 2}));
  EXPECT_EQ(service.Query(Subspace{1}), (std::vector<PointId>{3}));
}

TEST(QueryServiceTest, StatsSnapshotIsConsistent) {
  const Dataset data = Generate(DataType::kCorrelated, 300, 4, 31);
  QueryService service(data);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t bits = 1; bits < 16; ++bits) {
      service.Query(Subspace(bits));
    }
  }
  const QueryStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.queries, 45u);
  EXPECT_EQ(stats.hits + stats.misses(), stats.queries);
  EXPECT_EQ(stats.latency.total, stats.queries);
  EXPECT_GT(stats.HitRate(), 0.5);
  EXPECT_EQ(stats.dominance_tests(), stats.seeded_tests + stats.cold_tests);
}

TEST(LatencyHistogramQueryTest, BucketsAndPercentiles) {
  LatencyHistogram hist;
  EXPECT_EQ(LatencyHistogram::BucketOf(0), 0);
  EXPECT_EQ(LatencyHistogram::BucketOf(1), 0);
  EXPECT_EQ(LatencyHistogram::BucketOf(2), 1);
  EXPECT_EQ(LatencyHistogram::BucketOf(1023), 9);
  EXPECT_EQ(LatencyHistogram::BucketOf(~std::uint64_t{0}),
            LatencyHistogram::kBuckets - 1);
  for (int i = 0; i < 90; ++i) hist.Record(100);    // bucket 6, <=127
  for (int i = 0; i < 10; ++i) hist.Record(100000);  // bucket 16
  const LatencyHistogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.total, 100u);
  EXPECT_LE(snap.PercentileNanos(50), 127u);
  EXPECT_GT(snap.PercentileNanos(99), 100000u / 2);
}

}  // namespace
}  // namespace skyline

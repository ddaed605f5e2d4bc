#include "src/parallel/parallel_subset.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/core/verify.h"
#include "src/data/generator.h"
#include "src/parallel/work_partitioner.h"
#include "src/subset/boosted.h"

namespace skyline {
namespace {

TEST(ParallelSubsetSfsTest, Name) {
  EXPECT_EQ(ParallelSubsetSfs().name(), "parallel-subset-sfs");
}

class ParallelSubsetThreadCountTest
    : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelSubsetThreadCountTest, CorrectForAnyThreadCount) {
  const unsigned threads = GetParam();
  for (DataType type : {DataType::kAntiCorrelated, DataType::kCorrelated,
                        DataType::kUniformIndependent}) {
    Dataset data = Generate(type, 900, 5, 17);
    ParallelSubsetSfs algo(threads);
    EXPECT_TRUE(IsSkylineOf(data, algo.Compute(data)))
        << ShortName(type) << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelSubsetThreadCountTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 7u, 16u));

// The parameter is the block-size override (the suite predates the
// block scan, when the same constructor argument set a partition count).
class ParallelSubsetPartitionCountTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelSubsetPartitionCountTest, CorrectForAnyPartitionCount) {
  const std::size_t block_size = GetParam();
  for (DataType type : {DataType::kAntiCorrelated, DataType::kCorrelated,
                        DataType::kUniformIndependent}) {
    Dataset data = Generate(type, 700, 6, 23);
    ParallelSubsetSfs algo(4, {}, block_size);
    EXPECT_TRUE(IsSkylineOf(data, algo.Compute(data)))
        << ShortName(type) << " block_size=" << block_size;
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, ParallelSubsetPartitionCountTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 32u, 64u));

TEST(ParallelSubsetSfsTest, MatchesSequentialSubsetSfs) {
  // Same Merge pass, same scan order, same accepted set: the very same
  // result vector, in one block or in many.
  for (DataType type : {DataType::kAntiCorrelated, DataType::kCorrelated,
                        DataType::kUniformIndependent}) {
    Dataset data = Generate(type, 1500, 7, 11);
    const std::vector<PointId> sequential = SfsSubset().Compute(data);
    for (std::size_t block_size : {std::size_t{0}, std::size_t{16}}) {
      EXPECT_EQ(ParallelSubsetSfs(4, {}, block_size).Compute(data), sequential)
          << ShortName(type) << " block_size=" << block_size;
    }
  }
}

TEST(ParallelSubsetSfsTest, DominanceTestsWithinBoundOfSfsSubset) {
  // ROADMAP item 2's gate: the block scan spends at most 1.2x the
  // sequential engine's dominance tests.
  for (DataType type : {DataType::kUniformIndependent, DataType::kCorrelated,
                        DataType::kAntiCorrelated}) {
    Dataset data = Generate(type, 4000, 8, 42);
    SkylineStats seq;
    SfsSubset().Compute(data, &seq);
    for (std::size_t block_size : {std::size_t{0}, std::size_t{64}}) {
      SkylineStats par;
      ParallelSubsetSfs(2, {}, block_size).Compute(data, &par);
      EXPECT_LE(static_cast<double>(par.dominance_tests),
                1.2 * static_cast<double>(seq.dominance_tests))
          << ShortName(type) << " block_size=" << block_size;
    }
  }
}

TEST(ParallelSubsetSfsTest, OneThreadTeamPerCompute) {
  // Thousands of survivors at block size 256 make dozens of parallel
  // steps, each with work for all 4 threads; the engine still starts
  // its threads once, not per step.
  Dataset data = Generate(DataType::kAntiCorrelated, 4000, 8, 42);
  SkylineStats stats;
  const std::uint64_t before = WorkerTeam::threads_started();
  ParallelSubsetSfs(4, {}, 256).Compute(data, &stats);
  EXPECT_GT(stats.index_queries, 10u * 256u);  // one probe per survivor
  EXPECT_EQ(WorkerTeam::threads_started() - before, 3u);
}

TEST(ParallelSubsetSfsTest, TinyInputs) {
  Dataset data = Dataset::FromRows({{1, 2}, {2, 1}, {3, 3}});
  ParallelSubsetSfs algo(64, {}, 8);  // more threads and block than points
  EXPECT_TRUE(SameIdSet(algo.Compute(data), {0, 1}));
  Dataset empty(2);
  EXPECT_TRUE(algo.Compute(empty).empty());
  Dataset single = Dataset::FromRows({{0.5, 0.5}});
  EXPECT_TRUE(SameIdSet(algo.Compute(single), {0}));
}

TEST(ParallelSubsetSfsTest, DuplicatesAcrossPartitions) {
  // Duplicate skyline points land in the same and in different blocks
  // and must all survive both probes (an equal point never dominates).
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({1.0, 5.0});  // duplicates of one skyline point
    rows.push_back({5.0, 1.0});  // duplicates of another
    rows.push_back({6.0, 6.0});  // dominated
  }
  Dataset data = Dataset::FromRows(rows);
  ParallelSubsetSfs algo(4, {}, 6);
  auto result = algo.Compute(data);
  EXPECT_TRUE(IsSkylineOf(data, result));
  EXPECT_EQ(result.size(), 80u);
}

TEST(ParallelSubsetSfsTest, StatsAreFilled) {
  Dataset data = Generate(DataType::kUniformIndependent, 1500, 5, 2);
  SkylineStats stats;
  auto result = ParallelSubsetSfs(2).Compute(data, &stats);
  EXPECT_EQ(stats.skyline_size, result.size());
  EXPECT_GT(stats.dominance_tests, 0u);
  EXPECT_GT(stats.index_queries, 0u);
  EXPECT_GT(stats.pivot_count, 0u);
}

TEST(ParallelSubsetSfsTest, SinglePartitionDoesFewerTestsThanSfsSubset) {
  // With blocks of one point the scan is SfsSubset's, test for test,
  // except that the engine skips the pivot re-tests: never more
  // dominance tests than the sequential SfsSubset.
  Dataset data = Generate(DataType::kUniformIndependent, 2000, 8, 5);
  SkylineStats par, seq;
  ParallelSubsetSfs(1, {}, 1).Compute(data, &par);
  SfsSubset().Compute(data, &seq);
  EXPECT_LE(par.dominance_tests, seq.dominance_tests);
}

TEST(ParallelSubsetSfsTest, NegativeValues) {
  Dataset base = Generate(DataType::kUniformIndependent, 600, 4, 21);
  std::vector<Value> values = base.values();
  for (Value& v : values) v -= Value{0.6};
  Dataset data(4, std::move(values));
  EXPECT_TRUE(IsSkylineOf(data, ParallelSubsetSfs(3).Compute(data)));
}

TEST(ParallelSubsetSfsTest, QuantizedHeavyDuplicates) {
  Dataset base = Generate(DataType::kUniformIndependent, 1000, 4, 9);
  std::vector<Value> values = base.values();
  for (Value& v : values) v = std::floor(v * 3);
  Dataset data(4, std::move(values));
  EXPECT_TRUE(IsSkylineOf(data, ParallelSubsetSfs(5).Compute(data)));
}

}  // namespace
}  // namespace skyline

// Determinism layer for the parallel engines: the skyline AND every
// SkylineStats counter must be identical for any thread count and
// across repeated runs — the work decomposition is a function of the
// input only, threads only execute it (see work_partitioner.h).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/data/generator.h"
#include "src/parallel/parallel_skyline.h"
#include "src/parallel/parallel_subset.h"

namespace skyline {
namespace {

void ExpectSameStats(const SkylineStats& a, const SkylineStats& b,
                     const std::string& context) {
  EXPECT_EQ(a.dominance_tests, b.dominance_tests) << context;
  EXPECT_EQ(a.index_queries, b.index_queries) << context;
  EXPECT_EQ(a.index_nodes_visited, b.index_nodes_visited) << context;
  EXPECT_EQ(a.index_candidates, b.index_candidates) << context;
  EXPECT_EQ(a.pivot_count, b.pivot_count) << context;
  EXPECT_EQ(a.merge_pruned, b.merge_pruned) << context;
  EXPECT_EQ(a.tests_skipped, b.tests_skipped) << context;
  EXPECT_EQ(a.skyline_size, b.skyline_size) << context;
}

class ParallelDeterminismTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelDeterminismTest, IdenticalAcrossThreadCountsAndRuns) {
  const std::string& name = GetParam();
  // parallel-subset-sfs also runs with 64-point blocks, so that its scan
  // spans many blocks (one default-size block holds all survivors here).
  const std::vector<std::size_t> block_sizes =
      name == "parallel-sfs" ? std::vector<std::size_t>{0}
                             : std::vector<std::size_t>{0, 64};
  for (DataType type : {DataType::kAntiCorrelated, DataType::kCorrelated,
                        DataType::kUniformIndependent}) {
    Dataset data = Generate(type, 2000, 6, 4);
    for (std::size_t block_size : block_sizes) {
      auto run = [&](unsigned threads, SkylineStats* stats) {
        if (name == "parallel-sfs") {
          return ParallelSfs(threads).Compute(data, stats);
        }
        return ParallelSubsetSfs(threads, {}, block_size).Compute(data, stats);
      };

      // Reference: a run at the default (hardware) thread count.
      SkylineStats reference_stats;
      const std::vector<PointId> reference = run(0, &reference_stats);
      if (block_size != 0 && type != DataType::kCorrelated) {
        // One index probe per Merge survivor: many blocks' worth.
        EXPECT_GT(reference_stats.index_queries, 4 * block_size);
      }

      for (unsigned threads : {1u, 2u, 8u}) {
        for (int run_index = 0; run_index < 3; ++run_index) {
          const std::string context =
              name + " " + std::string(ShortName(type)) +
              " block_size=" + std::to_string(block_size) +
              " threads=" + std::to_string(threads) +
              " run=" + std::to_string(run_index);
          SkylineStats stats;
          const std::vector<PointId> result = run(threads, &stats);
          // Not just the same id set: the exact same vector — the work
          // decomposition fully determines the output order.
          EXPECT_EQ(result, reference) << context;
          ExpectSameStats(stats, reference_stats, context);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, ParallelDeterminismTest,
                         ::testing::Values("parallel-sfs",
                                           "parallel-subset-sfs"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string n = i.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace skyline

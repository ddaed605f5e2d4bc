// Differential load test: N threads fire random subspace-query streams
// at one QueryService and every response is compared against a fresh
// SubspaceSkyline oracle. Runs in several cache regimes — roomy, tiny
// (eviction on almost every miss), unpinned, boosted seeds, duplicate
// rows — and once with all threads replaying the SAME stream
// (single-flight coalescing storm).
// The suite is in the `query` ctest label, which the sanitizer presets
// run in full: TSan over these threads is the data-race gate of the
// serving layer.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "src/core/verify.h"
#include "src/data/generator.h"
#include "src/query/query_service.h"
#include "src/skycube/skycube.h"

namespace skyline {
namespace {

/// All cuboid oracles of `data`, precomputed single-threaded so worker
/// threads only read.
std::map<std::uint64_t, std::vector<PointId>> AllOracles(const Dataset& data) {
  std::map<std::uint64_t, std::vector<PointId>> oracles;
  for (std::uint64_t bits = 1;
       bits < (std::uint64_t{1} << data.num_dims()); ++bits) {
    oracles[bits] = SubspaceSkyline(data, Subspace(bits));
  }
  return oracles;
}

struct LoadConfig {
  const char* label;
  QueryServiceOptions options;
  unsigned threads;
  int queries_per_thread;
  bool same_stream;  // all threads replay one stream → coalescing storm
};

/// Runs the load, checks every answer and the counter identities, and
/// returns the final counters.
QueryStatsSnapshot RunLoad(const Dataset& data, const LoadConfig& config) {
  const auto oracles = AllOracles(data);
  QueryService service(data, config.options);
  const std::uint64_t num_masks = std::uint64_t{1} << data.num_dims();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(config.threads);
  for (unsigned t = 0; t < config.threads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(config.same_stream ? 7u : 1000u + t);
      for (int q = 0; q < config.queries_per_thread; ++q) {
        const std::uint64_t bits = 1 + rng() % (num_masks - 1);
        const std::vector<PointId> got = service.Query(Subspace(bits));
        if (got != oracles.at(bits)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(mismatches.load(), 0) << config.label;
  const QueryStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.queries,
            static_cast<std::uint64_t>(config.threads) *
                config.queries_per_thread)
      << config.label;
  EXPECT_EQ(stats.hits + stats.misses(), stats.queries) << config.label;
  EXPECT_EQ(stats.latency.total, stats.queries) << config.label;
  EXPECT_LE(stats.tie_scans, stats.seeded) << config.label;
  return stats;
}

TEST(QueryServiceDifferentialTest, RoomyCacheRandomStreams) {
  const Dataset data = Generate(DataType::kUniformIndependent, 400, 4, 41);
  LoadConfig config{"roomy", {}, 4, 150, false};
  const QueryStatsSnapshot stats = RunLoad(data, config);
  // UI values never repeat, so no seeded miss scans for ties.
  EXPECT_GT(stats.seeded, 0u);
  EXPECT_EQ(stats.tie_scans, 0u);
}

TEST(QueryServiceDifferentialTest, TinyCacheEvictionHeavy) {
  const Dataset data = Generate(DataType::kUniformIndependent, 300, 4, 42);
  LoadConfig config{"tiny", {}, 4, 150, false};
  config.options.max_entries = 2;  // eviction on almost every miss
  RunLoad(data, config);
}

TEST(QueryServiceDifferentialTest, TinyCacheUnpinnedColdPath) {
  const Dataset data = Generate(DataType::kAntiCorrelated, 250, 4, 43);
  LoadConfig config{"tiny-unpinned", {}, 4, 100, false};
  config.options.max_entries = 1;
  config.options.pin_full_space = false;
  RunLoad(data, config);
}

TEST(QueryServiceDifferentialTest, BoostedSeededKernelUnderLoad) {
  const Dataset data = Generate(DataType::kAntiCorrelated, 300, 4, 47);
  LoadConfig config{"boosted-seeded", {}, 4, 120, false};
  config.options.seeded_boost_threshold = 0;  // boosted kernel everywhere
  config.options.max_entries = 2;
  RunLoad(data, config);
}

TEST(QueryServiceDifferentialTest, IdenticalStreamsCoalesce) {
  const Dataset data = Generate(DataType::kUniformIndependent, 400, 4, 45);
  LoadConfig config{"coalescing", {}, 8, 80, true};
  RunLoad(data, config);
}

TEST(QueryServiceDifferentialTest, DuplicateHeavyDataUnderLoad) {
  Dataset base = Generate(DataType::kUniformIndependent, 300, 4, 46);
  std::vector<Value> values = base.values();
  for (Value& v : values) v = std::floor(v * 4);
  const Dataset data(4, std::move(values));
  LoadConfig config{"duplicates", {}, 4, 120, false};
  config.options.max_entries = 3;
  const QueryStatsSnapshot stats = RunLoad(data, config);
  // Every dimension repeats values: every seeded miss runs the scan.
  EXPECT_GT(stats.seeded, 0u);
  EXPECT_EQ(stats.tie_scans, stats.seeded);
}

}  // namespace
}  // namespace skyline

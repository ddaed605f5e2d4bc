// Every input of the shared catalog (tests/support/input_catalog.h)
// through six QueryService paths that serve in production:
//   * SeededBnl: pinned full space; every seeded miss runs the skycube
//     BNL over its ancestor's ids, plus the tie repair when needed;
//   * SeededBoosted: the same, with every seed on SfsSubset over the
//     projected candidate rows;
//   * UnpinnedCold: no pinned seed, cuboids queried smallest first, so
//     every miss runs SfsSubset over a gathered projection;
//   * ParallelCold: the same on the block-parallel engine;
//   * InsertRepair: half the rows at construction, the rest inserted
//     after every cuboid is cached, so the insert rule repairs each
//     entry;
//   * Tombstoned: a third of the rows and a full-space skyline member
//     removed, so the pinned entry recomputes over a tombstoned version
//     and stale cuboids recompute from it with the live-rows tie repair.
// Each answer is checked against a brute-force oracle over the live rows
// of the service's current version, and each path proves through
// Stats() that it ran.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "src/query/query_service.h"
#include "tests/support/input_catalog.h"

namespace skyline {
namespace {

/// Dimensions up to which every cuboid is checked.
constexpr Dim kAllCuboidsMaxDims = 5;
/// Random cuboids checked above kAllCuboidsMaxDims, besides the full
/// space and each single dimension.
constexpr std::size_t kRandomCuboids = 24;

/// sky(v) over the live rows of `version`, every live row tested against
/// every other one. Ids ascending.
std::vector<PointId> BruteForceSkyline(const DatasetVersion& version,
                                       Subspace v) {
  const Dataset& data = version.data;
  std::vector<Dim> dims;
  v.ForEachDim([&](Dim i) { dims.push_back(i); });
  const auto dominates = [&](const Value* q, const Value* p) {
    bool strict = false;
    for (Dim i : dims) {
      if (q[i] > p[i]) return false;
      if (q[i] < p[i]) strict = true;
    }
    return strict;
  };
  std::vector<PointId> sky;
  for (PointId p = 0; p < data.num_points(); ++p) {
    if (!version.IsLive(p)) continue;
    bool dominated = false;
    for (PointId q = 0; q < data.num_points() && !dominated; ++q) {
      dominated = q != p && version.IsLive(q) &&
                  dominates(data.row(q), data.row(p));
    }
    if (!dominated) sky.push_back(p);
  }
  return sky;
}

/// The cuboids checked on a d-dimensional input, fewest dimensions
/// first (then by bits): every one for d <= kAllCuboidsMaxDims;
/// otherwise the full space, each single dimension and kRandomCuboids
/// distinct others drawn with a fixed seed.
std::vector<Subspace> CheckedCuboids(Dim d) {
  std::vector<std::uint64_t> bits;
  const std::uint64_t full = Subspace::Full(d).bits();
  if (d <= kAllCuboidsMaxDims) {
    for (std::uint64_t b = 1; b <= full; ++b) bits.push_back(b);
  } else {
    bits.push_back(full);
    for (Dim i = 0; i < d; ++i) bits.push_back(std::uint64_t{1} << i);
    std::mt19937_64 rng(d);
    std::uniform_int_distribution<std::uint64_t> draw(1, full);
    for (std::size_t added = 0; added < kRandomCuboids;) {
      const std::uint64_t b = draw(rng);
      if (std::find(bits.begin(), bits.end(), b) != bits.end()) continue;
      bits.push_back(b);
      ++added;
    }
  }
  std::sort(bits.begin(), bits.end(), [](std::uint64_t a, std::uint64_t b) {
    const int pa = std::popcount(a);
    const int pb = std::popcount(b);
    return pa != pb ? pa < pb : a < b;
  });
  std::vector<Subspace> cuboids;
  for (std::uint64_t b : bits) cuboids.emplace_back(b);
  return cuboids;
}

class ServingPathTest : public ::testing::TestWithParam<CatalogInput> {
 protected:
  void SetUp() override {
    data_ = GetParam().make();
    cuboids_ = CheckedCuboids(data_.num_dims());
  }

  /// Queries every checked cuboid, most dimensions first when
  /// `top_down` (so seeds come from every level of the lattice, not only
  /// the full space), and compares each answer and its epoch with the
  /// current version.
  void ExpectAnswersMatchOracle(QueryService& service, bool top_down) {
    const DatasetVersionPtr version = service.current_version();
    std::vector<Subspace> order = cuboids_;
    if (top_down) std::reverse(order.begin(), order.end());
    for (Subspace v : order) {
      std::uint64_t epoch = ~std::uint64_t{0};
      EXPECT_EQ(service.Query(v, &epoch), BruteForceSkyline(*version, v))
          << "cuboid " << v.ToString();
      EXPECT_EQ(epoch, version->epoch) << "cuboid " << v.ToString();
    }
  }

  void RunSeeded(std::size_t seeded_boost_threshold) {
    QueryServiceOptions options;
    options.seeded_boost_threshold = seeded_boost_threshold;
    QueryService service(data_, options);
    ExpectAnswersMatchOracle(service, /*top_down=*/true);
    const QueryStatsSnapshot stats = service.Stats();
    EXPECT_EQ(stats.cold, 0u);
    if (data_.num_dims() >= 2) {
      EXPECT_GT(stats.seeded, 0u);
    }
  }

  void RunCold(QueryServiceOptions options) {
    options.pin_full_space = false;
    QueryService service(data_, options);
    // Smallest cuboids first: a cached cuboid is never a proper superset
    // of a later one, so no miss finds a seed.
    ExpectAnswersMatchOracle(service, /*top_down=*/false);
    const QueryStatsSnapshot stats = service.Stats();
    EXPECT_EQ(stats.seeded, 0u);
    EXPECT_EQ(stats.cold, cuboids_.size());
  }

  Dataset data_{1};
  std::vector<Subspace> cuboids_;
};

TEST_P(ServingPathTest, SeededBnl) {
  RunSeeded(/*seeded_boost_threshold=*/SIZE_MAX);
}

TEST_P(ServingPathTest, SeededBoosted) {
  RunSeeded(/*seeded_boost_threshold=*/0);
}

TEST_P(ServingPathTest, UnpinnedCold) { RunCold(QueryServiceOptions{}); }

TEST_P(ServingPathTest, ParallelCold) {
  QueryServiceOptions options;
  options.parallel_cold_threshold = 1;
  options.threads = 2;
  RunCold(options);
}

TEST_P(ServingPathTest, InsertRepair) {
  const Dim d = data_.num_dims();
  const std::size_t n = data_.num_points();
  const std::size_t half = n / 2;
  const std::span<const Value> values(data_.values());
  QueryService service(Dataset(
      d, std::vector<Value>(values.begin(), values.begin() + half * d)));
  ExpectAnswersMatchOracle(service, /*top_down=*/true);
  service.ApplyUpdate(values.subspan(half * d), {});
  const QueryStatsSnapshot before = service.Stats();
  ExpectAnswersMatchOracle(service, /*top_down=*/true);
  const QueryStatsSnapshot after = service.Stats();
  // Every answer after the insert came from a repaired entry.
  EXPECT_EQ(after.hits - before.hits, cuboids_.size());
  EXPECT_EQ(after.invalidated, 0u);
  if (n >= 1) {
    EXPECT_GT(after.repaired, 0u);
  }
}

TEST_P(ServingPathTest, Tombstoned) {
  QueryService service(data_);
  ExpectAnswersMatchOracle(service, /*top_down=*/true);
  std::vector<PointId> removes;
  for (PointId p = 1; p < data_.num_points(); p += 3) removes.push_back(p);
  std::vector<PointId> full_sky;
  ASSERT_TRUE(
      service.PeekExact(Subspace::Full(data_.num_dims()), &full_sky));
  const bool removes_member = !full_sky.empty();
  if (removes_member) removes.push_back(full_sky.front());
  std::sort(removes.begin(), removes.end());
  removes.erase(std::unique(removes.begin(), removes.end()), removes.end());
  service.ApplyUpdate({}, removes);
  ExpectAnswersMatchOracle(service, /*top_down=*/true);
  if (removes_member) {
    EXPECT_GE(service.Stats().pinned_recomputes, 1u);
  }
}

std::string InputName(const ::testing::TestParamInfo<CatalogInput>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Catalog, ServingPathTest,
                         ::testing::ValuesIn(FullCatalog()), InputName);

}  // namespace
}  // namespace skyline

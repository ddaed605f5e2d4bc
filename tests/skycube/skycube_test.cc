#include "src/skycube/skycube.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "src/core/dominance.h"
#include "src/core/verify.h"
#include "src/data/generator.h"

namespace skyline {
namespace {

TEST(SubspaceDominanceTest, RestrictedToMemberDimensions) {
  const Value a[] = {1, 9, 2};
  const Value b[] = {2, 1, 3};
  EXPECT_TRUE(DominatesInSubspace(a, b, Subspace{0, 2}));
  EXPECT_FALSE(DominatesInSubspace(a, b, Subspace{0, 1}));
  EXPECT_FALSE(DominatesInSubspace(a, b, Subspace{1}));
  EXPECT_TRUE(DominatesInSubspace(b, a, Subspace{1}));
}

TEST(SubspaceDominanceTest, EqualProjectionNeverDominates) {
  const Value a[] = {1, 5};
  const Value b[] = {1, 7};
  EXPECT_FALSE(DominatesInSubspace(a, b, Subspace{0}));
  EXPECT_TRUE(EqualInSubspace(a, b, Subspace{0}));
  EXPECT_FALSE(EqualInSubspace(a, b, Subspace{0, 1}));
}

TEST(SubspaceSkylineTest, FullSpaceEqualsSkyline) {
  Dataset data = Generate(DataType::kUniformIndependent, 500, 4, 3);
  EXPECT_TRUE(SameIdSet(SubspaceSkyline(data, Subspace::Full(4)),
                        ReferenceSkyline(data)));
}

TEST(SubspaceSkylineTest, SingleDimensionIsAllMinima) {
  Dataset data = Dataset::FromRows({{3, 1}, {1, 2}, {1, 9}, {2, 0}});
  // Dimension 0: minimum value 1 is attained by points 1 and 2.
  EXPECT_TRUE(SameIdSet(SubspaceSkyline(data, Subspace{0}), {1, 2}));
  EXPECT_TRUE(SameIdSet(SubspaceSkyline(data, Subspace{1}), {3}));
}

/// Brute-force oracle for a subspace skyline.
std::vector<PointId> ReferenceSubspaceSkyline(const Dataset& data,
                                              Subspace subspace) {
  std::vector<PointId> out;
  for (PointId p = 0; p < data.num_points(); ++p) {
    bool dominated = false;
    for (PointId q = 0; q < data.num_points() && !dominated; ++q) {
      if (q != p &&
          DominatesInSubspace(data.row(q), data.row(p), subspace)) {
        dominated = true;
      }
    }
    if (!dominated) out.push_back(p);
  }
  return out;
}

struct SkycubeCase {
  DataType type;
  unsigned dims;
  std::size_t points;
  std::uint64_t seed;
};

class SkycubeStrategyTest : public ::testing::TestWithParam<SkycubeCase> {};

TEST_P(SkycubeStrategyTest, NaiveAndTopDownAgreeWithOracle) {
  const auto& c = GetParam();
  Dataset data = Generate(c.type, c.points, c.dims, c.seed);
  Skycube naive = Skycube::Compute(data, SkycubeStrategy::kNaive);
  Skycube shared = Skycube::Compute(data, SkycubeStrategy::kTopDown);
  ASSERT_EQ(naive.num_cuboids(), (std::size_t{1} << c.dims) - 1);
  for (std::uint64_t bits = 1; bits < (std::uint64_t{1} << c.dims); ++bits) {
    const Subspace v(bits);
    const auto oracle = ReferenceSubspaceSkyline(data, v);
    ASSERT_TRUE(SameIdSet(naive.skyline(v), oracle))
        << "naive cuboid " << v.ToString();
    ASSERT_TRUE(SameIdSet(shared.skyline(v), oracle))
        << "top-down cuboid " << v.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SkycubeStrategyTest,
    ::testing::Values(
        SkycubeCase{DataType::kUniformIndependent, 2, 300, 1},
        SkycubeCase{DataType::kUniformIndependent, 4, 300, 2},
        SkycubeCase{DataType::kUniformIndependent, 5, 200, 3},
        SkycubeCase{DataType::kAntiCorrelated, 4, 300, 4},
        SkycubeCase{DataType::kCorrelated, 4, 300, 5}));

TEST(SkycubeTest, DuplicateProjectionRepair) {
  // The classic counterexample to naive parent-sharing: point 1 is NOT
  // in the full-space skyline (dominated by point 0 via dimension 1),
  // but ties with point 0 on dimension 0 — so it IS in the {0}-cuboid.
  Dataset data = Dataset::FromRows({
      {1.0, 1.0},  // 0: skyline everywhere
      {1.0, 2.0},  // 1: dominated in full space, ties on dim 0
      {2.0, 3.0},  // 2: dominated everywhere
  });
  Skycube cube = Skycube::Compute(data, SkycubeStrategy::kTopDown);
  EXPECT_TRUE(SameIdSet(cube.skyline(Subspace::Full(2)), {0}));
  EXPECT_TRUE(SameIdSet(cube.skyline(Subspace{0}), {0, 1}));
  EXPECT_TRUE(SameIdSet(cube.skyline(Subspace{1}), {0}));
}

TEST(SkycubeTest, TieRepairTreatsNegativeZeroAsZero) {
  // -0.0 == 0.0, so point 1 ties with point 0 on dimension 0 and is in
  // the {0}-cuboid although point 0 dominates it in full space.
  Dataset data = Dataset::FromRows({{0.0, 1.0}, {-0.0, 2.0}});
  ASSERT_TRUE(SameIdSet(SubspaceSkyline(data, Subspace{0}), {0, 1}));
  Skycube cube = Skycube::Compute(data, SkycubeStrategy::kTopDown);
  EXPECT_TRUE(SameIdSet(cube.skyline(Subspace::Full(2)), {0}));
  EXPECT_TRUE(SameIdSet(cube.skyline(Subspace{0}), {0, 1}));
}

TEST(SkycubeTest, QuantizedDuplicateHeavyDataAgrees) {
  Dataset base = Generate(DataType::kUniformIndependent, 400, 4, 9);
  std::vector<Value> values = base.values();
  for (Value& v : values) v = std::floor(v * 4);
  Dataset data(4, std::move(values));
  Skycube naive = Skycube::Compute(data, SkycubeStrategy::kNaive);
  Skycube shared = Skycube::Compute(data, SkycubeStrategy::kTopDown);
  for (std::uint64_t bits = 1; bits < 16; ++bits) {
    ASSERT_TRUE(SameIdSet(naive.skyline(Subspace(bits)),
                          shared.skyline(Subspace(bits))))
        << Subspace(bits).ToString();
  }
}

TEST(SkycubeTest, MixedDistinctAndTiedDimensionsAgree) {
  // Dimension 0 keeps distinct values, dimensions 1 and 2 are quantized:
  // cuboids containing dimension 0 skip the tie scan, {1}, {2} and
  // {1,2} run it.
  Dataset base = Generate(DataType::kAntiCorrelated, 300, 3, 11);
  std::vector<Value> values = base.values();
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (k % 3 != 0) values[k] = std::floor(values[k] * 4);
  }
  Dataset data(3, std::move(values));
  ASSERT_EQ(DistinctDims(data, Subspace::Full(3), 0), Subspace{0});
  Skycube shared = Skycube::Compute(data, SkycubeStrategy::kTopDown);
  for (std::uint64_t bits = 1; bits < 8; ++bits) {
    const Subspace v(bits);
    EXPECT_EQ(shared.skyline(v), ReferenceSubspaceSkyline(data, v))
        << v.ToString();
  }
}

TEST(SkycubeTest, TopDownSpendsFewerTests) {
  Dataset data = Generate(DataType::kCorrelated, 2000, 6, 7);
  std::uint64_t naive_tests = 0, shared_tests = 0;
  Skycube::Compute(data, SkycubeStrategy::kNaive, &naive_tests);
  Skycube::Compute(data, SkycubeStrategy::kTopDown, &shared_tests);
  EXPECT_LT(shared_tests, naive_tests);
}

TEST(SkycubeTest, TotalSizeSumsCuboids) {
  Dataset data = Dataset::FromRows({{1, 2}, {2, 1}});
  Skycube cube = Skycube::Compute(data);
  // Cuboids: {0} -> {0}; {1} -> {1}; {0,1} -> {0,1}.
  EXPECT_EQ(cube.num_cuboids(), 3u);
  EXPECT_EQ(cube.total_size(), 4u);
}

TEST(DistinctDimsTest, UniformDataIsDistinctInEveryDimension) {
  const Dataset data = Generate(DataType::kUniformIndependent, 2000, 6, 21);
  EXPECT_EQ(DistinctDims(data, Subspace::Full(6), 0), Subspace::Full(6));
}

TEST(DistinctDimsTest, OneRepeatedValueRemovesOnlyItsDimension) {
  Dataset data = Generate(DataType::kUniformIndependent, 500, 4, 22);
  std::vector<Value> values = data.values();
  values[300 * 4 + 2] = values[17 * 4 + 2];  // rows 17 and 300 share dim 2
  data = Dataset(4, std::move(values));
  EXPECT_EQ(DistinctDims(data, Subspace::Full(4), 0), (Subspace{0, 1, 3}));
  // Only the dimensions asked about are checked.
  EXPECT_EQ(DistinctDims(data, Subspace{1, 2}, 0), Subspace{1});
}

TEST(DistinctDimsTest, NegativeZeroEqualsZero) {
  const Dataset data = Dataset::FromRows({{0.0, 1.0}, {-0.0, 2.0}});
  EXPECT_EQ(DistinctDims(data, Subspace::Full(2), 0), Subspace{1});
  // The same pair across the incremental boundary, by both the direct
  // compare and the hashed path (20 rows, all distinct in dimension 1).
  std::vector<std::vector<Value>> rows;
  rows.push_back({-0.0, 0.5});
  for (int i = 1; i < 20; ++i) rows.push_back({Value(i), Value(i) + 0.5});
  rows.push_back({0.0, 100.5});
  const Dataset few = Dataset::FromRows(rows);
  EXPECT_EQ(DistinctDims(few, Subspace::Full(2), 20), Subspace{1});
  EXPECT_EQ(DistinctDims(few, Subspace::Full(2), 1), Subspace{1});
}

TEST(DistinctDimsTest, NanEmptiesTheMask) {
  const Value nan = std::numeric_limits<Value>::quiet_NaN();
  // Dimension 0 is distinct, but the tie scan would drop a core member
  // whose row holds a NaN anywhere in V.
  EXPECT_EQ(DistinctDims(Dataset::FromRows({{1.0, nan}, {2.0, 3.0}}),
                         Subspace::Full(2), 0),
            Subspace());
  const Dataset late_nan =
      Dataset::FromRows({{1.0, 4.0}, {2.0, 3.0}, {3.0, nan}});
  EXPECT_EQ(DistinctDims(late_nan, Subspace::Full(2), 2), Subspace());
  // A NaN in every row of a larger input, on the hashed path.
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 40; ++i) rows.push_back({Value(i), nan});
  EXPECT_EQ(DistinctDims(Dataset::FromRows(rows), Subspace::Full(2), 0),
            Subspace());
}

TEST(DistinctDimsTest, IncrementalEqualsFromScratch) {
  // Small-integer values over ranges that make some dimensions repeat
  // and others stay distinct; zeros get a random sign. Split points
  // cover both the direct compare (few new rows) and the hashed path.
  std::mt19937_64 rng(23);
  const std::uint64_t ranges[] = {8, 400, 100000, 1000000000};
  for (int trial = 0; trial < 300; ++trial) {
    const Dim d = 4;
    const std::size_t n = 1 + rng() % 60;
    std::vector<Value> values;
    for (std::size_t p = 0; p < n; ++p) {
      for (Dim i = 0; i < d; ++i) {
        const std::uint64_t range = ranges[(i + trial) % 4];
        const Value x = static_cast<Value>(rng() % range);
        values.push_back(x == 0 && rng() % 2 == 0 ? -0.0 : x);
      }
    }
    const Dataset data(d, values);
    const std::size_t split = rng() % (n + 1);
    const Dataset prefix(
        d, std::vector<Value>(values.begin(), values.begin() + split * d));
    const Subspace old_mask = DistinctDims(prefix, Subspace::Full(d), 0);
    EXPECT_EQ(DistinctDims(data, old_mask, static_cast<PointId>(split)),
              DistinctDims(data, Subspace::Full(d), 0))
        << "trial " << trial << ", n " << n << ", split " << split;
  }
}

}  // namespace
}  // namespace skyline

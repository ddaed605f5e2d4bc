// Exact score ties between a row and its dominator. A row one ULP worse
// than its dominator in a single coordinate can round to the same
// squared distance, or the same coordinate sum. Merge's pivot pick, the
// survivor sort and every presorting engine then order the pair by the
// lexicographically smaller row, then the smaller id (TieBreaksBefore):
// the dominator comes first even when the dominated row has the lower
// id, so it is never returned.
#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/algo/registry.h"
#include "src/core/dataset.h"
#include "src/core/dominance.h"
#include "src/core/scores.h"
#include "src/core/subspace.h"
#include "src/core/verify.h"
#include "src/extras/skyband.h"
#include "src/query/query_service.h"
#include "src/subset/merge.h"

namespace skyline {
namespace {

constexpr Dim kDims = 8;

/// Row 1 is `dominator`, by default (0.31, 0.72, 0.18, 0.55, 0.93,
/// 0.07, 0.46, 0.64). Row 0 is row 1 with coordinate `bumped` one ULP
/// larger, so row 1 dominates row 0. Rows 2..9 hold 0 in dimension
/// k = row - 2 and 1 elsewhere: incomparable with the pair and with each
/// other, and they pin every dimension's minimum, so Merge's anchor is
/// the origin.
std::vector<std::vector<Value>> TiePairRows(
    Dim bumped, const std::vector<Value>& dominator = {0.31, 0.72, 0.18, 0.55,
                                                       0.93, 0.07, 0.46,
                                                       0.64}) {
  std::vector<Value> dominated = dominator;
  dominated[bumped] = std::nextafter(dominated[bumped], 1.0);
  std::vector<std::vector<Value>> rows = {dominated, dominator};
  for (Dim k = 0; k < kDims; ++k) {
    std::vector<Value> row(kDims, 1.0);
    row[k] = 0.0;
    rows.push_back(row);
  }
  return rows;
}

/// The pair whose squared distances tie (their sums do not).
Dataset DistanceTieDataset() { return Dataset::FromRows(TiePairRows(3)); }

bool Contains(const std::vector<PointId>& ids, PointId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

TEST(ScoreTieTest, MergePicksTheDominatorOfADistanceTie) {
  const Dataset data = DistanceTieDataset();
  ASSERT_TRUE(Dominates(data.row(1), data.row(0), kDims));
  ASSERT_EQ(ScorePoint(data.row(0), kDims, ScoreFunction::kEuclidean),
            ScorePoint(data.row(1), kDims, ScoreFunction::kEuclidean));
  for (int sigma = 2; sigma <= static_cast<int>(kDims); ++sigma) {
    const MergeResult merge = MergeSubspaces(data, sigma);
    ASSERT_FALSE(merge.pivots.empty()) << "sigma=" << sigma;
    EXPECT_EQ(merge.pivots.front(), 1u) << "sigma=" << sigma;
    for (PointId p : merge.pivots) {
      for (PointId q = 0; q < data.num_points(); ++q) {
        EXPECT_FALSE(Dominates(data.row(q), data.row(p), kDims))
            << "sigma=" << sigma << ": pivot " << p << " is dominated by "
            << q;
      }
    }
  }
}

TEST(ScoreTieTest, SortSurvivorsPutsTheDominatorFirstOnASumTie) {
  // Bumping coordinate 6 leaves every score and the sum unchanged.
  const Dataset data = Dataset::FromRows(TiePairRows(6));
  ASSERT_TRUE(Dominates(data.row(1), data.row(0), kDims));
  ASSERT_EQ(ScorePoint(data.row(0), kDims, ScoreFunction::kSum),
            ScorePoint(data.row(1), kDims, ScoreFunction::kSum));
  for (ScoreFunction f :
       {ScoreFunction::kSum, ScoreFunction::kMinCoordinate,
        ScoreFunction::kEuclidean, ScoreFunction::kEntropy}) {
    ASSERT_EQ(ScorePoint(data.row(0), kDims, f),
              ScorePoint(data.row(1), kDims, f))
        << ToString(f);
    MergeResult merge;
    merge.remaining = {0, 1};
    merge.subspaces = {Subspace({6}), Subspace({0, 1})};
    SortSurvivorsByScore(data, f, &merge);
    EXPECT_EQ(merge.remaining, (std::vector<PointId>{1, 0})) << ToString(f);
    EXPECT_EQ(merge.subspaces,
              (std::vector<Subspace>{Subspace({0, 1}), Subspace({6})}))
        << ToString(f);
  }
}

TEST(ScoreTieTest, BoostedEnginesDropTheTiedDominatedRow) {
  const Dataset data = DistanceTieDataset();
  const std::vector<PointId> want = ReferenceSkyline(data);
  ASSERT_FALSE(Contains(want, 0));
  for (const char* name :
       {"sfs-subset", "salsa-subset", "sdi-subset", "parallel-subset-sfs"}) {
    const auto algo = MakeAlgorithm(name);
    ASSERT_NE(algo, nullptr) << name;
    EXPECT_TRUE(SameIdSet(algo->Compute(data), want)) << name;
  }
}

TEST(ScoreTieTest, PresortingEnginesDropTheTiedDominatedRow) {
  // Row 1 drawn uniformly from [0.05, 0.95], each coordinate bumped in
  // turn: most of the 1,600 pairs tie on some engine's presort key (the
  // sum, minC, a lattice level and sum, or BBS's mindist).
  std::vector<std::pair<std::string, std::unique_ptr<SkylineAlgorithm>>>
      engines;
  for (const char* name : {"sfs", "salsa", "less", "index", "bbs",
                           "bskytree-s", "parallel-sfs"}) {
    engines.emplace_back(name, MakeAlgorithm(name));
    ASSERT_NE(engines.back().second, nullptr) << name;
  }
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<Value> draw(0.05, 0.95);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Value> dominator(kDims);
    for (Value& v : dominator) v = draw(rng);
    for (Dim bumped = 0; bumped < kDims; ++bumped) {
      const Dataset data = Dataset::FromRows(TiePairRows(bumped, dominator));
      for (const auto& [name, engine] : engines) {
        EXPECT_FALSE(Contains(engine->Compute(data), 0))
            << name << ": trial " << trial << ", bumped " << bumped;
      }
      // The 1-skyband is the skyline, scanned in SortedByScore order.
      EXPECT_FALSE(Contains(ComputeSkyband(data, 1).points, 0))
          << "skyband: trial " << trial << ", bumped " << bumped;
      // SDI's stop point.
      EXPECT_NE(ArgMinScore(data, ScoreFunction::kEuclidean), 0u)
          << "trial " << trial << ", bumped " << bumped;
    }
  }
}

TEST(ScoreTieTest, QueryServiceDropsTheTiedDominatedRow) {
  // The full space: the cold compute behind the pinned entry.
  const Dataset data = DistanceTieDataset();
  const std::vector<PointId> want = ReferenceSkyline(data);
  QueryService full_service(data);
  EXPECT_TRUE(SameIdSet(full_service.Query(Subspace::Full(kDims)), want));

  // A seeded cuboid. A ninth dimension in which row 0 is better keeps
  // both rows of the pair on the full-space skyline, so the seed of
  // V = dimensions 0..7 holds both; a boost threshold of 1 sends the
  // seed to the boosted engine over the projected rows, whose Merge
  // sees the same distance tie.
  std::vector<std::vector<Value>> rows = TiePairRows(3);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].push_back(i == 0 ? 0.5 : (i == 1 ? 0.6 : 1.0));
  }
  QueryServiceOptions options;
  options.seeded_boost_threshold = 1;
  QueryService service(Dataset::FromRows(rows), options);
  ASSERT_EQ(service.Query(Subspace::Full(kDims + 1)).size(), rows.size());
  EXPECT_TRUE(SameIdSet(service.Query(Subspace::Full(kDims)), want));
  EXPECT_EQ(service.Stats().seeded, 1u);
}

}  // namespace
}  // namespace skyline

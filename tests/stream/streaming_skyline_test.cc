#include "src/stream/streaming_skyline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "src/core/dominance.h"
#include "src/core/verify.h"
#include "src/data/generator.h"

namespace skyline {
namespace {

/// Feeds the dataset's rows into a StreamingSkyline in row order.
StreamingSkyline Feed(const Dataset& data, StreamingOptions options = {}) {
  StreamingSkyline stream(data.num_dims(), options);
  for (PointId p = 0; p < data.num_points(); ++p) {
    stream.Insert(data.point(p));
  }
  return stream;
}

struct StreamCase {
  DataType type;
  unsigned dims;
  std::size_t points;
  std::size_t bootstrap;
  std::uint64_t seed;
};

class StreamingEquivalenceTest : public ::testing::TestWithParam<StreamCase> {};

// The invariant everything else rests on: after any prefix of inserts,
// the streaming skyline equals the batch skyline of the prefix.
TEST_P(StreamingEquivalenceTest, MatchesBatchSkylineAtEveryCheckpoint) {
  const auto& c = GetParam();
  Dataset data = Generate(c.type, c.points, c.dims, c.seed);
  StreamingOptions options;
  options.bootstrap_size = c.bootstrap;
  StreamingSkyline stream(data.num_dims(), options);
  for (PointId p = 0; p < data.num_points(); ++p) {
    stream.Insert(data.point(p));
    // Check at a few prefixes, including right around the freeze.
    const std::size_t sz = p + 1;
    if (sz == c.bootstrap - 1 || sz == c.bootstrap ||
        sz == c.bootstrap + 1 || sz == c.points / 2 || sz == c.points) {
      Dataset prefix(data.num_dims(),
                     std::vector<Value>(data.values().begin(),
                                        data.values().begin() +
                                            sz * data.num_dims()));
      ASSERT_TRUE(SameIdSet(stream.Skyline(), ReferenceSkyline(prefix)))
          << "prefix " << sz;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StreamingEquivalenceTest,
    ::testing::Values(
        StreamCase{DataType::kUniformIndependent, 4, 600, 64, 1},
        StreamCase{DataType::kUniformIndependent, 8, 600, 64, 2},
        StreamCase{DataType::kAntiCorrelated, 5, 500, 32, 3},
        StreamCase{DataType::kCorrelated, 6, 500, 64, 4},
        StreamCase{DataType::kUniformIndependent, 3, 400, 8, 5},
        // bootstrap larger than the stream: never freezes
        StreamCase{DataType::kUniformIndependent, 4, 200, 1000, 6}));

TEST(StreamingSkylineTest, InsertReportsSkylineMembershipAtArrival) {
  StreamingSkyline stream(2, {.bootstrap_size = 2});
  const Value a[] = {5, 5};
  const Value b[] = {3, 3};
  const Value c[] = {4, 4};
  EXPECT_TRUE(stream.Insert(a));   // first point is always skyline
  EXPECT_TRUE(stream.Insert(b));   // dominates a
  EXPECT_FALSE(stream.IsSkyline(0));
  EXPECT_FALSE(stream.Insert(c));  // dominated by b
  EXPECT_EQ(stream.Skyline(), std::vector<PointId>{1});
  EXPECT_EQ(stream.stats().evictions, 1u);
  EXPECT_EQ(stream.stats().rejected_dominated, 1u);
}

TEST(StreamingSkylineTest, EvictionAfterFreeze) {
  // Freeze very early, then insert a point dominating an indexed one.
  StreamingSkyline stream(2, {.bootstrap_size = 2});
  const Value a[] = {1, 9};
  const Value b[] = {9, 1};
  const Value c[] = {5, 5};
  const Value d[] = {4, 4};  // dominates c after the freeze
  stream.Insert(a);
  stream.Insert(b);  // freeze happens here
  EXPECT_TRUE(stream.Insert(c));
  EXPECT_TRUE(stream.Insert(d));
  EXPECT_FALSE(stream.IsSkyline(2));
  EXPECT_TRUE(SameIdSet(stream.Skyline(), {0, 1, 3}));
}

TEST(StreamingSkylineTest, DuplicatesAllStayOnSkyline) {
  StreamingSkyline stream(3, {.bootstrap_size = 4});
  const Value p[] = {1, 2, 3};
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(stream.Insert(p));
  EXPECT_EQ(stream.skyline_size(), 6u);
}

TEST(StreamingSkylineTest, MonotoneImprovingStreamKeepsOnlyLast) {
  StreamingSkyline stream(2, {.bootstrap_size = 4});
  for (int i = 10; i >= 1; --i) {
    const Value row[] = {static_cast<Value>(i), static_cast<Value>(i)};
    EXPECT_TRUE(stream.Insert(row));
  }
  EXPECT_EQ(stream.skyline_size(), 1u);
  EXPECT_TRUE(stream.IsSkyline(9));
  EXPECT_EQ(stream.stats().evictions, 9u);
}

TEST(StreamingSkylineTest, ReferencePointsFrozenFromBootstrapSkyline) {
  Dataset data = Generate(DataType::kUniformIndependent, 300, 4, 9);
  StreamingOptions options;
  options.bootstrap_size = 50;
  options.max_reference_points = 8;
  StreamingSkyline stream = Feed(data, options);
  EXPECT_LE(stream.reference_points().size(), 8u);
  EXPECT_GE(stream.reference_points().size(), 1u);
  // References were drawn from the first 50 inserts.
  for (PointId ref : stream.reference_points()) {
    EXPECT_LT(ref, 50u);
  }
}

// The reference filter's verdict and charge, insert by insert, against
// a scalar loop over the reference rows: one test per reference scanned,
// up to and including the first that dominates the arrival, plus one to
// confirm it. An arrival no reference dominates pays every reference,
// then one test per index candidate (each is accepted here, so neither
// index loop stops early).
TEST(StreamingSkylineTest, ReferenceFilterChargeMatchesScalarLoop) {
  const Dim d = 3;
  // Four incomparable points; by Euclidean score the references are
  // rows 1, 3, 0, 2, in that order.
  const std::vector<std::vector<Value>> points = {
      {0.1, 0.5, 0.9},  {0.5, 0.1, 0.5},   {0.9, 0.6, 0.1},
      {0.3, 0.3, 0.6},
      {0.2, 0.6, 0.95},  // dominated by row 0 only: third reference
      {0.3, 0.3, 0.6},   // exact duplicate of row 3: second reference
      {0.6, 0.2, 0.6},   // dominated by row 1 only: first reference
      {0.95, 0.7, 0.2},  // dominated by row 2 only: last reference
      {0.05, 0.95, 0.95},  // no dominator
  };
  StreamingSkyline stream(d, {.bootstrap_size = 4, .max_reference_points = 4});
  for (std::size_t i = 0; i < 4; ++i) ASSERT_TRUE(stream.Insert(points[i]));
  ASSERT_EQ(stream.reference_points(), (std::vector<PointId>{1, 3, 0, 2}));

  bool saw_duplicate = false;
  bool saw_mid_list_dominator = false;
  for (std::size_t i = 4; i < points.size(); ++i) {
    const Value* arrival = points[i].data();
    std::uint64_t scanned = 0;
    bool reference_dominates = false;
    for (PointId ref : stream.reference_points()) {
      ++scanned;
      const Value* ref_row = points[ref].data();
      if (std::equal(ref_row, ref_row + d, arrival)) saw_duplicate = true;
      if (Dominates(ref_row, arrival, d)) {
        reference_dominates = true;
        const std::size_t last = stream.reference_points().size();
        if (scanned > 1 && scanned < last) saw_mid_list_dominator = true;
        break;
      }
    }
    bool dominated = false;
    for (std::size_t j = 0; j < i; ++j) {
      dominated = dominated || Dominates(points[j].data(), arrival, d);
    }

    const StreamingStats before = stream.stats();
    EXPECT_EQ(stream.Insert(points[i]), !dominated) << "insert " << i;
    const StreamingStats& after = stream.stats();
    const std::uint64_t tests = after.dominance_tests - before.dominance_tests;
    if (reference_dominates) {
      EXPECT_EQ(tests, scanned + 1) << "insert " << i;
      EXPECT_EQ(after.index_queries, before.index_queries) << "insert " << i;
    } else {
      ASSERT_FALSE(dominated) << "insert " << i;
      EXPECT_EQ(tests, scanned + (after.index_candidates -
                                  before.index_candidates))
          << "insert " << i;
    }
  }
  EXPECT_TRUE(saw_duplicate);
  EXPECT_TRUE(saw_mid_list_dominator);
}

TEST(StreamingSkylineTest, StatsAccumulate) {
  Dataset data = Generate(DataType::kUniformIndependent, 500, 4, 11);
  StreamingSkyline stream = Feed(data);
  EXPECT_EQ(stream.stats().inserts, 500u);
  EXPECT_GT(stream.stats().dominance_tests, 0u);
  EXPECT_GT(stream.stats().index_queries, 0u);
  EXPECT_EQ(stream.num_points(), 500u);
}

TEST(StreamingSkylineTest, IndexPruningBeatsFullScanCandidateCounts) {
  // The subset masks must keep candidate sets well below "every insert
  // scans the whole skyline".
  Dataset data = Generate(DataType::kUniformIndependent, 4000, 8, 13);
  StreamingSkyline stream = Feed(data);
  const auto& stats = stream.stats();
  // Upper bound if every query returned the full current skyline:
  // inserts * final skyline size is a loose proxy.
  const double mean_candidates =
      static_cast<double>(stats.index_candidates) /
      static_cast<double>(stats.index_queries);
  EXPECT_LT(mean_candidates,
            static_cast<double>(stream.skyline_size()) * 0.8);
}

TEST(StreamingBoundaryTest, BootstrapSizeOneFreezesOnFirstInsert) {
  // The smallest legal bootstrap: the first point becomes the entire
  // reference set and every later insert goes through the index.
  Dataset data = Generate(DataType::kUniformIndependent, 300, 4, 21);
  StreamingOptions options;
  options.bootstrap_size = 1;
  StreamingSkyline stream(data.num_dims(), options);
  stream.Insert(data.point(0));
  EXPECT_EQ(stream.reference_points().size(), 1u);
  EXPECT_EQ(stream.reference_points()[0], 0u);
  for (PointId p = 1; p < data.num_points(); ++p) {
    stream.Insert(data.point(p));
  }
  EXPECT_TRUE(SameIdSet(stream.Skyline(), ReferenceSkyline(data)));
}

TEST(StreamingBoundaryTest, BootstrapSizeZeroIsClampedToOne) {
  StreamingSkyline stream(2, {.bootstrap_size = 0});
  const Value a[] = {1, 2};
  EXPECT_TRUE(stream.Insert(a));
  EXPECT_EQ(stream.reference_points().size(), 1u);
  EXPECT_EQ(stream.skyline_size(), 1u);
}

TEST(StreamingBoundaryTest, DuplicatePointsSurviveAcrossTheFreeze) {
  // Duplicates never dominate each other, so every copy stays on the
  // skyline whether it arrived before or after the freeze.
  StreamingSkyline stream(3, {.bootstrap_size = 1});
  const Value p[] = {1, 2, 3};
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(stream.Insert(p));
  EXPECT_EQ(stream.skyline_size(), 5u);
  EXPECT_EQ(stream.stats().evictions, 0u);
  for (PointId id = 0; id < 5; ++id) EXPECT_TRUE(stream.IsSkyline(id));
}

TEST(StreamingBoundaryTest, AllDominatedStreamStoresNothing) {
  // One good point, then a long stream of strictly worse arrivals: the
  // structure must not retain a single rejected point, in either the
  // bootstrap or the indexed regime.
  StreamingSkyline stream(3, {.bootstrap_size = 8});
  const Value good[] = {0, 0, 0};
  EXPECT_TRUE(stream.Insert(good));
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<Value> bad(1.0, 2.0);
  for (int i = 0; i < 2000; ++i) {
    const Value row[] = {bad(rng), bad(rng), bad(rng)};
    EXPECT_FALSE(stream.Insert(row));
  }
  EXPECT_EQ(stream.resident_rows(), 1u);
  EXPECT_EQ(stream.stats().peak_resident_rows, 1u);
  EXPECT_EQ(stream.stats().rejected_dominated, 2000u);
  EXPECT_EQ(stream.num_points(), 2001u);
  EXPECT_EQ(stream.Skyline(), std::vector<PointId>{0});
}

TEST(StreamingMemoryTest, ExternalIdsStayValidAcrossCompaction) {
  StreamingSkyline stream(2, {.bootstrap_size = 2});
  const Value a[] = {1, 9};
  const Value b[] = {9, 1};
  const Value c[] = {5, 5};
  const Value d[] = {4, 4};  // evicts c
  stream.Insert(a);
  stream.Insert(b);
  stream.Insert(c);
  stream.Insert(d);
  ASSERT_EQ(stream.resident_rows(), 4u);  // dead row for c still resident
  stream.CompactNow();
  EXPECT_EQ(stream.resident_rows(), 3u);
  EXPECT_EQ(stream.stats().compactions, 1u);
  // Ids are insertion-order and survive the row shuffle.
  EXPECT_TRUE(stream.IsSkyline(0));
  EXPECT_TRUE(stream.IsSkyline(1));
  EXPECT_FALSE(stream.IsSkyline(2));
  EXPECT_TRUE(stream.IsSkyline(3));
  EXPECT_TRUE(SameIdSet(stream.Skyline(), {0, 1, 3}));
  // point(id) resolves external ids to the moved rows.
  EXPECT_EQ(stream.point(0)[0], 1);
  EXPECT_EQ(stream.point(0)[1], 9);
  EXPECT_EQ(stream.point(3)[0], 4);
  EXPECT_EQ(stream.point(3)[1], 4);
  // The structure keeps answering inserts correctly after compaction.
  const Value e[] = {3, 3};  // evicts d
  EXPECT_TRUE(stream.Insert(e));
  EXPECT_TRUE(SameIdSet(stream.Skyline(), {0, 1, 4}));
  EXPECT_EQ(stream.point(4)[0], 3);
}

TEST(StreamingMemoryTest, HighWaterMarkBoundsResidentRows) {
  // A monotone-improving stream evicts on every insert — the worst case
  // for dead-row accumulation. Resident rows must stay within
  // max(high_water, 2 * skyline_size) at every step.
  StreamingOptions options;
  options.bootstrap_size = 4;
  options.compact_high_water = 64;
  StreamingSkyline stream(2, options);
  for (int i = 5000; i >= 1; --i) {
    const Value row[] = {static_cast<Value>(i), static_cast<Value>(i)};
    stream.Insert(row);
    ASSERT_LE(stream.resident_rows(), 64u) << "insert " << 5000 - i;
  }
  EXPECT_EQ(stream.skyline_size(), 1u);
  EXPECT_GT(stream.stats().compactions, 0u);
  EXPECT_LE(stream.stats().peak_resident_rows, 64u);
  EXPECT_TRUE(stream.IsSkyline(4999));
}

TEST(StreamingMemoryTest, CompactionDisabledRetainsEveryAcceptedRow) {
  StreamingOptions options;
  options.bootstrap_size = 4;
  options.compact_high_water = 0;  // pre-bounded behavior
  StreamingSkyline stream(2, options);
  for (int i = 200; i >= 1; --i) {
    const Value row[] = {static_cast<Value>(i), static_cast<Value>(i)};
    stream.Insert(row);
  }
  // Every insert entered the skyline (then died); none were compacted.
  EXPECT_EQ(stream.resident_rows(), 200u);
  EXPECT_EQ(stream.stats().compactions, 0u);
  EXPECT_EQ(stream.skyline_size(), 1u);
}

/// Two-phase drift stream: bootstrap and references come from the
/// far-from-origin box, then the stream moves to the near-origin box.
/// Every phase-2 point dominates all frozen references, so all masks
/// collapse to the full subspace and the index stops pruning — until
/// the adaptive re-reference kicks in.
Dataset MakeDriftDataset(std::size_t phase1, std::size_t phase2,
                         Dim d, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Value> far(0.5, 1.0);
  std::uniform_real_distribution<Value> near(0.0, 0.5);
  std::vector<Value> values;
  values.reserve((phase1 + phase2) * d);
  for (std::size_t i = 0; i < phase1 * d; ++i) values.push_back(far(rng));
  for (std::size_t i = 0; i < phase2 * d; ++i) values.push_back(near(rng));
  return Dataset(d, std::move(values));
}

TEST(StreamingAdaptTest, RefreezesWhenReferenceSetDrifts) {
  Dataset data = MakeDriftDataset(1000, 3000, 4, 31);
  StreamingOptions options;
  options.bootstrap_size = 64;
  options.adapt_interval = 256;
  StreamingSkyline stream = Feed(data, options);
  EXPECT_GE(stream.stats().refreezes, 1u);
  // Adaptation must not change the answer.
  EXPECT_TRUE(SameIdSet(stream.Skyline(), ReferenceSkyline(data)));
  // After re-freezing, the references come from the drifted skyline.
  for (PointId ref : stream.reference_points()) {
    EXPECT_GE(ref, 1000u) << "reference still from the stale phase";
  }
}

TEST(StreamingAdaptTest, RefreezeRestoresPruningPower) {
  Dataset data = MakeDriftDataset(1000, 3000, 4, 33);
  StreamingOptions adaptive;
  adaptive.bootstrap_size = 64;
  adaptive.adapt_interval = 256;
  StreamingOptions frozen = adaptive;
  frozen.adapt_interval = 0;  // adaptation off
  StreamingSkyline with = Feed(data, adaptive);
  StreamingSkyline without = Feed(data, frozen);
  ASSERT_GE(with.stats().refreezes, 1u);
  ASSERT_EQ(without.stats().refreezes, 0u);
  // Same answer, far fewer candidate retrievals once re-frozen.
  EXPECT_TRUE(SameIdSet(with.Skyline(), without.Skyline()));
  EXPECT_LT(static_cast<double>(with.stats().index_candidates),
            static_cast<double>(without.stats().index_candidates) * 0.8);
}

TEST(StreamingAdaptTest, NoRefreezeOnStationaryStream) {
  // A stationary distribution must not trip the degradation trigger.
  Dataset data = Generate(DataType::kUniformIndependent, 4000, 6, 35);
  StreamingOptions options;
  options.adapt_interval = 256;
  StreamingSkyline stream = Feed(data, options);
  EXPECT_EQ(stream.stats().refreezes, 0u);
}

}  // namespace
}  // namespace skyline

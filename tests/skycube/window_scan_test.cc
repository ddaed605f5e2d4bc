// Differential tests of the skycube window scan,
// SubspaceSkylineOverCandidates (also the query service's BNL seeded
// path), against a scalar BNL over the source rows. The scan keeps each
// window member's packed prefilter row beside its id and moves both on
// every append and eviction, so beyond the answer it must return the
// ids in window order and charge exactly the scalar scan's dominance
// tests, with the prefilter on and off. The inputs cover seeds below
// and above cpu::kPrefilterMinBlock (no plane, then a plane),
// subspaces of 1 to 12 dimensions (packed widths 8 and 16),
// duplicate-heavy rows, a NaN row (no plane) and a worst-first order
// that evicts a mid-window member on every step.
#include "src/skycube/skycube.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "src/core/cpu.h"
#include "src/core/dataset.h"
#include "src/core/subspace.h"

namespace skyline {
namespace {

/// The scalar BNL window scan: each candidate is tested against the
/// window in order, one charged test per member up to and including the
/// first dominator; the members before it that the candidate dominates
/// are evicted (uncharged), and a survivor evicts every member it
/// dominates and joins the window's end. Returns the window in order.
std::vector<PointId> ScalarWindowScan(const Dataset& data, Subspace subspace,
                                      const std::vector<PointId>& candidates,
                                      std::uint64_t* tests) {
  std::vector<PointId> window;
  for (PointId p : candidates) {
    bool dominated = false;
    std::vector<PointId> kept;
    for (PointId w : window) {
      if (!dominated) {
        ++*tests;
        if (DominatesInSubspace(data.row(w), data.row(p), subspace)) {
          dominated = true;
        } else if (DominatesInSubspace(data.row(p), data.row(w), subspace)) {
          continue;
        }
      }
      kept.push_back(w);
    }
    window = std::move(kept);
    if (!dominated) window.push_back(p);
  }
  return window;
}

/// Restores the process's prefilter setting after each test.
class WindowScanDifferentialTest : public ::testing::Test {
 protected:
  void TearDown() override { cpu::SetPrefilterEnabledForTesting(saved_); }

  /// The scan must return the scalar window, in order, and charge its
  /// tests, with the prefilter on and off.
  static void ExpectScalarScan(const Dataset& data, Subspace subspace,
                               const std::vector<PointId>& candidates,
                               const std::string& label) {
    std::uint64_t want_tests = 0;
    const std::vector<PointId> want =
        ScalarWindowScan(data, subspace, candidates, &want_tests);
    for (bool prefilter : {true, false}) {
      cpu::SetPrefilterEnabledForTesting(prefilter);
      std::uint64_t tests = 0;
      EXPECT_EQ(SubspaceSkylineOverCandidates(data, subspace, candidates,
                                              &tests),
                want)
          << label << " prefilter=" << prefilter;
      EXPECT_EQ(tests, want_tests) << label << " prefilter=" << prefilter;
    }
  }

 private:
  const bool saved_ = cpu::PrefilterEnabled();
};

constexpr Dim kDims = 12;

/// `n` rows of kDims values on a coarse grid, so ties and dominating
/// pairs are common.
Dataset CoarseRows(std::size_t n, std::mt19937_64* rng) {
  std::vector<Value> values(n * kDims);
  for (Value& v : values) v = static_cast<Value>((*rng)() % 5);
  return Dataset(kDims, std::move(values));
}

/// A random subspace of `size` of the kDims dimensions.
Subspace RandomSubspace(Dim size, std::mt19937_64* rng) {
  std::vector<Dim> dims(kDims);
  for (Dim k = 0; k < kDims; ++k) dims[k] = k;
  std::shuffle(dims.begin(), dims.end(), *rng);
  Subspace v;
  for (Dim k = 0; k < size; ++k) v.Add(dims[k]);
  return v;
}

/// `count` distinct row ids of `n`, in random order.
std::vector<PointId> RandomSeed(std::size_t n, std::size_t count,
                                std::mt19937_64* rng) {
  std::vector<PointId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<PointId>(i);
  std::shuffle(ids.begin(), ids.end(), *rng);
  ids.resize(count);
  return ids;
}

TEST_F(WindowScanDifferentialTest, RandomSeedsOnEverySubspaceSize) {
  std::mt19937_64 rng(2024);
  const Dataset data = CoarseRows(300, &rng);
  const std::size_t kMin = cpu::kPrefilterMinBlock;
  for (Dim size = 1; size <= kDims; ++size) {
    for (std::size_t count :
         {std::size_t{1}, std::size_t{2}, kMin - 1, kMin, kMin + 1,
          std::size_t{40}, std::size_t{255}}) {
      for (int trial = 0; trial < 3; ++trial) {
        const Subspace v = RandomSubspace(size, &rng);
        ExpectScalarScan(data, v, RandomSeed(data.num_points(), count, &rng),
                         "|V|=" + std::to_string(size) +
                             " seed=" + std::to_string(count) +
                             " trial=" + std::to_string(trial));
      }
    }
  }
}

TEST_F(WindowScanDifferentialTest, DuplicateHeavyRows) {
  // Each distinct row appears four times, over three values per
  // dimension: equal projections never dominate each other, so whole
  // groups of duplicates share the window.
  std::mt19937_64 rng(77);
  std::vector<Value> values;
  for (int r = 0; r < 40; ++r) {
    std::vector<Value> row(kDims);
    for (Value& v : row) v = static_cast<Value>(rng() % 3);
    for (int copy = 0; copy < 4; ++copy) {
      values.insert(values.end(), row.begin(), row.end());
    }
  }
  const Dataset data(kDims, std::move(values));
  for (Dim size : {Dim{1}, Dim{2}, Dim{5}, Dim{8}, Dim{9}, Dim{12}}) {
    for (std::size_t count : {6, 24, 160}) {
      const Subspace v = RandomSubspace(size, &rng);
      ExpectScalarScan(data, v, RandomSeed(data.num_points(), count, &rng),
                       "|V|=" + std::to_string(size) +
                           " seed=" + std::to_string(count));
    }
  }
}

TEST_F(WindowScanDifferentialTest, NanRowLeavesTheBlockWithoutAPlane) {
  // Row 0 holds a NaN in dimension 3. A subspace over dimension 3
  // gathers it, so the block gets no plane and the window runs exact
  // compares; a subspace without it gathers only finite values.
  std::mt19937_64 rng(5);
  std::vector<Value> values(120 * kDims);
  for (Value& v : values) v = static_cast<Value>(rng() % 4);
  values[3] = std::numeric_limits<Value>::quiet_NaN();
  const Dataset data(kDims, std::move(values));
  for (const Subspace v : {Subspace{3}, Subspace{0, 3, 7}, Subspace{0, 1, 2},
                           Subspace::Full(kDims)}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<PointId> seed = RandomSeed(data.num_points(), 60, &rng);
      if (std::find(seed.begin(), seed.end(), PointId{0}) == seed.end()) {
        seed[rng() % seed.size()] = 0;
      }
      ExpectScalarScan(data, v, seed,
                       v.ToString() + " trial=" + std::to_string(trial));
    }
  }
}

TEST_F(WindowScanDifferentialTest, WorstFirstOrderEvictsOnEveryStep) {
  // Three waves over dimensions 0 and 1 of V (the other dimensions of
  // V hold one value):
  //   1. an anti-chain a_j = (j, m - j): the window fills up;
  //   2. b_j = a_j - 0.5, worst first: each b_j evicts exactly a_j from
  //      the middle of the window, and the members after it move down;
  //   3. c_j = a_j + 0.25: each is dominated by b_j only, which sits in
  //      a slot that other members' packed rows have passed through.
  // A window whose packed rows fall out of step with its ids lets a
  // stale row reject a true dominator in wave 3.
  const int m = 24;
  for (Dim size : {Dim{2}, Dim{8}, Dim{9}, Dim{12}}) {
    Subspace v;
    for (Dim k = 0; k < size; ++k) v.Add(k);
    std::vector<Value> values;
    const auto append = [&](Value x, Value y) {
      std::vector<Value> row(kDims, 1.0);
      row[0] = x;
      row[1] = y;
      values.insert(values.end(), row.begin(), row.end());
    };
    for (int j = 0; j < m; ++j) append(j, m - j);
    for (int j = 0; j < m; ++j) append(j - 0.5, m - j - 0.5);
    for (int j = 0; j < m; ++j) append(j + 0.25, m - j + 0.25);
    const Dataset data(kDims, std::move(values));
    std::vector<PointId> order;
    for (int j = 0; j < m; ++j) order.push_back(static_cast<PointId>(j));
    for (int j = m - 1; j >= 0; --j) {
      order.push_back(static_cast<PointId>(m + j));
    }
    for (int j = 0; j < m; ++j) {
      order.push_back(static_cast<PointId>(2 * m + j));
    }
    ExpectScalarScan(data, v, order, "|V|=" + std::to_string(size));

    // The same waves with the second one in random order.
    std::mt19937_64 rng(size);
    std::shuffle(order.begin() + m, order.begin() + 2 * m, rng);
    ExpectScalarScan(data, v, order,
                     "shuffled |V|=" + std::to_string(size));
  }
}

}  // namespace
}  // namespace skyline

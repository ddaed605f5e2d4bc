#include "src/subset/subset_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "src/core/aligned_dataset.h"
#include "src/core/dataset.h"
#include "src/core/dominance.h"
#include "src/core/kernels.h"
#include "src/core/stats.h"

namespace skyline {
namespace {

std::vector<PointId> Sorted(std::vector<PointId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(SubsetIndexTest, EmptyIndexReturnsNothing) {
  SubsetIndex index(6);
  std::vector<PointId> out;
  index.Query(Subspace{0, 1}, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(index.num_nodes(), 0u);
  EXPECT_EQ(index.num_points(), 0u);
}

TEST(SubsetIndexTest, PaperFigure3Example) {
  // The subspaces of Figure 3 (stored *reversed* paths):
  // {1,2},{1,3,5,7},{1,5},{1,7},{3,5},{3,7},{5,7} over an 8-dim space
  // (we use 0-based dims 0..7, so the paths are exactly these sets).
  SubsetIndex index(8);
  const std::vector<std::pair<PointId, Subspace>> reversed_paths = {
      {0, Subspace{1, 2}},       {1, Subspace{1, 3, 5, 7}},
      {2, Subspace{1, 5}},       {3, Subspace{1, 7}},
      {4, Subspace{3, 5}},       {5, Subspace{3, 7}},
      {6, Subspace{5, 7}},
  };
  for (const auto& [id, rev] : reversed_paths) {
    index.Add(id, rev.Complement(8));  // Add reverses internally
  }
  // Query set {1,3,5} (reversed) should return the points stored at the
  // subset paths {1,5}, {3,5} — and none containing 2 or 7.
  std::vector<PointId> out;
  index.Query(Subspace({1, 3, 5}).Complement(8), &out);
  EXPECT_EQ(Sorted(out), (std::vector<PointId>{2, 4}));
}

TEST(SubsetIndexTest, AddThenQueryExactSubspace) {
  SubsetIndex index(4);
  index.Add(7, Subspace{0, 2});
  std::vector<PointId> out;
  index.Query(Subspace{0, 2}, &out);
  EXPECT_EQ(out, std::vector<PointId>{7});
}

TEST(SubsetIndexTest, QueryReturnsSupersetSubspacesOnly) {
  SubsetIndex index(4);
  index.Add(1, Subspace{0});          // D_1 = {0}
  index.Add(2, Subspace{0, 1});       // D_2 = {0,1}
  index.Add(3, Subspace{1});          // D_3 = {1}
  index.Add(4, Subspace{0, 1, 2});    // D_4 = {0,1,2}

  std::vector<PointId> out;
  index.Query(Subspace{0, 1}, &out);  // supersets of {0,1}: D_2, D_4
  EXPECT_EQ(Sorted(out), (std::vector<PointId>{2, 4}));

  out.clear();
  index.Query(Subspace{0}, &out);  // supersets of {0}: D_1, D_2, D_4
  EXPECT_EQ(Sorted(out), (std::vector<PointId>{1, 2, 4}));

  out.clear();
  index.Query(Subspace{2}, &out);  // supersets of {2}: D_4 only
  EXPECT_EQ(Sorted(out), (std::vector<PointId>{4}));
}

TEST(SubsetIndexTest, FullSubspaceIsAlwaysCandidate) {
  SubsetIndex index(4);
  index.Add(9, Subspace::Full(4));  // reversed path empty -> root
  for (std::uint64_t bits = 1; bits < 16; ++bits) {
    std::vector<PointId> out;
    index.Query(Subspace(bits), &out);
    EXPECT_EQ(out, std::vector<PointId>{9}) << bits;
  }
}

TEST(SubsetIndexTest, AddAlwaysCandidateEqualsFullSubspaceAdd) {
  SubsetIndex a(5), b(5);
  a.AddAlwaysCandidate(3);
  b.Add(3, Subspace::Full(5));
  for (std::uint64_t bits = 0; bits < 32; ++bits) {
    std::vector<PointId> out_a, out_b;
    a.Query(Subspace(bits), &out_a);
    b.Query(Subspace(bits), &out_b);
    EXPECT_EQ(out_a, out_b);
  }
}

TEST(SubsetIndexTest, AddAlwaysCandidateCountsTowardNumPoints) {
  // Regression: AddAlwaysCandidate used to push into the root without
  // incrementing num_points_, under-reporting after pivot registration.
  SubsetIndex index(4);
  index.AddAlwaysCandidate(1);
  index.AddAlwaysCandidate(2);
  EXPECT_EQ(index.num_points(), 2u);
  index.Add(3, Subspace{0, 1});
  EXPECT_EQ(index.num_points(), 3u);
  // Removing a root-registered id keeps the counter consistent.
  EXPECT_TRUE(index.Remove(1, Subspace::Full(4)));
  EXPECT_EQ(index.num_points(), 2u);
}

TEST(SubsetIndexTest, MergeFromSplicesAllEntries) {
  SubsetIndex a(5), b(5);
  a.Add(1, Subspace{0});
  a.Add(2, Subspace{0, 1});
  b.Add(3, Subspace{0});      // shares a's path
  b.Add(4, Subspace{2, 3});   // new path
  b.AddAlwaysCandidate(5);    // root entry
  const std::size_t a_nodes = a.num_nodes();

  a.MergeFrom(std::move(b));
  EXPECT_EQ(a.num_points(), 5u);
  EXPECT_GT(a.num_nodes(), a_nodes);

  std::vector<PointId> out;
  a.Query(Subspace{0}, &out);  // supersets of {0}: ids 1..3 + root id 5
  EXPECT_EQ(Sorted(out), (std::vector<PointId>{1, 2, 3, 5}));
  out.clear();
  a.Query(Subspace{2, 3}, &out);
  EXPECT_EQ(Sorted(out), (std::vector<PointId>{4, 5}));
}

TEST(SubsetIndexTest, MergeFromLeavesSourceEmptyAndReusable) {
  SubsetIndex a(4), b(4);
  b.Add(1, Subspace{0, 2});
  a.MergeFrom(std::move(b));
  EXPECT_EQ(b.num_points(), 0u);
  EXPECT_EQ(b.num_nodes(), 0u);
  std::vector<PointId> out;
  b.Query(Subspace{0, 2}, &out);
  EXPECT_TRUE(out.empty());
  // The moved-from index accepts new entries again.
  b.Add(7, Subspace{1});
  out.clear();
  b.Query(Subspace{1}, &out);
  EXPECT_EQ(out, std::vector<PointId>{7});
}

// Property test: merging T indexes answers queries exactly like one
// index that received every Add — the invariant MergeFrom promises.
class SubsetIndexMergePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SubsetIndexMergePropertyTest, MergedEqualsSingleIndex) {
  std::mt19937_64 rng(GetParam());
  const Dim d = 2 + static_cast<Dim>(rng() % 10);  // 2..11 dims
  const std::uint64_t space = Subspace::Full(d).bits();
  const int num_parts = 2 + static_cast<int>(rng() % 4);  // 2..5 sources

  SubsetIndex reference(d);
  std::vector<SubsetIndex> parts;
  for (int t = 0; t < num_parts; ++t) parts.emplace_back(d);
  for (PointId id = 0; id < 400; ++id) {
    Subspace mask(rng() & space);
    if (mask.empty()) mask = Subspace::Full(d);
    reference.Add(id, mask);
    parts[id % num_parts].Add(id, mask);
  }

  SubsetIndex merged(d);
  for (SubsetIndex& part : parts) merged.MergeFrom(std::move(part));
  EXPECT_EQ(merged.num_points(), reference.num_points());
  EXPECT_EQ(merged.num_nodes(), reference.num_nodes());

  for (int q = 0; q < 60; ++q) {
    Subspace query(rng() & space);
    std::vector<PointId> got, expected;
    merged.Query(query, &got);
    reference.Query(query, &expected);
    ASSERT_EQ(Sorted(got), Sorted(expected))
        << "d=" << d << " query=" << query.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubsetIndexMergePropertyTest,
                         ::testing::Values(31, 32, 33, 34, 35, 36));

TEST(SubsetIndexTest, MultiplePointsPerSubspaceShareOneNode) {
  SubsetIndex index(6);
  index.Add(1, Subspace{2, 4});
  const std::size_t nodes_after_first = index.num_nodes();
  index.Add(2, Subspace{2, 4});
  index.Add(3, Subspace{2, 4});
  EXPECT_EQ(index.num_nodes(), nodes_after_first);
  EXPECT_EQ(index.num_points(), 3u);
  std::vector<PointId> out;
  index.Query(Subspace{2, 4}, &out);
  EXPECT_EQ(Sorted(out), (std::vector<PointId>{1, 2, 3}));
}

TEST(SubsetIndexTest, NodeCountMatchesDistinctPrefixes) {
  SubsetIndex index(8);
  // Reversed paths: {0,1} and {0,2} share the prefix node 0.
  index.Add(1, Subspace({0, 1}).Complement(8));
  index.Add(2, Subspace({0, 2}).Complement(8));
  EXPECT_EQ(index.num_nodes(), 3u);  // nodes 0, 0->1, 0->2
}

TEST(SubsetIndexTest, NodesVisitedCounterGrows) {
  SubsetIndex index(6);
  index.Add(1, Subspace{0});
  index.Add(2, Subspace{1});
  std::uint64_t visited = 0;
  std::vector<PointId> out;
  index.Query(Subspace{0}, &out, &visited);
  EXPECT_GT(visited, 0u);
}

// Property test: the index must agree with a brute-force superset filter
// over random mask multisets and random queries.
class SubsetIndexPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SubsetIndexPropertyTest, AgreesWithBruteForce) {
  std::mt19937_64 rng(GetParam());
  const Dim d = 2 + static_cast<Dim>(rng() % 14);  // 2..15 dims
  const std::uint64_t space = Subspace::Full(d).bits();
  SubsetIndex index(d);
  std::vector<std::pair<PointId, Subspace>> stored;
  for (PointId id = 0; id < 300; ++id) {
    Subspace mask(rng() & space);
    if (mask.empty()) mask = Subspace::Full(d);
    index.Add(id, mask);
    stored.emplace_back(id, mask);
  }
  for (int q = 0; q < 100; ++q) {
    Subspace query(rng() & space);
    std::vector<PointId> got;
    index.Query(query, &got);
    std::vector<PointId> expected;
    for (const auto& [id, mask] : stored) {
      if (mask.IsSupersetOf(query)) expected.push_back(id);
    }
    ASSERT_EQ(Sorted(got), Sorted(expected))
        << "d=" << d << " query=" << query.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubsetIndexPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// Property test of the in-place probe. On an index bound to a dataset,
// with Add, AddAlwaysCandidate, swap-with-back Remove and MergeFrom
// interleaved, every FindDominator must report exactly what Query
// followed by a scalar id-list loop reports on the same index: the same
// `first` and `scanned`, and the same candidate and node counts. A
// packed row that drifted away from its id would let the prefilter
// reject a true dominator and show up here. Odd seeds put a NaN into
// one row, so the dataset has no plane and the walk runs exact
// compares only.
class SubsetIndexProbePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SubsetIndexProbePropertyTest, ProbeEqualsQueryThenIdListKernel) {
  std::mt19937_64 rng(GetParam());
  const Dim d = 1 + static_cast<Dim>(rng() % 12);  // packed widths 8, 16
  const std::size_t n = 160;
  // Coarse values: many ties and many dominating pairs.
  std::vector<Value> values(n * d);
  for (Value& v : values) v = static_cast<Value>(rng() % 3);
  const bool finite = GetParam() % 2 == 0;
  if (!finite) {
    values[rng() % values.size()] = std::numeric_limits<Value>::quiet_NaN();
  }
  const Dataset data(d, std::move(values));
  AlignedDataset rows(data);
  ASSERT_EQ(rows.EnsureQuantized(), finite);

  const std::uint64_t space = Subspace::Full(d).bits();
  auto stored_mask = [&] {
    const Subspace mask(rng() & space);
    return mask.empty() ? Subspace::Full(d) : mask;
  };
  SubsetIndex index(d, &rows);
  SubsetIndex staging(d, &rows);
  std::vector<std::pair<PointId, Subspace>> stored;
  std::vector<std::pair<PointId, Subspace>> staged;
  int probes = 0;
  for (int step = 0; step < 1200; ++step) {
    const unsigned op = static_cast<unsigned>(rng() % 10);
    const PointId id = static_cast<PointId>(rng() % n);
    if (op < 3) {
      const Subspace mask = stored_mask();
      index.Add(id, mask);
      stored.emplace_back(id, mask);
    } else if (op == 3) {
      index.AddAlwaysCandidate(id);
      stored.emplace_back(id, Subspace::Full(d));
    } else if (op == 4) {
      const Subspace mask = stored_mask();
      staging.Add(id, mask);
      staged.emplace_back(id, mask);
    } else if (op == 5 && !stored.empty()) {
      const std::size_t pick = rng() % stored.size();
      ASSERT_TRUE(index.Remove(stored[pick].first, stored[pick].second));
      stored.erase(stored.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (op == 6) {
      index.MergeFrom(std::move(staging));
      stored.insert(stored.end(), staged.begin(), staged.end());
      staged.clear();
      staging = SubsetIndex(d, &rows);
    } else {
      const Subspace mask(rng() & space);
      std::vector<PointId> candidates;
      std::uint64_t nodes = 0;
      index.Query(mask, &candidates, &nodes);
      // The scalar id-list loop: one test per candidate up to and
      // including the first dominator.
      kernels::BatchProbeResult want;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        ++want.scanned;
        if (Dominates(data.row(candidates[i]), data.row(id), d)) {
          want.first = i;
          break;
        }
      }
      SkylineStats stats;
      const kernels::BatchProbeResult got =
          index.FindDominator(mask, id, &stats);
      ASSERT_EQ(got.first, want.first) << "step=" << step << " d=" << d;
      ASSERT_EQ(got.scanned, want.scanned) << "step=" << step << " d=" << d;
      ASSERT_EQ(stats.dominance_tests, want.scanned) << "step=" << step;
      ASSERT_EQ(stats.index_queries, 1u);
      ASSERT_EQ(stats.index_candidates, candidates.size()) << "step=" << step;
      ASSERT_EQ(stats.index_nodes_visited, nodes) << "step=" << step;
      ++probes;
    }
  }
  EXPECT_GT(probes, 0);
  EXPECT_EQ(index.num_points(), stored.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubsetIndexProbePropertyTest,
                         ::testing::Range(1, 13));

TEST(SubsetIndexTest, QueryContainedReturnsSubsetSubspacesOnly) {
  SubsetIndex index(4);
  index.Add(1, Subspace{0});
  index.Add(2, Subspace{0, 1});
  index.Add(3, Subspace{1});
  index.Add(4, Subspace{0, 1, 2});

  std::vector<PointId> out;
  index.QueryContained(Subspace{0, 1}, &out);  // subsets of {0,1}
  EXPECT_EQ(Sorted(out), (std::vector<PointId>{1, 2, 3}));

  out.clear();
  index.QueryContained(Subspace{0}, &out);
  EXPECT_EQ(Sorted(out), (std::vector<PointId>{1}));

  out.clear();
  index.QueryContained(Subspace::Full(4), &out);  // everything
  EXPECT_EQ(Sorted(out), (std::vector<PointId>{1, 2, 3, 4}));

  out.clear();
  index.QueryContained(Subspace{3}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(SubsetIndexTest, QueryAndQueryContainedPartitionOnExactMatch) {
  // A stored subspace equal to the query is returned by both queries.
  SubsetIndex index(5);
  index.Add(9, Subspace{1, 3});
  std::vector<PointId> sup, sub;
  index.Query(Subspace{1, 3}, &sup);
  index.QueryContained(Subspace{1, 3}, &sub);
  EXPECT_EQ(sup, std::vector<PointId>{9});
  EXPECT_EQ(sub, std::vector<PointId>{9});
}

// Property test: QueryContained agrees with brute force.
class SubsetIndexContainedPropertyTest
    : public ::testing::TestWithParam<int> {};

TEST_P(SubsetIndexContainedPropertyTest, AgreesWithBruteForce) {
  std::mt19937_64 rng(GetParam());
  const Dim d = 2 + static_cast<Dim>(rng() % 14);
  const std::uint64_t space = Subspace::Full(d).bits();
  SubsetIndex index(d);
  std::vector<std::pair<PointId, Subspace>> stored;
  for (PointId id = 0; id < 300; ++id) {
    Subspace mask(rng() & space);
    if (mask.empty()) mask = Subspace::Full(d);
    index.Add(id, mask);
    stored.emplace_back(id, mask);
  }
  for (int q = 0; q < 100; ++q) {
    Subspace query(rng() & space);
    std::vector<PointId> got;
    index.QueryContained(query, &got);
    std::vector<PointId> expected;
    for (const auto& [id, mask] : stored) {
      if (mask.IsSubsetOf(query)) expected.push_back(id);
    }
    ASSERT_EQ(Sorted(got), Sorted(expected))
        << "d=" << d << " query=" << query.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubsetIndexContainedPropertyTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

TEST(SubsetIndexTest, RemoveDeletesExactlyOneOccurrence) {
  SubsetIndex index(4);
  index.Add(1, Subspace{0, 2});
  index.Add(2, Subspace{0, 2});
  EXPECT_TRUE(index.Remove(1, Subspace{0, 2}));
  EXPECT_EQ(index.num_points(), 1u);
  std::vector<PointId> out;
  index.Query(Subspace{0, 2}, &out);
  EXPECT_EQ(out, std::vector<PointId>{2});
  // Removing again fails; removing with the wrong subspace fails.
  EXPECT_FALSE(index.Remove(1, Subspace{0, 2}));
  EXPECT_FALSE(index.Remove(2, Subspace{0}));
  EXPECT_EQ(index.num_points(), 1u);
}

TEST(SubsetIndexTest, RemoveFromUnknownPathIsRejected) {
  SubsetIndex index(4);
  index.Add(1, Subspace{0});
  EXPECT_FALSE(index.Remove(1, Subspace{1, 2}));
  EXPECT_EQ(index.num_points(), 1u);
}

TEST(SubsetIndexTest, AddAfterRemoveWorks) {
  SubsetIndex index(6);
  index.Add(5, Subspace{1, 4});
  ASSERT_TRUE(index.Remove(5, Subspace{1, 4}));
  index.Add(6, Subspace{1, 4});
  std::vector<PointId> out;
  index.Query(Subspace{1, 4}, &out);
  EXPECT_EQ(out, std::vector<PointId>{6});
}

TEST(SubsetIndexTest, QueryNeverReturnsDuplicates) {
  std::mt19937_64 rng(77);
  const Dim d = 10;
  SubsetIndex index(d);
  for (PointId id = 0; id < 200; ++id) {
    Subspace mask(rng() & Subspace::Full(d).bits());
    if (mask.empty()) mask = Subspace::Single(0);
    index.Add(id, mask);
  }
  for (int q = 0; q < 50; ++q) {
    Subspace query(rng() & Subspace::Full(d).bits());
    std::vector<PointId> got;
    index.Query(query, &got);
    auto sorted = Sorted(got);
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
  }
}

// --- Empty-index and single-pivot edge cases (ISSUE 2 satellite). ---

TEST(SubsetIndexEdgeTest, EmptyIndexAnswersEveryQueryShape) {
  SubsetIndex index(4);
  std::vector<PointId> out;
  std::uint64_t nodes = 0;
  index.Query(Subspace{}, &out, &nodes);          // weakest probe
  index.Query(Subspace::Full(4), &out, &nodes);   // strongest probe
  index.QueryContained(Subspace{}, &out, &nodes);
  index.QueryContained(Subspace::Full(4), &out, &nodes);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(index.num_nodes(), 0u);
  EXPECT_EQ(index.num_points(), 0u);
  EXPECT_GE(nodes, 4u);  // each query touches at least the root
}

TEST(SubsetIndexEdgeTest, RemoveOnEmptyIndexReturnsFalse) {
  SubsetIndex index(4);
  EXPECT_FALSE(index.Remove(0, Subspace{0, 1}));
  EXPECT_FALSE(index.Remove(0, Subspace{}));
  EXPECT_EQ(index.num_points(), 0u);
}

TEST(SubsetIndexEdgeTest, MergeFromEmptyIsANoOp) {
  SubsetIndex index(5);
  index.Add(3, Subspace{0, 2});
  SubsetIndex empty(5);
  index.MergeFrom(std::move(empty));
  EXPECT_EQ(index.num_points(), 1u);
  std::vector<PointId> out;
  index.Query(Subspace{0}, &out);
  EXPECT_EQ(out, std::vector<PointId>{3});
}

TEST(SubsetIndexEdgeTest, SinglePivotIsReturnedByEveryQuery) {
  // A Merge pivot is registered as an always-candidate: the root-stored
  // id must come back for every probe, from empty to full.
  SubsetIndex index(6);
  index.AddAlwaysCandidate(42);
  EXPECT_EQ(index.num_points(), 1u);
  EXPECT_EQ(index.num_nodes(), 0u);  // root is not counted
  for (std::uint64_t bits = 0; bits < 64; ++bits) {
    std::vector<PointId> out;
    index.Query(Subspace(bits), &out);
    EXPECT_EQ(out, std::vector<PointId>{42}) << "bits=" << bits;
  }
}

TEST(SubsetIndexEdgeTest, SingleStoredSubspaceFiltersByQuerySide) {
  SubsetIndex index(4);
  index.Add(7, Subspace{1, 3});
  std::vector<PointId> out;
  index.Query(Subspace{1}, &out);  // {1} subset of {1,3}: hit
  EXPECT_EQ(out, std::vector<PointId>{7});
  out.clear();
  index.Query(Subspace{0}, &out);  // {0} not subset: miss
  EXPECT_TRUE(out.empty());
  out.clear();
  index.Query(Subspace{1, 3}, &out);  // exact: hit
  EXPECT_EQ(out, std::vector<PointId>{7});
  out.clear();
  index.Query(Subspace{0, 1, 3}, &out);  // proper superset: miss
  EXPECT_TRUE(out.empty());
  out.clear();
  index.QueryContained(Subspace{0, 1, 3}, &out);  // superset probe: hit
  EXPECT_EQ(out, std::vector<PointId>{7});
  out.clear();
  index.QueryContained(Subspace{1}, &out);  // subset probe: miss
  EXPECT_TRUE(out.empty());
}

TEST(SubsetIndexEdgeTest, SingleEntryRemoveRoundTrip) {
  SubsetIndex index(4);
  index.Add(9, Subspace{0, 2});
  EXPECT_FALSE(index.Remove(9, Subspace{0, 1}));  // wrong subspace
  EXPECT_FALSE(index.Remove(8, Subspace{0, 2}));  // wrong id
  EXPECT_TRUE(index.Remove(9, Subspace{0, 2}));
  EXPECT_EQ(index.num_points(), 0u);
  std::vector<PointId> out;
  index.Query(Subspace{}, &out);
  EXPECT_TRUE(out.empty());
  // Removing the last entry of a path reclaims the emptied nodes, so a
  // long add/remove stream cannot leak tree structure.
  EXPECT_EQ(index.num_nodes(), 0u);
  index.Add(9, Subspace{0, 2});
  EXPECT_EQ(index.num_nodes(), 2u);  // reversed path {1,3} re-created
  EXPECT_EQ(index.num_points(), 1u);
}

TEST(SubsetIndexReclaimTest, RemoveReclaimsOnlyUnsharedNodes) {
  SubsetIndex index(8);
  // Reversed paths {0,1} and {0,2} share the prefix node 0.
  index.Add(1, Subspace({0, 1}).Complement(8));
  index.Add(2, Subspace({0, 2}).Complement(8));
  ASSERT_EQ(index.num_nodes(), 3u);
  EXPECT_TRUE(index.Remove(1, Subspace({0, 1}).Complement(8)));
  // Node 0->1 dies with its last point; the shared prefix 0 and node
  // 0->2 stay alive.
  EXPECT_EQ(index.num_nodes(), 2u);
  EXPECT_TRUE(index.Remove(2, Subspace({0, 2}).Complement(8)));
  EXPECT_EQ(index.num_nodes(), 0u);
  EXPECT_EQ(index.num_points(), 0u);
}

TEST(SubsetIndexReclaimTest, RemoveKeepsNodesWithRemainingPoints) {
  SubsetIndex index(6);
  index.Add(1, Subspace{2, 4});
  index.Add(2, Subspace{2, 4});  // same path, two points
  const std::size_t nodes = index.num_nodes();
  EXPECT_TRUE(index.Remove(1, Subspace{2, 4}));
  EXPECT_EQ(index.num_nodes(), nodes);  // node still holds id 2
  EXPECT_TRUE(index.Remove(2, Subspace{2, 4}));
  EXPECT_EQ(index.num_nodes(), 0u);
}

TEST(SubsetIndexReclaimTest, RemoveKeepsInteriorNodesWithLiveChildren) {
  SubsetIndex index(8);
  // Reversed path {1} is a prefix of reversed path {1,3}.
  index.Add(1, Subspace({1}).Complement(8));
  index.Add(2, Subspace({1, 3}).Complement(8));
  ASSERT_EQ(index.num_nodes(), 2u);
  // Removing the interior entry must not drop the node: its child is
  // still reachable.
  EXPECT_TRUE(index.Remove(1, Subspace({1}).Complement(8)));
  EXPECT_EQ(index.num_nodes(), 2u);
  std::vector<PointId> out;
  index.Query(Subspace{}, &out);
  EXPECT_EQ(out, std::vector<PointId>{2});
  EXPECT_TRUE(index.Remove(2, Subspace({1, 3}).Complement(8)));
  EXPECT_EQ(index.num_nodes(), 0u);
}

TEST(SubsetIndexReclaimTest, InterleavedOpsKeepAccountingAndNeverResurrect) {
  // Random Add/Remove/MergeFrom/QueryContained interleaving, with an
  // exact node-count oracle (distinct non-empty prefixes of the live
  // reversed paths) and the guarantee that a removed id never reappears
  // in either query direction. Runs the SKYLINE_CHECKS shadow oracle in
  // checked builds.
  const Dim d = 10;
  const std::uint64_t space = Subspace::Full(d).bits();
  std::mt19937_64 rng(97);
  SubsetIndex index(d);
  std::vector<std::pair<PointId, std::uint64_t>> live;
  PointId next_id = 0;

  const auto expected_nodes = [&] {
    std::set<std::uint64_t> prefixes;
    for (const auto& [id, bits] : live) {
      (void)id;
      std::uint64_t prefix = 0;
      Subspace(bits).Complement(d).ForEachDim([&](Dim dim) {
        prefix |= std::uint64_t{1} << dim;
        prefixes.insert(prefix);
      });
    }
    return prefixes.size();
  };

  for (int step = 0; step < 600; ++step) {
    switch (rng() % 4) {
      case 0: {  // Add
        const Subspace mask(rng() & space);
        index.Add(next_id, mask);
        live.emplace_back(next_id, mask.bits());
        ++next_id;
        break;
      }
      case 1: {  // Remove a live entry
        if (live.empty()) break;
        const std::size_t pick = rng() % live.size();
        ASSERT_TRUE(index.Remove(live[pick].first, Subspace(live[pick].second)));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        break;
      }
      case 2: {  // MergeFrom a small batch built on the side
        SubsetIndex batch(d);
        const int batch_size = static_cast<int>(rng() % 4);
        for (int i = 0; i < batch_size; ++i) {
          const Subspace mask(rng() & space);
          batch.Add(next_id, mask);
          live.emplace_back(next_id, mask.bits());
          ++next_id;
        }
        index.MergeFrom(std::move(batch));
        break;
      }
      case 3: {  // QueryContained vs linear subset scan
        const Subspace probe(rng() & space);
        std::vector<PointId> got, want;
        index.QueryContained(probe, &got);
        for (const auto& [id, bits] : live) {
          if (Subspace(bits).IsSubsetOf(probe)) want.push_back(id);
        }
        ASSERT_EQ(Sorted(got), Sorted(want)) << "step " << step;
        break;
      }
    }
    ASSERT_EQ(index.num_points(), live.size()) << "step " << step;
    ASSERT_EQ(index.num_nodes(), expected_nodes()) << "step " << step;
  }

  // Drain everything: removed ids must never come back, node count must
  // reach exactly zero (full reclamation).
  while (!live.empty()) {
    const auto [id, bits] = live.back();
    live.pop_back();
    ASSERT_TRUE(index.Remove(id, Subspace(bits)));
    std::vector<PointId> got;
    index.Query(Subspace{}, &got);  // weakest probe returns every stored id
    EXPECT_EQ(std::count(got.begin(), got.end(), id),
              static_cast<std::ptrdiff_t>(
                  std::count_if(live.begin(), live.end(),
                                [&](const auto& e) { return e.first == id; })));
  }
  EXPECT_EQ(index.num_nodes(), 0u);
  EXPECT_EQ(index.num_points(), 0u);
}

}  // namespace
}  // namespace skyline


// Tests of the benchmark's own code: percentile ranks, span self time,
// schedule determinism and the epoch oracle.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "perfbench/src/oracle.h"
#include "perfbench/src/schedule.h"
#include "perfbench/src/trace.h"
#include "src/query/query_service.h"

namespace perfbench {
namespace {

TEST(PercentileTest, CeilRankOnSortedSamples) {
  std::vector<double> five = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(five, 0), 1);    // rank clamps up to 1
  EXPECT_EQ(Percentile(five, 20), 1);   // ceil(1.0) = 1
  EXPECT_EQ(Percentile(five, 21), 2);   // ceil(1.05) = 2
  EXPECT_EQ(Percentile(five, 50), 3);   // ceil(2.5) = 3
  EXPECT_EQ(Percentile(five, 100), 5);

  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_EQ(Percentile(hundred, 99), 99);
  EXPECT_EQ(Percentile(hundred, 50), 50);

  // 200 samples: p95 is rank 190, ten samples beyond it.
  std::vector<double> two_hundred;
  for (int i = 1; i <= 200; ++i) two_hundred.push_back(i);
  EXPECT_EQ(Percentile(two_hundred, 95), 190);

  std::vector<double> one = {7.5};
  EXPECT_EQ(Percentile(one, 99), 7.5);
  std::vector<double> none;
  EXPECT_EQ(Percentile(none, 50), 0);
}

Span S(std::int64_t start, std::int64_t end) {
  return Span{"s", 1, -1, start, end};
}

TEST(SelfTimeTest, NoChildrenIsTheDuration) {
  EXPECT_EQ(SelfTime(S(10, 110), {}), 100);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // [10,30] and [20,50] overlap: together they cover 40, not 50.
  EXPECT_EQ(SelfTime(S(0, 100), {S(10, 30), S(20, 50)}), 60);
  // A child nested inside another adds nothing.
  EXPECT_EQ(SelfTime(S(0, 100), {S(10, 60), S(20, 30)}), 50);
  // Identical children count once.
  EXPECT_EQ(SelfTime(S(0, 100), {S(40, 70), S(40, 70)}), 70);
}

TEST(SelfTimeTest, ChildrenAreClippedToTheParent) {
  // [-5,5] covers 5 inside, [90,120] covers 10, [200,300] none.
  EXPECT_EQ(SelfTime(S(0, 100), {S(-5, 5), S(90, 120), S(200, 300)}), 85);
  EXPECT_EQ(SelfTime(S(0, 100), {S(-10, 200)}), 0);
}

TEST(SelfTimeTest, TracerUsesParentLinks) {
  Tracer t;
  const int root = t.Record("root", 7, -1, 0, 100);
  t.Record("child", 7, root, 10, 40);
  t.Record("child", 7, root, 30, 60);
  const int other = t.Record("root", 8, -1, 0, 10);
  const std::vector<std::int64_t> self = t.SelfTimes();
  EXPECT_EQ(self[root], 50);
  EXPECT_EQ(self[other], 10);
  EXPECT_DOUBLE_EQ(t.SelfMillis("child"), 60 / 1e6);
  EXPECT_DOUBLE_EQ(t.SelfMillis("root"), 60 / 1e6);
}

bool SameOps(const std::vector<Op>& a, const std::vector<Op>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].due != b[i].due ||
        a[i].v != b[i].v || a[i].inserts != b[i].inserts ||
        a[i].removes != b[i].removes || a[i].check != b[i].check ||
        a[i].warmup != b[i].warmup) {
      return false;
    }
  }
  return true;
}

Schedule Build(const char* name, std::uint64_t seed, int seconds) {
  return BuildSchedule(*FindWorkload(name), seed, seconds);
}

TEST(ScheduleTest, SameSeedGivesIdenticalOps) {
  for (const char* name : {"zipf-read", "ac-uniform"}) {
    const Schedule a = Build(name, 42, 3);
    const Schedule b = Build(name, 42, 3);
    EXPECT_TRUE(SameOps(a.window, b.window)) << name;
    EXPECT_TRUE(SameOps(a.tail, b.tail)) << name;
    EXPECT_EQ(a.probes, b.probes) << name;
    const Schedule c = Build(name, 43, 3);
    EXPECT_FALSE(SameOps(a.window, c.window)) << name;
    EXPECT_FALSE(SameOps(a.tail, c.tail)) << name;
    EXPECT_NE(a.probes, c.probes) << name;
  }
}

TEST(ScheduleTest, ReadWindowThenWriteTailThenProbes) {
  const WorkloadSpec& spec = *FindWorkload("zipf-read");
  const Schedule s = BuildSchedule(spec, 7, 3);

  // Ten bursts a second over the warm-up and the 3 measured seconds,
  // `burst` queries each, all due at the burst.
  const std::size_t warmup_bursts = kWarmup / kBurstInterval;
  ASSERT_EQ(s.window.size(), (warmup_bursts + 30) * spec.burst);
  std::set<std::uint64_t> queried, checked;
  for (std::size_t i = 0; i < s.window.size(); ++i) {
    const Op& op = s.window[i];
    EXPECT_EQ(op.kind, Op::Kind::kQuery);
    EXPECT_EQ(op.due, static_cast<int>(i / spec.burst) * kBurstInterval);
    EXPECT_EQ(op.warmup, i < warmup_bursts * spec.burst);
    queried.insert(op.v.bits());
    if (op.check) checked.insert(op.v.bits());
  }
  EXPECT_EQ(queried, checked);  // every cuboid's first query is checked

  // Every update removes one initial point, never the same one twice.
  ASSERT_EQ(s.tail.size(), kTailUpdates);
  std::set<PointId> removed;
  for (const Op& op : s.tail) {
    EXPECT_EQ(op.kind, Op::Kind::kUpdate);
    EXPECT_EQ(op.inserts.size(), kInsertsPerUpdate * kDims);
    ASSERT_EQ(op.removes.size(), 1u);
    EXPECT_LT(op.removes[0], spec.n);
    EXPECT_TRUE(removed.insert(op.removes[0]).second) << "removed twice";
  }

  // The full space, the window's last distinct cuboids (newest first,
  // up to the cache's 64), then kProbeSample more, each once.
  const std::size_t cached = skyline::QueryServiceOptions().max_entries;
  ASSERT_EQ(s.probes.size(), 1 + cached + kProbeSample);
  EXPECT_EQ(s.probes[0], Subspace::Full(kDims));
  EXPECT_EQ(s.probes[1], s.window.back().v);
  std::set<std::uint64_t> probed;
  for (Subspace v : s.probes) {
    EXPECT_FALSE(v.empty());
    EXPECT_TRUE(probed.insert(v.bits()).second) << "probed twice";
  }
}

TEST(EpochOracleTest, RebuildsEachEpochFromTheUpdateLog) {
  // Minimization in 2-D padded to kDims columns of zeros.
  auto row = [](Value x, Value y) {
    std::vector<Value> r(kDims, 0.0);
    r[0] = x;
    r[1] = y;
    return r;
  };
  std::vector<Value> values;
  for (const auto& r : {row(1, 3), row(2, 2), row(3, 1), row(1, 4)}) {
    values.insert(values.end(), r.begin(), r.end());
  }
  const skyline::Dataset initial(kDims, values);
  Op first;  // epoch 1: insert (0.5, 0.5) as id 4, remove id 1
  first.kind = Op::Kind::kUpdate;
  first.inserts = row(0.5, 0.5);
  first.removes = {1};
  Op second;  // epoch 2: remove id 0
  second.kind = Op::Kind::kUpdate;
  second.removes = {0};
  const EpochOracle oracle(initial, {&first, &second});

  EXPECT_EQ(oracle.LiveIds(0), (std::vector<PointId>{0, 1, 2, 3}));
  EXPECT_EQ(oracle.LiveIds(1), (std::vector<PointId>{0, 2, 3, 4}));
  EXPECT_EQ(oracle.LiveIds(2), (std::vector<PointId>{2, 3, 4}));

  const Subspace xy({0, 1});
  EXPECT_EQ(oracle.Skyline(xy, 0), (std::vector<PointId>{0, 1, 2}));
  EXPECT_EQ(oracle.Skyline(xy, 1), (std::vector<PointId>{4}));
  EXPECT_EQ(oracle.Skyline(xy, 2), (std::vector<PointId>{4}));
  // Ids 0 and 3 tie on x: both are in its skyline.
  EXPECT_EQ(oracle.Skyline(Subspace({0}), 0), (std::vector<PointId>{0, 3}));
  EXPECT_EQ(oracle.Skyline(Subspace({1}), 0), (std::vector<PointId>{2}));
}

}  // namespace
}  // namespace perfbench

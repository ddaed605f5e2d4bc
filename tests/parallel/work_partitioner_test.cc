#include "src/parallel/work_partitioner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace skyline {
namespace {

TEST(WorkPartitionerTest, PartitionCountDependsOnInputSizeOnly) {
  EXPECT_EQ(DeterministicPartitionCount(0), 1u);
  EXPECT_EQ(DeterministicPartitionCount(1), 1u);
  EXPECT_EQ(DeterministicPartitionCount(256), 1u);
  EXPECT_EQ(DeterministicPartitionCount(257), 2u);
  EXPECT_EQ(DeterministicPartitionCount(1000000), 32u);  // capped
  // Monotone non-decreasing.
  std::size_t prev = 0;
  for (std::size_t n = 0; n < 20000; n += 97) {
    const std::size_t p = DeterministicPartitionCount(n);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(WorkPartitionerTest, EffectiveWorkersClamps) {
  EXPECT_EQ(EffectiveWorkers(4, 10), 4u);
  EXPECT_EQ(EffectiveWorkers(16, 3), 3u);
  EXPECT_GE(EffectiveWorkers(0, 100), 1u);  // hardware concurrency
  EXPECT_EQ(EffectiveWorkers(7, 0), 1u);
}

TEST(WorkPartitionerTest, EveryUnitRunsExactlyOnce) {
  for (unsigned workers : {1u, 2u, 5u, 16u}) {
    const std::size_t units = 137;
    std::vector<std::atomic<int>> hits(units);
    WorkerTeam team(EffectiveWorkers(workers, units));
    team.ForEachUnit(units, [&](std::size_t u) { hits[u].fetch_add(1); });
    for (std::size_t u = 0; u < units; ++u) {
      EXPECT_EQ(hits[u].load(), 1) << "unit " << u << " workers " << workers;
    }
  }
}

TEST(WorkPartitionerTest, ZeroUnitsIsANoOp) {
  bool called = false;
  WorkerTeam team(8);
  team.ForEachUnit(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(WorkPartitionerTest, ThrowingUnitIsRethrownOnTheCallingThread) {
  for (unsigned workers : {1u, 4u}) {
    std::atomic<int> ran{0};
    WorkerTeam team(workers);
    EXPECT_THROW(team.ForEachUnit(64,
                                  [&](std::size_t u) {
                                    ran.fetch_add(1);
                                    if (u == 5) {
                                      throw std::runtime_error("unit 5");
                                    }
                                  }),
                 std::runtime_error)
        << "workers " << workers;
    EXPECT_GE(ran.load(), 1);
  }
}

TEST(WorkerTeamTest, ReusesItsThreadsAcrossPhases) {
  const std::uint64_t before = WorkerTeam::threads_started();
  WorkerTeam team(4);
  EXPECT_EQ(WorkerTeam::threads_started() - before, 3u);  // plus the owner
  std::vector<int> hits(50, 0);
  for (int phase = 0; phase < 20; ++phase) {
    team.ForEachUnit(hits.size(), [&](std::size_t u) { ++hits[u]; });
  }
  for (int h : hits) EXPECT_EQ(h, 20);
  // No phase started a thread of its own.
  EXPECT_EQ(WorkerTeam::threads_started() - before, 3u);
}

TEST(WorkerTeamTest, PhaseSeesTheOwnersWritesAndOwnerSeesThePhases) {
  // Alternating serial and parallel steps, the shape of a block scan:
  // each phase reads the value the owner wrote just before it, and the
  // owner reads every unit's slot right after it.
  WorkerTeam team(3);
  std::vector<long> slots(40, 0);
  long value = 0;
  for (int phase = 1; phase <= 30; ++phase) {
    value = phase;
    team.ForEachUnit(slots.size(),
                     [&](std::size_t u) { slots[u] = value * 100 + long(u); });
    for (std::size_t u = 0; u < slots.size(); ++u) {
      ASSERT_EQ(slots[u], phase * 100 + long(u)) << "phase " << phase;
    }
  }
}

TEST(WorkerTeamTest, ThrowingUnitIsRethrownAndTheTeamStaysUsable) {
  WorkerTeam team(4);
  EXPECT_THROW(team.ForEachUnit(100,
                                [](std::size_t u) {
                                  if (u % 7 == 3) {
                                    throw std::runtime_error("unit");
                                  }
                                }),
               std::runtime_error);
  std::vector<std::atomic<int>> hits(100);
  team.ForEachUnit(hits.size(), [&](std::size_t u) { hits[u].fetch_add(1); });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerTeamTest, SingleMemberRunsInlineAndZeroUnitsIsANoOp) {
  const std::uint64_t before = WorkerTeam::threads_started();
  WorkerTeam team(0);
  const std::thread::id owner = std::this_thread::get_id();
  bool inline_only = true;
  team.ForEachUnit(10, [&](std::size_t) {
    inline_only = inline_only && std::this_thread::get_id() == owner;
  });
  EXPECT_TRUE(inline_only);
  bool called = false;
  team.ForEachUnit(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(WorkerTeam::threads_started(), before);
}

}  // namespace
}  // namespace skyline

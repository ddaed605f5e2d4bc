#include "src/core/contracts.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/core/dataset.h"
#include "src/core/stats.h"
#include "src/core/subspace.h"
#include "src/query/query_service.h"
#include "src/subset/merge.h"

namespace skyline {
namespace {

TEST(ContractsTest, PassingChecksAreSilent) {
  SKYLINE_ASSERT(1 + 1 == 2, "arithmetic still works");
  SKYLINE_DCHECK(true, "never fires");
  SUCCEED();
}

TEST(ContractsTest, MacrosEvaluateConditionAtMostOnce) {
  int evaluations = 0;
  SKYLINE_ASSERT([&] {
    ++evaluations;
    return true;
  }(), "side effect counted");
  EXPECT_LE(evaluations, 1);
}

TEST(ContractsDeathTest, ContractViolationAlwaysAborts) {
  EXPECT_DEATH(SKYLINE_CONTRACT_VIOLATION("unreachable state reached"),
               "contract violation");
}

TEST(ContractsDeathTest, AssertAbortsWhenEnabled) {
  if (!kSkylineAsserts) GTEST_SKIP() << "SKYLINE_ASSERT compiled out";
  EXPECT_DEATH(SKYLINE_ASSERT(false, "must die"), "assertion failed");
}

TEST(ContractsDeathTest, DeepCheckAbortsWhenEnabled) {
  if (!kSkylineDeepChecks) GTEST_SKIP() << "SKYLINE_DCHECK compiled out";
  EXPECT_DEATH(SKYLINE_DCHECK(false, "must die"), "deep check failed");
}

TEST(ContractsDeathTest, SubspaceBoundsAreEnforced) {
  if (!kSkylineAsserts) GTEST_SKIP() << "SKYLINE_ASSERT compiled out";
  const Dim oversized = Subspace::kMaxDims + 1;
  EXPECT_DEATH(Subspace::Full(oversized), "kMaxDims");
  EXPECT_DEATH(Subspace::Single(Subspace::kMaxDims), "kMaxDims");
  EXPECT_DEATH(Subspace{}.Lowest(), "empty");
}

TEST(ContractsDeathTest, DatasetBoundsAreEnforced) {
  if (!kSkylineAsserts) GTEST_SKIP() << "SKYLINE_ASSERT compiled out";
  const Dataset data = Dataset::FromRows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DEATH(data.row(2), "out of range");
  EXPECT_DEATH(data.at(0, 2), "out of range");
}

TEST(ContractsDeathTest, MergeRejectsNonPositiveSigma) {
  if (!kSkylineAsserts) GTEST_SKIP() << "SKYLINE_ASSERT compiled out";
  const Dataset data = Dataset::FromRows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DEATH(MergeSubspaces(data, 0), "sigma");
}

TEST(ContractsDeathTest, QueryServiceRejectsMalformedSubspaces) {
  // Subspaces are caller input: checked in every build type, so this
  // test never skips.
  const Dataset data = Dataset::FromRows({{1.0, 2.0}, {2.0, 1.0}, {3.0, 3.0}});
  QueryService service(data);
  const Subspace outside = Subspace::Single(40);
  std::vector<PointId> ids;
  Subspace ancestor;
  StaleAnswer answer;
  EXPECT_DEATH(service.Query(Subspace()), "outside the dataset's space");
  EXPECT_DEATH(service.Query(outside), "outside the dataset's space");
  EXPECT_DEATH(service.PeekExact(outside, &ids), "PeekExact");
  EXPECT_DEATH(service.PeekNearestAncestor(Subspace(), &ancestor, &ids),
               "PeekNearestAncestor");
  EXPECT_DEATH(service.PeekStale(Subspace{0, 2}, &answer), "PeekStale");
}

TEST(ContractsDeathTest, StatsSlotBoundsAreEnforced) {
  if (!kSkylineAsserts) GTEST_SKIP() << "SKYLINE_ASSERT compiled out";
  StatsAccumulator acc(2);
  EXPECT_DEATH(acc.slot(2), "out of range");
}

}  // namespace
}  // namespace skyline

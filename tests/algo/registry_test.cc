#include "src/algo/registry.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace skyline {
namespace {

TEST(RegistryTest, MakesEveryRegisteredAlgorithm) {
  for (const std::string& name : AlgorithmNames()) {
    auto algo = MakeAlgorithm(name);
    ASSERT_NE(algo, nullptr) << name;
    EXPECT_EQ(algo->name(), name);
  }
}

TEST(RegistryTest, UnknownNameReturnsNull) {
  EXPECT_EQ(MakeAlgorithm("nope"), nullptr);
  EXPECT_EQ(MakeAlgorithm(""), nullptr);
  EXPECT_EQ(MakeAlgorithm("SFS"), nullptr) << "names are case-sensitive";
}

// The exact list in presentation order, not just a count: a renamed or
// reordered entry changes every registry-parameterised test name.
TEST(RegistryTest, FifteenAlgorithms) {
  const std::vector<std::string> expected = {
      "bnl",        "sfs",          "less",         "salsa",
      "sdi",        "index",        "dnc",          "bbs",
      "bskytree-s", "bskytree-p",   "sfs-subset",   "salsa-subset",
      "sdi-subset", "parallel-sfs", "parallel-subset-sfs"};
  EXPECT_EQ(AlgorithmNames(), expected);
}

TEST(RegistryTest, BoostedPairsReferToRegisteredNames) {
  for (const auto& [base, boosted] : BoostedPairs()) {
    EXPECT_NE(MakeAlgorithm(base), nullptr) << base;
    EXPECT_NE(MakeAlgorithm(boosted), nullptr) << boosted;
    EXPECT_EQ(boosted, base + "-subset");
  }
}

TEST(RegistryTest, OptionsArePassedThrough) {
  AlgorithmOptions options;
  options.sigma = 5;
  auto algo = MakeAlgorithm("sdi-subset", options);
  ASSERT_NE(algo, nullptr);
  // Indirect check: the algorithm is constructible and runnable with
  // custom options.
  Dataset data = Dataset::FromRows({{1, 2, 3}, {3, 2, 1}, {2, 2, 2}});
  EXPECT_EQ(algo->Compute(data).size(), 3u);
}

TEST(RegistryTest, EffectiveSigmaRule) {
  // Explicit sigma wins; otherwise round(d/3) clamped to [2, d] (and to
  // [1, 1] for d = 1).
  EXPECT_EQ(SkylineAlgorithm::EffectiveSigma(7, 4), 7);
  EXPECT_EQ(SkylineAlgorithm::EffectiveSigma(0, 8), 3);
  EXPECT_EQ(SkylineAlgorithm::EffectiveSigma(0, 12), 4);
  EXPECT_EQ(SkylineAlgorithm::EffectiveSigma(0, 24), 8);
  EXPECT_EQ(SkylineAlgorithm::EffectiveSigma(0, 2), 2);
  EXPECT_EQ(SkylineAlgorithm::EffectiveSigma(0, 4), 2);
  EXPECT_EQ(SkylineAlgorithm::EffectiveSigma(0, 1), 1);
}

}  // namespace
}  // namespace skyline

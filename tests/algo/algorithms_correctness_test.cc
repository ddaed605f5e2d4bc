// Cross-algorithm correctness: every registered algorithm must produce
// exactly the reference skyline on a grid of (data type, dimensionality,
// cardinality, seed) configurations, plus structured edge cases. Both
// input sets live in the shared catalog (tests/support/input_catalog.h).
#include <gtest/gtest.h>

#include <ostream>

#include "src/algo/registry.h"
#include "src/core/verify.h"
#include "tests/support/input_catalog.h"

namespace skyline {
namespace {

struct Config {
  std::string algorithm;
  GridInput input;

  friend std::ostream& operator<<(std::ostream& out, const Config& c) {
    return out << c.algorithm << "_" << c.input;
  }
};

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  std::ostringstream out;
  out << info.param;
  std::string name = out.str();
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class AlgorithmCorrectnessTest : public ::testing::TestWithParam<Config> {};

TEST_P(AlgorithmCorrectnessTest, MatchesReferenceSkyline) {
  const Config& c = GetParam();
  auto algo = MakeAlgorithm(c.algorithm);
  ASSERT_NE(algo, nullptr);
  Dataset data = c.input.Make();
  SkylineStats stats;
  std::vector<PointId> result = algo->Compute(data, &stats);
  EXPECT_EQ(stats.skyline_size, result.size());
  EXPECT_TRUE(IsSkylineOf(data, result))
      << c.algorithm << " returned a wrong skyline";
}

std::vector<Config> MakeGrid() {
  std::vector<Config> grid;
  for (const std::string& name : AlgorithmNames()) {
    for (const GridInput& input : RegistryGrid()) {
      grid.push_back({name, input});
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(Grid, AlgorithmCorrectnessTest,
                         ::testing::ValuesIn(MakeGrid()), ConfigName);

// ---- Structured edge cases, run for every algorithm. ----

class AlgorithmEdgeCaseTest : public ::testing::TestWithParam<std::string> {
 protected:
  void ExpectCorrect(const Dataset& data) {
    auto algo = MakeAlgorithm(GetParam());
    ASSERT_NE(algo, nullptr);
    EXPECT_TRUE(IsSkylineOf(data, algo->Compute(data)))
        << GetParam() << " failed";
  }
};

TEST_P(AlgorithmEdgeCaseTest, EmptyDataset) {
  auto algo = MakeAlgorithm(GetParam());
  ASSERT_NE(algo, nullptr);
  EXPECT_TRUE(algo->Compute(NamedInput("EmptyDataset")).empty());
}

TEST_P(AlgorithmEdgeCaseTest, SinglePoint) {
  ExpectCorrect(NamedInput("SinglePoint"));
}

TEST_P(AlgorithmEdgeCaseTest, AllPointsEqual) {
  ExpectCorrect(NamedInput("AllPointsEqual"));
}

TEST_P(AlgorithmEdgeCaseTest, DuplicateSkylineAndDominatedPoints) {
  ExpectCorrect(NamedInput("DuplicateSkylineAndDominatedPoints"));
}

TEST_P(AlgorithmEdgeCaseTest, TotallyOrderedChain) {
  ExpectCorrect(NamedInput("TotallyOrderedChain"));
}

TEST_P(AlgorithmEdgeCaseTest, EverythingIncomparable) {
  ExpectCorrect(NamedInput("EverythingIncomparable"));
}

TEST_P(AlgorithmEdgeCaseTest, OneDominatorPrunesEverything) {
  ExpectCorrect(NamedInput("OneDominatorPrunesEverything"));
}

TEST_P(AlgorithmEdgeCaseTest, SharedCoordinatesTieHandling) {
  ExpectCorrect(NamedInput("SharedCoordinatesTieHandling"));
}

TEST_P(AlgorithmEdgeCaseTest, ZeroValuedPoints) {
  ExpectCorrect(NamedInput("ZeroValuedPoints"));
}

TEST_P(AlgorithmEdgeCaseTest, SixteenDimensions) {
  ExpectCorrect(NamedInput("SixteenDimensions"));
}

TEST_P(AlgorithmEdgeCaseTest, TwentyFourDimensions) {
  ExpectCorrect(NamedInput("TwentyFourDimensions"));
}

TEST_P(AlgorithmEdgeCaseTest, NegativeValues) {
  ExpectCorrect(NamedInput("NegativeValues"));
}

TEST_P(AlgorithmEdgeCaseTest, QuantizedHeavyDuplicates) {
  ExpectCorrect(NamedInput("QuantizedHeavyDuplicates"));
}

std::string StripDashes(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmEdgeCaseTest,
                         ::testing::ValuesIn(AlgorithmNames()), StripDashes);

}  // namespace
}  // namespace skyline

// Adversarial data shapes, run against every registered algorithm: value
// distributions and geometric patterns that historically break skyline
// implementations (clustered data, exponential tails, dominance chains
// interleaved with anti-chains, single-dimension deciders, constant
// dimensions). The shapes live in the shared catalog
// (tests/support/input_catalog.h).
#include <gtest/gtest.h>

#include "src/algo/registry.h"
#include "src/core/verify.h"
#include "tests/support/input_catalog.h"

namespace skyline {
namespace {

class AdversarialTest : public ::testing::TestWithParam<std::string> {
 protected:
  void ExpectCorrect(const Dataset& data) {
    auto algo = MakeAlgorithm(GetParam());
    ASSERT_NE(algo, nullptr);
    EXPECT_TRUE(IsSkylineOf(data, algo->Compute(data))) << GetParam();
  }
};

TEST_P(AdversarialTest, ExponentialTails) {
  ExpectCorrect(NamedInput("ExponentialTails"));
}

TEST_P(AdversarialTest, TightClusters) {
  ExpectCorrect(NamedInput("TightClusters"));
}

TEST_P(AdversarialTest, ChainsInterleavedWithAntiChain) {
  ExpectCorrect(NamedInput("ChainsInterleavedWithAntiChain"));
}

TEST_P(AdversarialTest, OneDecidingDimension) {
  ExpectCorrect(NamedInput("OneDecidingDimension"));
}

TEST_P(AdversarialTest, MirroredPairsOnTwoDims) {
  ExpectCorrect(NamedInput("MirroredPairsOnTwoDims"));
}

TEST_P(AdversarialTest, VeryCloseButUnequalValues) {
  ExpectCorrect(NamedInput("VeryCloseButUnequalValues"));
}

std::string StripDashes2(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AdversarialTest,
                         ::testing::ValuesIn(AlgorithmNames()), StripDashes2);

}  // namespace
}  // namespace skyline

// The paper's lemmas as executable properties on random data. These pin
// down the theory the subset approach rests on: if any of these fail,
// the index-based candidate filtering would be unsound.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "src/core/dominance.h"
#include "src/core/verify.h"
#include "src/data/generator.h"
#include "src/subset/merge.h"

namespace skyline {
namespace {

struct LemmaCase {
  DataType type;
  std::uint64_t seed;
};

// The case's name, e.g. "AC_seed1". It also replaces gtest's default
// printout, which dumps the struct's bytes, padding included, into the
// test names that ctest registers.
std::string CaseName(const LemmaCase& c) {
  return std::string(ShortName(c.type)) + "_seed" + std::to_string(c.seed);
}
void PrintTo(const LemmaCase& c, std::ostream* os) { *os << CaseName(c); }

class LemmaTest : public ::testing::TestWithParam<LemmaCase> {
 protected:
  void SetUp() override {
    data_ = Generate(GetParam().type, 400, 5, GetParam().seed);
    d_ = data_.num_dims();
    skyline_ = ReferenceSkyline(data_);
  }

  bool Dom(PointId a, PointId b) const {
    return Dominates(data_.row(a), data_.row(b), d_);
  }

  Subspace DomSub(PointId q, PointId p) const {
    return DominatingSubspace(data_.row(q), data_.row(p), d_);
  }

  Dataset data_{1};
  Dim d_ = 0;
  std::vector<PointId> skyline_;
};

// Lemma 3.5: for a skyline point p and points q1 != q2 not dominated by
// p, subset-incomparable dominating subspaces imply point incomparability.
TEST_P(LemmaTest, Lemma35SubsetIncomparabilityImpliesPointIncomparability) {
  const PointId p = skyline_.front();
  for (PointId q1 = 0; q1 < data_.num_points(); ++q1) {
    if (q1 == p || Dom(p, q1)) continue;
    for (PointId q2 = q1 + 1; q2 < data_.num_points(); ++q2) {
      if (q2 == p || Dom(p, q2)) continue;
      const Subspace s1 = DomSub(q1, p);
      const Subspace s2 = DomSub(q2, p);
      if (!s1.IsSubsetOf(s2) && !s2.IsSubsetOf(s1)) {
        ASSERT_FALSE(Dom(q1, q2));
        ASSERT_FALSE(Dom(q2, q1));
      }
    }
  }
}

// Lemma 3.6: D_{q1<p} not superset of D_{q2<p} implies q1 does not
// dominate q2.
TEST_P(LemmaTest, Lemma36SupersetIsNecessaryForDominance) {
  const PointId p = skyline_.front();
  for (PointId q1 = 0; q1 < data_.num_points(); ++q1) {
    if (q1 == p || Dom(p, q1)) continue;
    for (PointId q2 = 0; q2 < data_.num_points(); ++q2) {
      if (q2 == p || q2 == q1 || Dom(p, q2)) continue;
      if (!DomSub(q1, p).IsSupersetOf(DomSub(q2, p))) {
        ASSERT_FALSE(Dom(q1, q2));
      }
    }
  }
}

// Lemmas 4.2/4.3: the same statements for *maximum* dominating subspaces
// with respect to a pivot set S, exactly as produced by the Merge pass.
TEST_P(LemmaTest, Lemma42And43ForMaximumDominatingSubspaces) {
  MergeResult merge = MergeSubspaces(data_, 3);
  const auto& ids = merge.remaining;
  const auto& masks = merge.subspaces;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = 0; j < ids.size(); ++j) {
      if (i == j) continue;
      // Lemma 4.3: D_{q1<S} not superset of D_{q2<S} => q1 does not
      // dominate q2.
      if (!masks[i].IsSupersetOf(masks[j])) {
        ASSERT_FALSE(Dom(ids[i], ids[j]))
            << ids[i] << " dominates " << ids[j]
            << " despite mask " << masks[i].ToString() << " !>= "
            << masks[j].ToString();
      }
      // Lemma 4.2 (subset-incomparable masks => incomparable points) is
      // the symmetric consequence; check one direction suffices given the
      // loop covers both orders.
    }
  }
}

// Lemma 5.1 operationalized: for every remaining point q that is NOT a
// skyline point, some skyline dominator carries a superset mask — i.e.
// the index's candidate set always contains a witness.
TEST_P(LemmaTest, Lemma51CandidateSetContainsDominator) {
  MergeResult merge = MergeSubspaces(data_, 3);
  const auto& ids = merge.remaining;
  const auto& masks = merge.subspaces;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const PointId q = ids[i];
    bool is_skyline = false;
    bool witness = false;
    for (PointId s : skyline_) {
      if (s == q) {
        is_skyline = true;
        break;
      }
    }
    if (is_skyline) continue;
    // q is dominated; find a *skyline* dominator among remaining points
    // with a superset mask (pivots cannot dominate q by construction).
    for (std::size_t j = 0; j < ids.size() && !witness; ++j) {
      if (i == j) continue;
      if (Dom(ids[j], q)) {
        bool j_skyline = false;
        for (PointId s : skyline_) {
          if (s == ids[j]) {
            j_skyline = true;
            break;
          }
        }
        if (j_skyline) {
          EXPECT_TRUE(masks[j].IsSupersetOf(masks[i]))
              << "skyline dominator with non-superset mask";
          witness = true;
        }
      }
    }
    EXPECT_TRUE(witness) << "dominated remaining point " << q
                         << " has no skyline dominator among remaining";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LemmaTest,
    ::testing::Values(LemmaCase{DataType::kAntiCorrelated, 1},
                      LemmaCase{DataType::kAntiCorrelated, 2},
                      LemmaCase{DataType::kCorrelated, 1},
                      LemmaCase{DataType::kUniformIndependent, 1},
                      LemmaCase{DataType::kUniformIndependent, 2},
                      LemmaCase{DataType::kUniformIndependent, 3}),
    [](const ::testing::TestParamInfo<LemmaCase>& info) {
      return CaseName(info.param);
    });

}  // namespace
}  // namespace skyline

#include "tests/support/input_catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <utility>

#include "src/data/real_world.h"

namespace skyline {

namespace {

/// Rows kept of each real-world surrogate: enough for the heavy
/// duplication of NBA and WEATHER to show, small enough for a
/// brute-force oracle on every checked cuboid.
constexpr std::size_t kSurrogateRows = 1500;

Dataset SurrogatePrefix(std::string_view name) {
  const Dataset full = MakeRealDataset(name);
  const std::size_t rows = std::min(kSurrogateRows, full.num_points());
  const auto first = full.values().begin();
  return Dataset(full.num_dims(),
                 std::vector<Value>(first, first + rows * full.num_dims()));
}

std::vector<CatalogInput> MakeEdgeCases() {
  return {
      {"EmptyDataset", [] { return Dataset(3); }},
      {"SinglePoint", [] { return Dataset::FromRows({{0.3, 0.7}}); }},
      {"AllPointsEqual",
       [] {
         return Dataset::FromRows(
             {{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}});
       }},
      {"DuplicateSkylineAndDominatedPoints",
       [] {
         return Dataset::FromRows({
             {1, 5},
             {1, 5},  // duplicate skyline point
             {5, 1},
             {5, 1},  // duplicate skyline point
             {5, 5},
             {5, 5},  // duplicate dominated point
             {3, 3},
         });
       }},
      {"TotallyOrderedChain",
       [] {
         return Dataset::FromRows({{4, 4}, {3, 3}, {2, 2}, {1, 1}, {5, 5}});
       }},
      {"EverythingIncomparable",
       [] {
         // A pure anti-chain: each point best in one dimension.
         return Dataset::FromRows({
             {0, 1, 2, 3},
             {3, 0, 1, 2},
             {2, 3, 0, 1},
             {1, 2, 3, 0},
         });
       }},
      {"OneDominatorPrunesEverything",
       [] {
         return Dataset::FromRows(
             {{5, 5}, {6, 7}, {9, 5.5}, {0, 0}, {7, 8}});
       }},
      {"SharedCoordinatesTieHandling",
       [] {
         // Many points share coordinates in single dimensions without
         // being duplicates: stresses tie handling in sorted scans and
         // SDI blocks.
         return Dataset::FromRows({
             {1, 2, 2},
             {1, 2, 3},
             {1, 3, 2},
             {2, 2, 2},
             {2, 1, 3},
             {1, 1, 4},
             {1, 1, 4},
             {3, 1, 1},
             {1, 3, 1},
         });
       }},
      {"ZeroValuedPoints",
       [] {
         return Dataset::FromRows(
             {{0, 0, 0}, {0, 1, 0}, {1, 0, 0}, {0, 0, 1}});
       }},
      {"SixteenDimensions",
       [] { return Generate(DataType::kUniformIndependent, 150, 16, 5); }},
      {"TwentyFourDimensions",
       [] { return Generate(DataType::kAntiCorrelated, 80, 24, 5); }},
      {"NegativeValues",
       [] {
         // Dominance is translation-invariant; the default configuration
         // of every engine must handle negative coordinates.
         Dataset base = Generate(DataType::kUniformIndependent, 400, 4, 21);
         std::vector<Value> values = base.values();
         for (Value& v : values) v -= Value{0.6};
         return Dataset(4, std::move(values));
       }},
      {"QuantizedHeavyDuplicates",
       [] {
         // Integer grid data: every dimension has only 3 distinct values.
         Dataset base = Generate(DataType::kUniformIndependent, 600, 4, 9);
         std::vector<Value> values = base.values();
         for (Value& v : values) v = std::floor(v * 3);
         return Dataset(4, std::move(values));
       }},
  };
}

std::vector<CatalogInput> MakeAdversarialShapes() {
  return {
      {"ExponentialTails",
       [] {
         // Heavy-tailed values: scores span many orders of magnitude,
         // stressing float comparisons in sort orders and stop rules.
         std::mt19937_64 rng(3);
         std::exponential_distribution<Value> exp_dist(1.0);
         std::vector<Value> values(500 * 4);
         for (Value& v : values) v = std::pow(exp_dist(rng), 3.0);
         return Dataset(4, std::move(values));
       }},
      {"TightClusters",
       [] {
         // A few dense clusters: many near-ties within clusters, clear
         // dominance between some cluster pairs.
         std::mt19937_64 rng(5);
         std::normal_distribution<Value> jitter(0, 0.01);
         const Value centers[4][3] = {{0.2, 0.2, 0.8},
                                      {0.8, 0.2, 0.2},
                                      {0.2, 0.8, 0.2},
                                      {0.5, 0.5, 0.5}};
         std::vector<Value> values;
         for (int i = 0; i < 600; ++i) {
           const auto& c = centers[i % 4];
           for (int k = 0; k < 3; ++k) values.push_back(c[k] + jitter(rng));
         }
         return Dataset(3, std::move(values));
       }},
      {"ChainsInterleavedWithAntiChain",
       [] {
         // Half the points form long dominance chains; the other half
         // is a pure anti-chain near the origin-facing diagonal.
         std::vector<Value> values;
         for (int i = 0; i < 200; ++i) {
           const Value v = 1 + static_cast<Value>(i) / 50;
           values.insert(values.end(), {v, v, v});
         }
         for (int i = 0; i < 200; ++i) {
           const Value t = static_cast<Value>(i) / 200;
           values.insert(values.end(),
                         {t, Value{1} - t, Value{0.5} + (i % 2 ? t : -t) / 2});
         }
         return Dataset(3, std::move(values));
       }},
      {"OneDecidingDimension",
       [] {
         // Dimensions 1..3 constant: the skyline is decided by
         // dimension 0 alone, with degenerate tie blocks everywhere
         // else.
         std::mt19937_64 rng(7);
         std::uniform_int_distribution<int> val(0, 99);
         std::vector<Value> values;
         for (int i = 0; i < 400; ++i) {
           values.insert(values.end(),
                         {static_cast<Value>(val(rng)), 5.0, 5.0, 5.0});
         }
         return Dataset(4, std::move(values));
       }},
      {"MirroredPairsOnTwoDims",
       [] {
         // Every point (x, 1-x, ...) has a mirror (1-x, x, ...): a large
         // anti-chain with exact coordinate swaps.
         std::mt19937_64 rng(9);
         std::uniform_real_distribution<Value> uni(0, 1);
         std::vector<Value> values;
         for (int i = 0; i < 300; ++i) {
           const Value x = uni(rng);
           const Value z = uni(rng);
           values.insert(values.end(), {x, Value{1} - x, z});
           values.insert(values.end(), {Value{1} - x, x, z});
         }
         return Dataset(3, std::move(values));
       }},
      {"VeryCloseButUnequalValues",
       [] {
         // Values differing only at the last few ulps: any
         // tolerance-based comparison would misclassify dominance.
         std::vector<Value> values;
         const Value base = 0.1;
         const Value eps = std::nextafter(base, Value{1}) - base;
         for (int i = 0; i < 100; ++i) {
           values.insert(values.end(),
                         {base + i * eps, base + (99 - i) * eps, base});
         }
         return Dataset(3, std::move(values));
       }},
  };
}

}  // namespace

Dataset GridInput::Make() const {
  return Generate(type, points, static_cast<Dim>(dims), seed);
}

std::ostream& operator<<(std::ostream& out, const GridInput& g) {
  return out << ShortName(g.type) << "_" << g.dims << "d_" << g.points
             << "n_s" << g.seed;
}

std::vector<GridInput> RegistryGrid() {
  std::vector<GridInput> grid;
  for (DataType type : {DataType::kAntiCorrelated, DataType::kCorrelated,
                        DataType::kUniformIndependent}) {
    for (unsigned d : {1u, 2u, 3u, 5u, 8u, 12u}) {
      grid.push_back({type, d, 400, 42});
    }
    // A second seed and size at a representative dimensionality.
    grid.push_back({type, 6, 1000, 7});
    grid.push_back({type, 4, 50, 1234});
  }
  return grid;
}

Dataset NamedInput(std::string_view name) {
  for (const auto& inputs : {MakeEdgeCases(), MakeAdversarialShapes()}) {
    for (const CatalogInput& input : inputs) {
      if (input.name == name) return input.make();
    }
  }
  ADD_FAILURE() << "no catalog input named " << name;
  return Dataset(1);
}

std::vector<CatalogInput> FullCatalog() {
  std::vector<CatalogInput> catalog;
  for (const GridInput& g : RegistryGrid()) {
    std::ostringstream name;
    name << g;
    catalog.push_back({name.str(), [g] { return g.Make(); }});
  }
  for (const auto& inputs : {MakeEdgeCases(), MakeAdversarialShapes()}) {
    catalog.insert(catalog.end(), inputs.begin(), inputs.end());
  }
  // Each surrogate is built whole once per process; only its prefix is
  // kept.
  catalog.push_back({"house_1500", [] {
                       static const Dataset prefix = SurrogatePrefix("house");
                       return prefix;
                     }});
  catalog.push_back({"nba_1500", [] {
                       static const Dataset prefix = SurrogatePrefix("nba");
                       return prefix;
                     }});
  catalog.push_back({"weather_1500", [] {
                       static const Dataset prefix =
                           SurrogatePrefix("weather");
                       return prefix;
                     }});
  return catalog;
}

}  // namespace skyline

// The shared catalog of test inputs. Its first 43 entries are the
// inputs of the three registry suites, which run every registered
// engine on them:
//   * 24 generator configurations (AlgorithmCorrectnessTest);
//   * 13 structured edge cases (AlgorithmEdgeCaseTest);
//   * 6 adversarial shapes (AdversarialTest).
// The last 3 are 1,500-row prefixes of the HOUSE, NBA and WEATHER
// surrogates. The serving-path suite runs QueryService on all 46.
#ifndef SKYLINE_TESTS_SUPPORT_INPUT_CATALOG_H_
#define SKYLINE_TESTS_SUPPORT_INPUT_CATALOG_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/dataset.h"
#include "src/data/generator.h"

namespace skyline {

/// One generator configuration of the registry grid.
struct GridInput {
  DataType type;
  unsigned dims;
  std::size_t points;
  std::uint64_t seed;

  Dataset Make() const;

  /// "AC_6d_1000n_s7": the suffix of the grid's case names.
  friend std::ostream& operator<<(std::ostream& out, const GridInput& g);
};

/// The 24 grid configurations. For each of AC, CO and UI: d in
/// {1, 2, 3, 5, 8, 12} at n = 400 (seed 42), then 6-D at n = 1000
/// (seed 7) and 4-D at n = 50 (seed 1234).
std::vector<GridInput> RegistryGrid();

/// A named input. The name is a valid test-name part.
struct CatalogInput {
  std::string name;
  std::function<Dataset()> make;

  /// Prints the name, so parameterised case names stay the same on
  /// every build.
  friend void PrintTo(const CatalogInput& input, std::ostream* out) {
    *out << input.name;
  }
};

/// The edge case or adversarial shape called `name`, as the test of
/// AlgorithmEdgeCaseTest or AdversarialTest that runs it is named.
/// Fails the calling test (and returns an empty 1-D dataset) for an
/// unknown name.
Dataset NamedInput(std::string_view name);

/// All 46 inputs: the grid (named as GridInput prints), the edge
/// cases, the adversarial shapes, then house_1500, nba_1500 and
/// weather_1500.
std::vector<CatalogInput> FullCatalog();

}  // namespace skyline

#endif  // SKYLINE_TESTS_SUPPORT_INPUT_CATALOG_H_

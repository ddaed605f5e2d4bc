// Deterministic replays of the fuzz harnesses (fuzz/harness_*.h).
//
// Two layers: (1) the checked-in seed-corpus inputs, embedded as byte
// arrays so the regression does not depend on file paths — any input a
// fuzzer ever finds gets promoted into kPromoted* below; (2) a short
// fixed-seed random sweep per harness, which keeps a miniature fuzz run
// inside the ordinary test suite. A harness oracle mismatch aborts, so
// a regression shows up as a crashed test, exactly like in the fuzzer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "fuzz/harness_csv.h"
#include "fuzz/harness_merge.h"
#include "fuzz/harness_query_service.h"
#include "fuzz/harness_subset_index.h"
#include "fuzz/harness_subspace.h"

namespace skyline {
namespace {

using fuzz::RunCsvFuzzInput;
using fuzz::RunMergeFuzzInput;
using fuzz::RunQueryServiceFuzzInput;
using fuzz::RunSubsetIndexFuzzInput;
using fuzz::RunSubspaceFuzzInput;

std::vector<std::uint8_t> RandomBytes(std::mt19937_64& rng,
                                      std::size_t max_len) {
  std::vector<std::uint8_t> bytes(rng() % (max_len + 1));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

// fuzz/corpus/subspace/seed-edges.bin: d=64 full-vs-empty, d=1, d=8
// interleaved — the boundary cases for the 64-bit mask arithmetic.
TEST(FuzzRegressionTest, SubspaceCorpusEdges) {
  std::vector<std::uint8_t> input;
  input.push_back(63);
  for (int i = 0; i < 8; ++i) input.push_back(0xFF);
  for (int i = 0; i < 8; ++i) input.push_back(0x00);
  input.push_back(0);
  input.push_back(0x01);
  for (int i = 0; i < 7; ++i) input.push_back(0x00);
  input.push_back(0x01);
  for (int i = 0; i < 7; ++i) input.push_back(0x00);
  input.push_back(7);
  input.push_back(0xAA);
  for (int i = 0; i < 7; ++i) input.push_back(0x00);
  input.push_back(0x55);
  for (int i = 0; i < 7; ++i) input.push_back(0x00);
  RunSubspaceFuzzInput(input.data(), input.size());
}

// fuzz/corpus/merge/seed-dups.bin: every point identical — the
// weak-dominance duplicate path must classify all of them as pivots.
TEST(FuzzRegressionTest, MergeCorpusAllDuplicates) {
  std::vector<std::uint8_t> input = {1, 0};
  for (int i = 0; i < 12; ++i) input.push_back(8);
  RunMergeFuzzInput(input.data(), input.size());
}

// fuzz/corpus/merge/seed-antichain.bin: a 3-d anti-correlated chain
// where no point dominates any other (maximal skyline).
TEST(FuzzRegressionTest, MergeCorpusAntichain) {
  std::vector<std::uint8_t> input = {2, 1, 0, 15, 1, 14, 2, 13, 3,
                                     12, 4, 11, 5, 10, 6, 9, 7, 8};
  RunMergeFuzzInput(input.data(), input.size());
}

// fuzz/corpus/subset_index/seed-ops.bin: the scripted op sequence that
// exercises Add, AddAlwaysCandidate, MergeFrom, both query directions
// and Remove against the flat oracle.
TEST(FuzzRegressionTest, SubsetIndexCorpusOps) {
  const std::vector<std::uint8_t> input = {
      5,                 // nd = 6
      0, 1, 0b11, 0,     // Add id=1 mask={0,1}
      0, 2, 0b110, 0,    // Add id=2 mask={1,2}
      3, 7,              // AddAlwaysCandidate id=7
      5, 0b10, 0,        // Query {1}
      2, 3, 0b111, 0,    // staging Add id=3 mask={0,1,2}
      7,                 // MergeFrom staging
      6, 0b111, 0,       // QueryContained {0,1,2}
      4, 0,              // Remove (oracle-checked branch)
  };
  RunSubsetIndexFuzzInput(input.data(), input.size());
}

// fuzz/corpus/subset_index/seed-reclaim.bin: add/remove churn on shared
// and private paths, with the empty-probe check after each remove — the
// node-reclamation oracle (num_nodes == distinct live reversed-path
// prefixes) after every op.
TEST(FuzzRegressionTest, SubsetIndexCorpusReclaim) {
  const std::vector<std::uint8_t> input = {
      7,                 // nd = 8
      0, 1, 0b1100, 0,   // Add id=1 mask={2,3}
      0, 2, 0b1010, 0,   // Add id=2 mask={1,3} (shares reversed prefix)
      4, 1, 1, 0,        // Remove a stored entry (oracle branch)
      8,                 // the empty probe returns every stored id
      4, 1, 0, 0,        // Remove again
      8,                 // the same on the emptier tree
      5, 0, 0,           // Query {} returns the survivors
  };
  RunSubsetIndexFuzzInput(input.data(), input.size());
}

// fuzz/corpus/subset_index/seed-probe.bin: FindDominator after a
// swap-with-back Remove and after a MergeFrom splice into a populated
// node. Each probe's only dominator sits in a slot whose previous
// occupant's packed row the prefilter would reject the probe with, so a
// row left behind by its id shows up as a missed dominator.
TEST(FuzzRegressionTest, SubsetIndexCorpusProbe) {
  const std::vector<std::uint8_t> input = {
      7,                 // nd = 8
      0, 2, 0b11, 0,     // Add id=2 mask={0,1}
      0, 3, 0b11, 0,     // Add id=3 mask={0,1}
      0, 1, 0b11, 0,     // Add id=1 mask={0,1}: dominates row 240
      4, 1, 0,           // Remove id=2: id=1 moves into its slot
      9, 240, 0b11, 0,   // FindDominator(row 240, {0,1})
      2, 62, 0b11, 0,    // staging Add id=62 mask={0,1}
      2, 60, 0b11, 0,    // staging Add id=60 mask={0,1}: dominates row 34
      7,                 // MergeFrom staging into the populated node
      9, 34, 0b11, 0,    // FindDominator(row 34, {0,1})
      4, 1, 0,           // Remove id=3: id=60 moves into its slot
      9, 34, 0b11, 0,    // FindDominator(row 34, {0,1})
      9, 240, 0, 0,      // FindDominator(row 240, {}): every member
  };
  RunSubsetIndexFuzzInput(input.data(), input.size());
}

// fuzz/corpus/csv/seed-nonfinite.bin: a nan field must be rejected, not
// parsed into the dataset (from_chars accepts "nan" as a double).
TEST(FuzzRegressionTest, CsvCorpusNonFinite) {
  const std::string text = "\x01"
                           "1,2\n3,nan\n";
  RunCsvFuzzInput(reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size());
}

// fuzz/corpus/csv/seed-precision.bin: 17-significant-digit values that
// a 6-digit formatter corrupts; the round-trip must be bit-exact.
TEST(FuzzRegressionTest, CsvCorpusPrecision) {
  const std::string text =
      "\x01"
      "0.1,0.333333333333333314829616256247390992939472198486328125\n"
      "1e-300,1e300\n";
  RunCsvFuzzInput(reinterpret_cast<const std::uint8_t*>(text.data()),
                  text.size());
}

// fuzz/corpus/csv/seed-roundtrip.bin equivalent: raw doubles including
// subnormals and 2^53+1 through the writer/reader cycle.
TEST(FuzzRegressionTest, CsvCorpusAwkwardDoubles) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           1e-300,
                           1.0000001,
                           123456.789012345,
                           -2.2250738585072014e-308,
                           9007199254740993.0,
                           1e300};
  std::vector<std::uint8_t> input = {0x00, 0x03};  // round-trip mode, nd=4
  for (const double v : values) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      input.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    }
  }
  RunCsvFuzzInput(input.data(), input.size());
}

// fuzz/corpus/query_service/seed-repeat.bin: d=4, capacity 4, pinned
// full space, 12 quantized points, repeat-heavy query stream — the
// cache-hit and ancestor-seeded paths with duplicate projections.
TEST(FuzzRegressionTest, QueryServiceCorpusRepeatHeavy) {
  std::mt19937_64 rng(7);
  std::vector<std::uint8_t> input = {2, 3, 1, 11};
  for (int i = 0; i < 12 * 4; ++i) {
    input.push_back(static_cast<std::uint8_t>(rng() % 8));
  }
  for (std::uint8_t q : {1, 3, 1, 3, 7, 1, 3, 15, 1, 3, 1, 5, 3, 1, 3, 1}) {
    input.push_back(static_cast<std::uint8_t>(q - 1));
  }
  RunQueryServiceFuzzInput(input.data(), input.size());
}

// fuzz/corpus/query_service/seed-evict.bin: d=3, capacity 1, unpinned,
// one malformed update first (it reads the first mask byte as its id
// offset), then the masks round-robin — a refused update, then
// eviction churn on every miss plus the cold-compute path.
TEST(FuzzRegressionTest, QueryServiceCorpusEvictionChurn) {
  std::mt19937_64 rng(8);
  std::vector<std::uint8_t> input = {1, 0, 2, 19};
  for (int i = 0; i < 20 * 3; ++i) {
    input.push_back(static_cast<std::uint8_t>(rng() % 8));
  }
  for (int round = 0; round < 2; ++round) {
    for (std::uint8_t q = 0; q < 7; ++q) input.push_back(q);
  }
  RunQueryServiceFuzzInput(input.data(), input.size());
}

TEST(FuzzRegressionTest, CsvShortRandomSweep) {
  std::mt19937_64 rng(0xC57);
  for (int i = 0; i < 300; ++i) {
    const auto input = RandomBytes(rng, 160);
    RunCsvFuzzInput(input.data(), input.size());
  }
}

TEST(FuzzRegressionTest, SubspaceShortRandomSweep) {
  std::mt19937_64 rng(0xA11CE);
  for (int i = 0; i < 300; ++i) {
    const auto input = RandomBytes(rng, 128);
    RunSubspaceFuzzInput(input.data(), input.size());
  }
}

TEST(FuzzRegressionTest, MergeShortRandomSweep) {
  std::mt19937_64 rng(0xB0B);
  for (int i = 0; i < 200; ++i) {
    const auto input = RandomBytes(rng, 192);
    RunMergeFuzzInput(input.data(), input.size());
  }
}

TEST(FuzzRegressionTest, SubsetIndexShortRandomSweep) {
  std::mt19937_64 rng(0xCAFE);
  for (int i = 0; i < 200; ++i) {
    const auto input = RandomBytes(rng, 256);
    RunSubsetIndexFuzzInput(input.data(), input.size());
  }
}

TEST(FuzzRegressionTest, QueryServiceShortRandomSweep) {
  std::mt19937_64 rng(0x5E2F1CE);
  for (int i = 0; i < 150; ++i) {
    const auto input = RandomBytes(rng, 224);
    RunQueryServiceFuzzInput(input.data(), input.size());
  }
}

}  // namespace
}  // namespace skyline

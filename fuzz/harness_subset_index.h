// SubsetIndex vs. a flat linear-scan oracle. The harness replays a
// random op sequence (Add / AddAlwaysCandidate / Remove / Query /
// QueryContained / MergeFrom / FindDominator) against both
// the prefix tree and a plain vector of (id, subspace) pairs, comparing
// every query result as a multiset and, after every op, the num_points
// accounting plus the num_nodes count against the distinct live
// reversed-path prefixes (the node-reclamation invariant: Remove must
// not leak dead tree structure). The indexes are bound to a fixed
// 256-row dataset (every U8 id names a row), so each member carries its
// packed prefilter row; the FindDominator op checks the in-place probe
// against Query followed by a scalar id-list loop, which catches a row
// that drifted away from its id after a swap-with-back Remove or a
// MergeFrom splice.
#ifndef SKYLINE_FUZZ_HARNESS_SUBSET_INDEX_H_
#define SKYLINE_FUZZ_HARNESS_SUBSET_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "fuzz/fuzz_util.h"
#include "src/core/aligned_dataset.h"
#include "src/core/dataset.h"
#include "src/core/dominance.h"
#include "src/core/kernels.h"
#include "src/core/stats.h"
#include "src/core/subspace.h"
#include "src/core/types.h"
#include "src/subset/subset_index.h"

namespace skyline::fuzz {

namespace index_oracle {

using Entry = std::pair<PointId, std::uint64_t>;

/// Multiset comparison of a query result against the oracle's filter.
inline void CheckQuery(std::vector<PointId> got, std::vector<PointId> want,
                       const char* what) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  FUZZ_CHECK(got == want, what);
}

/// Live-node oracle: the tree must hold exactly one node per distinct
/// non-empty prefix of the stored entries' reversed paths (path keys
/// strictly increase, so a prefix is uniquely identified by its dim set).
inline std::size_t ExpectedNodes(const std::vector<Entry>& ref, Dim nd) {
  std::set<std::uint64_t> prefixes;
  for (const Entry& e : ref) {
    std::uint64_t prefix = 0;
    Subspace(e.second).Complement(nd).ForEachDim([&](Dim dim) {
      prefix |= std::uint64_t{1} << dim;
      prefixes.insert(prefix);
    });
  }
  return prefixes.size();
}

/// The rows the harness's ids name: one per U8 id, `nd` values in 0..3
/// from a fixed generator, so dominating pairs are common.
inline Dataset ProbeRows(Dim nd) {
  std::vector<Value> values(std::size_t{256} * nd);
  std::uint32_t state = 0x9e3779b9u ^ nd;
  for (Value& v : values) {
    state = state * 1664525u + 1013904223u;
    v = static_cast<Value>(state >> 30);
  }
  return Dataset(nd, std::move(values));
}

}  // namespace index_oracle

inline void RunSubsetIndexFuzzInput(const std::uint8_t* data,
                                    std::size_t size) {
  using index_oracle::Entry;
  ByteReader in(data, size);

  const Dim nd = 1 + in.U8() % 16;
  const std::uint64_t full = Subspace::Full(nd).bits();

  const Dataset probe_rows = index_oracle::ProbeRows(nd);
  AlignedDataset rows(probe_rows);
  rows.EnsureQuantized();
  SubsetIndex index(nd, &rows);
  SubsetIndex staging(nd, &rows);
  std::vector<Entry> ref;
  std::vector<Entry> staging_ref;

  int ops = 0;
  while (!in.exhausted() && ops < 256) {
    ++ops;
    const std::uint8_t op = in.U8() % 10;
    switch (op) {
      case 0:
      case 1: {  // Add to the main index (2x weight: adds dominate real use)
        const PointId id = in.U8();
        const Subspace mask(in.U16() & full);
        index.Add(id, mask);
        ref.emplace_back(id, mask.bits());
        break;
      }
      case 2: {  // Add to the staging index (exercises MergeFrom paths)
        const PointId id = in.U8();
        const Subspace mask(in.U16() & full);
        staging.Add(id, mask);
        staging_ref.emplace_back(id, mask.bits());
        break;
      }
      case 3: {  // AddAlwaysCandidate == root storage == full-space key
        const PointId id = in.U8();
        index.AddAlwaysCandidate(id);
        ref.emplace_back(id, full);
        break;
      }
      case 4: {  // Remove an existing entry (or a likely-absent one)
        if (!ref.empty() && (in.U8() & 1) != 0) {
          const std::size_t pick = in.U8() % ref.size();
          const Entry victim = ref[pick];
          FUZZ_CHECK(index.Remove(victim.first, Subspace(victim.second)),
                     "Remove: stored entry reported missing");
          ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(pick));
        } else {
          const PointId id = in.U8();
          const Subspace mask(in.U16() & full);
          const bool present =
              std::find(ref.begin(), ref.end(),
                        Entry{id, mask.bits()}) != ref.end();
          FUZZ_CHECK(index.Remove(id, mask) == present,
                     "Remove: presence disagrees with the oracle");
          if (present) {
            ref.erase(std::find(ref.begin(), ref.end(),
                                Entry{id, mask.bits()}));
          }
        }
        break;
      }
      case 5: {  // Query: ids stored under a superset of the probe
        const Subspace probe(in.U16() & full);
        std::vector<PointId> got;
        std::uint64_t nodes = 0;
        index.Query(probe, &got, &nodes);
        FUZZ_CHECK(nodes >= 1, "Query must visit at least the root");
        std::vector<PointId> want;
        for (const Entry& e : ref) {
          if (probe.IsSubsetOf(Subspace(e.second))) want.push_back(e.first);
        }
        index_oracle::CheckQuery(std::move(got), std::move(want),
                                 "Query != linear superset scan");
        break;
      }
      case 6: {  // QueryContained: ids stored under a subset of the probe
        const Subspace probe(in.U16() & full);
        std::vector<PointId> got;
        index.QueryContained(probe, &got);
        std::vector<PointId> want;
        for (const Entry& e : ref) {
          if (Subspace(e.second).IsSubsetOf(probe)) want.push_back(e.first);
        }
        index_oracle::CheckQuery(std::move(got), std::move(want),
                                 "QueryContained != linear subset scan");
        break;
      }
      case 7: {  // Splice the staging index in; it must come back empty
        index.MergeFrom(std::move(staging));
        ref.insert(ref.end(), staging_ref.begin(), staging_ref.end());
        staging_ref.clear();
        FUZZ_CHECK(staging.num_points() == 0,
                   "MergeFrom: source index not emptied");
        staging = SubsetIndex(nd, &rows);
        break;
      }
      case 8: {  // The empty probe returns every stored id (reads no byte)
        std::vector<PointId> got;
        index.Query(Subspace{}, &got);
        std::vector<PointId> want;
        for (const Entry& e : ref) want.push_back(e.first);
        index_oracle::CheckQuery(std::move(got), std::move(want),
                                 "empty-subspace Query != every stored id");
        break;
      }
      case 9: {  // FindDominator == Query + a scalar id-list loop
        const PointId q = in.U8();
        const Subspace probe(in.U16() & full);
        std::vector<PointId> candidates;
        std::uint64_t nodes = 0;
        index.Query(probe, &candidates, &nodes);
        kernels::BatchProbeResult want;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          ++want.scanned;
          if (Dominates(probe_rows.row(candidates[i]), probe_rows.row(q),
                        nd)) {
            want.first = i;
            break;
          }
        }
        SkylineStats stats;
        const kernels::BatchProbeResult got =
            index.FindDominator(probe, q, &stats);
        FUZZ_CHECK(got.first == want.first && got.scanned == want.scanned,
                   "FindDominator disagrees with Query + a scalar scan");
        FUZZ_CHECK(stats.index_candidates == candidates.size() &&
                       stats.index_nodes_visited == nodes &&
                       stats.dominance_tests == want.scanned,
                   "FindDominator counters disagree with Query's");
        break;
      }
      default:
        break;
    }
    FUZZ_CHECK(index.num_points() == ref.size(),
               "num_points accounting disagrees with the oracle");
    FUZZ_CHECK(staging.num_points() == staging_ref.size(),
               "staging num_points accounting disagrees with the oracle");
    FUZZ_CHECK(index.num_nodes() == index_oracle::ExpectedNodes(ref, nd),
               "num_nodes disagrees with the live reversed-path prefixes");
    FUZZ_CHECK(
        staging.num_nodes() == index_oracle::ExpectedNodes(staging_ref, nd),
        "staging num_nodes disagrees with the live reversed-path prefixes");
  }

  // Final exhaustive sweep: every single-dimension probe and the two
  // extremes agree with the oracle.
  for (Dim probe_dim = 0; probe_dim < nd; ++probe_dim) {
    const Subspace probe = Subspace::Single(probe_dim);
    std::vector<PointId> got;
    index.Query(probe, &got);
    std::vector<PointId> want;
    for (const Entry& e : ref) {
      if (probe.IsSubsetOf(Subspace(e.second))) want.push_back(e.first);
    }
    index_oracle::CheckQuery(std::move(got), std::move(want),
                             "final single-dim Query sweep disagrees");
  }
  std::vector<PointId> all;
  index.Query(Subspace{}, &all);
  FUZZ_CHECK(all.size() == ref.size(),
             "empty-subspace Query must return every stored id");
}

}  // namespace skyline::fuzz

#endif  // SKYLINE_FUZZ_HARNESS_SUBSET_INDEX_H_

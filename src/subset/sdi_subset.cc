#include <algorithm>
#include <limits>

#include "src/core/aligned_dataset.h"
#include "src/core/kernels.h"
#include "src/core/scores.h"
#include "src/subset/boosted.h"
#include "src/subset/merge.h"
#include "src/subset/subset_index.h"

namespace skyline {

namespace {

enum class Status : unsigned char { kUnknown, kSkyline, kDominated };

}  // namespace

std::vector<PointId> SdiSubset::Compute(const Dataset& data,
                                        SkylineStats* stats) const {
  const std::size_t n = data.num_points();
  const Dim d = data.num_dims();
  if (stats != nullptr) *stats = SkylineStats{};
  if (n == 0) return {};

  const int sigma = EffectiveSigma(options_.sigma, d);
  MergeResult merge = MergeSubspaces(data, sigma);

  // The index holds rows of the scan block: pivot k is row k, survivor
  // i is row P + i.
  const AlignedDataset rows = GatherScanRows(data, merge);
  const std::size_t num_pivots = merge.pivots.size();
  SubsetIndex index(d, &rows);
  for (std::size_t k = 0; k < num_pivots; ++k) {
    index.AddAlwaysCandidate(static_cast<PointId>(k));
  }
  std::vector<PointId> result = merge.pivots;
  if (merge.remaining.empty()) {
    if (stats != nullptr) {
      stats->dominance_tests = merge.dominance_tests;
      stats->pivot_count = merge.pivots.size();
      stats->merge_pruned = merge.pruned;
      stats->skyline_size = result.size();
    }
    return result;
  }

  // Subspace and scan-block row of each surviving point, addressed by
  // point id.
  std::vector<Subspace> masks(n);
  std::vector<PointId> row_of(n);
  for (std::size_t i = 0; i < merge.remaining.size(); ++i) {
    masks[merge.remaining[i]] = merge.subspaces[i];
    row_of[merge.remaining[i]] = static_cast<PointId>(num_pivots + i);
  }

  // ---- Sort phase over the surviving points. ----
  const std::size_t m = merge.remaining.size();
  std::vector<std::vector<PointId>> dim_index(d);
  for (Dim k = 0; k < d; ++k) {
    dim_index[k] = merge.remaining;
    std::sort(dim_index[k].begin(), dim_index[k].end(),
              [&](PointId a, PointId b) {
                Value va = data.at(a, k), vb = data.at(b, k);
                if (va != vb) return va < vb;
                return a < b;
              });
  }

  // Stop point: the first Merge pivot is exactly the point with minimal
  // Euclidean distance of the whole dataset — SDI's canonical stop point.
  const Value* stop_row = data.row(merge.pivots.front());

  std::vector<Status> status(n, Status::kUnknown);
  std::vector<std::size_t> cursor(d, 0);
  std::vector<std::size_t> dim_skyline_count(d, 0);
  std::vector<bool> done(d, false);
  Dim dims_done = 0;
  std::size_t resolved = 0;

  SkylineStats local;

  auto fast_forward = [&](Dim k) {
    auto& ids = dim_index[k];
    std::size_t& c = cursor[k];
    while (c < m && status[ids[c]] != Status::kUnknown) {
      if (status[ids[c]] == Status::kSkyline) ++dim_skyline_count[k];
      ++c;
    }
    if (!done[k] && (c == m || data.at(ids[c], k) > stop_row[k])) {
      done[k] = true;
      ++dims_done;
    }
  };

  auto resolve_at_cursor = [&](Dim k) {
    auto& ids = dim_index[k];
    const std::size_t c = cursor[k];
    const PointId p = ids[c];
    // Candidate dominators via the subset index (Lemma 5.1). Every
    // already-accepted skyline point lives in the index, so this covers
    // all resolved dominators regardless of which dimension resolved them.
    // One node-by-node probe (charges one test per member scanned, early
    // exit at the first dominator).
    bool dominated = index.FindDominator(masks[p], row_of[p], &local).first !=
                     kernels::kNoDominator;
    if (!dominated) {
      // Duplicate dimension values: unresolved dominators can share p's
      // dim-k value — SFS-like local tests inside the tie block.
      const Value v = data.at(p, k);
      for (std::size_t j = c + 1; j < m && data.at(ids[j], k) == v; ++j) {
        ++local.dominance_tests;
        if (kernels::Dominates(rows.row(row_of[ids[j]]), rows.row(row_of[p]),
                               d)) {
          dominated = true;
          break;
        }
      }
    }
    status[p] = dominated ? Status::kDominated : Status::kSkyline;
    ++resolved;
    if (!dominated) {
      result.push_back(p);
      index.Add(row_of[p], masks[p]);
    }
    return !dominated;
  };

  // ---- Scan phase: breadth-first traversal among dimensions. ----
  Dim k = 0;
  for (Dim j = 0; j < d; ++j) fast_forward(j);
  while (dims_done < d && resolved < m) {
    // Points under this cursor may have been resolved from another
    // dimension since this dimension was last visited.
    fast_forward(k);
    if (done[k]) {
      k = (k + 1) % d;
      continue;
    }
    const bool new_skyline = resolve_at_cursor(k);
    fast_forward(k);
    if (new_skyline) {
      Dim best = k;
      std::size_t best_size = std::numeric_limits<std::size_t>::max();
      for (Dim j = 0; j < d; ++j) {
        if (!done[j] && dim_skyline_count[j] < best_size) {
          best = j;
          best_size = dim_skyline_count[j];
        }
      }
      k = best;
    }
  }

  if (stats != nullptr) {
    *stats = local;
    stats->dominance_tests += merge.dominance_tests;
    stats->pivot_count = merge.pivots.size();
    stats->merge_pruned = merge.pruned;
    stats->skyline_size = result.size();
  }
  return result;
}

}  // namespace skyline

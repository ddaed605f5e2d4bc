#include "src/subset/merge.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/core/aligned_dataset.h"
#include "src/core/contracts.h"
#include "src/core/dominance.h"
#include "src/core/kernels.h"
#include "src/core/scores.h"

namespace skyline {

MergeResult MergeSubspacesOver(const Dataset& data,
                               std::span<const PointId> ids, int sigma) {
  SKYLINE_ASSERT(sigma >= 1, "MergeSubspacesOver: sigma must be >= 1");
  const std::size_t n = ids.size();
  const Dim d = data.num_dims();
  MergeResult out;
  if (n == 0) return out;

  // Precondition (Algorithm 1): ids name distinct rows of `data`.
  if constexpr (kSkylineDeepChecks) {
    std::vector<bool> seen(data.num_points(), false);
    for (PointId id : ids) {
      SKYLINE_DCHECK(id < data.num_points(),
                     "MergeSubspacesOver: id out of range");
      SKYLINE_DCHECK(!seen[id], "MergeSubspacesOver: duplicate id");
      seen[id] = true;
    }
  }

  // Gather the (possibly scattered) partition into a dense, padded,
  // cache-line-aligned block: every inner-loop scan below runs the
  // vectorized kernels over this block instead of chasing rows of the
  // source Dataset. The copies are bit-identical, so results and counts
  // match the scalar path exactly. No quantized plane: the per-pivot
  // pass uses the exact-only fold kernel, so the prefilter plane would
  // never be read here.
  const AlignedDataset block(data, ids);

  // Line 1: score each point by (squared) Euclidean distance to the
  // corner of per-dimension minima. Squaring preserves the order and
  // avoids the sqrt; anchoring at the minima corner instead of the
  // origin makes the score strictly monotone under dominance for
  // arbitrary (including negative) values, so the extracted minimum is
  // always a skyline point. For the paper's [0,1] data this coincides
  // with the distance to the zero point up to the anchor shift. The
  // anchor is the minima corner of the `ids` subset — monotonicity is
  // only ever needed among the points the pass actually sees.
  std::vector<Value> lo(d, std::numeric_limits<Value>::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    const Value* row = block.row_unchecked(i);
    for (Dim k = 0; k < d; ++k) {
      if (row[k] < lo[k]) lo[k] = row[k];
    }
  }

  struct Active {
    PointId id;
    std::uint32_t row;  // row index in `block`
    Value score;
    Subspace mask;  // maximum dominating subspace so far
  };
  std::vector<Active> active(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Value* row = block.row_unchecked(i);
    Value s = 0;
    for (Dim k = 0; k < d; ++k) {
      const Value v = row[k] - lo[k];
      s += v * v;
    }
    active[i] = {ids[i], static_cast<std::uint32_t>(i), s, Subspace{}};
  }

  // Histogram of subspace sizes (bins 1..d) after the previous iteration.
  std::vector<std::size_t> prev_hist(d + 1, 0);

  // Scratch for the batched per-pivot scan (reused across iterations).
  std::vector<std::uint32_t> scan_rows;
  std::vector<Subspace> scan_masks;
  std::vector<std::uint8_t> scan_worse;

  int stability = 0;
  while (stability < sigma) {
    if (active.empty()) break;

    // Line 8: the active point with minimal score is a skyline point.
    // Exact score ties break by TieBreaksBefore, so the pick is the
    // dominator of a tied pair and does not depend on the caller's id
    // order.
    std::size_t best = 0;
    for (std::size_t i = 1; i < active.size(); ++i) {
      const Active& a = active[i];
      const Active& b = active[best];
      if (a.score < b.score ||
          (a.score == b.score &&
           TieBreaksBefore(block.row_unchecked(a.row), a.id,
                           block.row_unchecked(b.row), b.id, d))) {
        best = i;
      }
    }
    const PointId pivot = active[best].id;
    const Value* pivot_row = block.row_unchecked(active[best].row);
    out.pivots.push_back(pivot);
    // The pivot leaves the active set: discount it from the previous
    // histogram so that its departure alone does not read as instability
    // (otherwise the maximal stability sigma = d could never be reached).
    const Dim pivot_bin = active[best].mask.size();
    if (out.iterations >= 1 && prev_hist[pivot_bin] > 0) {
      --prev_hist[pivot_bin];
    }
    active.erase(active.begin() + best);
    ++out.iterations;

    // Lines 11-18: compare the pivot with every active point. The mask
    // computation is one batched kernel pass over the whole active set
    // (charged one test per point, same as the scalar per-point loop);
    // the prune/compact decisions then consume the scratch results.
    scan_rows.resize(active.size());
    scan_masks.resize(active.size());
    scan_worse.resize(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
      scan_rows[i] = active[i].row;
    }
    kernels::DominatingSubspaceExBatch(block, scan_rows, pivot_row, d,
                                       scan_masks.data(), scan_worse.data());
    out.dominance_tests += active.size();

    std::size_t keep = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      Active& q = active[i];
      const bool q_worse = scan_worse[i] != 0;
      const Subspace mask = scan_masks[i];
      if (mask.empty()) {
        // The pivot weakly dominates q: prune it, unless it is an exact
        // duplicate of the pivot, which is itself a skyline point.
        if (!q_worse) {
          out.pivots.push_back(q.id);
        } else {
          ++out.pruned;
        }
        continue;
      }
      q.mask |= mask;
      active[keep++] = q;
    }
    active.resize(keep);

    // Line 19: stability = number of subspace-size bins whose population
    // did not change in this iteration. The first iteration always
    // reports zero: before any pivot there is no distribution to be
    // stable against (this is also why sigma = 1 is meaningless — the
    // method's whole point is to *change* the distribution at least once).
    std::vector<std::size_t> hist(d + 1, 0);
    for (const Active& q : active) ++hist[q.mask.size()];
    stability = 0;
    if (out.iterations > 1) {
      for (Dim s = 1; s <= d; ++s) {
        if (hist[s] == prev_hist[s]) ++stability;
      }
    }
    prev_hist = std::move(hist);
  }

  // Conservation: every input id is a pivot, a survivor, or pruned.
  SKYLINE_ASSERT(out.pivots.size() + active.size() + out.pruned == n,
                 "Merge: pivots + remaining + pruned must partition the input");

  // Postcondition (Definition 4.1): each survivor's mask is its *maximum*
  // dominating subspace w.r.t. the pivot set — the union of D_{q<p} over
  // every pivot p, each of which must be non-empty (an empty D_{q<p}
  // means p weakly dominates q, so q could not have survived).
  if constexpr (kSkylineDeepChecks) {
    for (const Active& q : active) {
      const Value* q_row = data.row(q.id);
      Subspace expect;
      for (PointId p : out.pivots) {
        bool q_worse = false;
        const Subspace m =
            DominatingSubspaceEx(q_row, data.row(p), d, &q_worse);
        SKYLINE_DCHECK(!m.empty(),
                       "Merge: a pivot weakly dominates a surviving point");
        expect |= m;
      }
      SKYLINE_DCHECK(
          expect == q.mask,
          "Merge: mask is not the maximum dominating subspace w.r.t. pivots");
    }
  }

  out.remaining.reserve(active.size());
  out.subspaces.reserve(active.size());
  for (const Active& q : active) {
    SKYLINE_ASSERT(!q.mask.empty(),
                   "Merge: surviving point carries an empty subspace");
    out.remaining.push_back(q.id);
    out.subspaces.push_back(q.mask);
  }
  return out;
}

void SortSurvivorsByScore(const Dataset& data, ScoreFunction f,
                          MergeResult* merge) {
  const Dim d = data.num_dims();
  struct Key {
    Value score;
    Value sum;
    PointId id;
    Subspace mask;
  };
  std::vector<Key> keys(merge->remaining.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const PointId id = merge->remaining[i];
    const Value* row = data.row(id);
    // The sum breaks score ties; when f is the sum it could break none,
    // so it stays 0.
    const Value sum = f == ScoreFunction::kSum
                          ? Value{0}
                          : ScorePoint(row, d, ScoreFunction::kSum);
    keys[i] = {ScorePoint(row, d, f), sum, id, merge->subspaces[i]};
  }
  std::sort(keys.begin(), keys.end(), [&](const Key& a, const Key& b) {
    if (a.score != b.score) return a.score < b.score;
    if (a.sum != b.sum) return a.sum < b.sum;
    return TieBreaksBefore(data.row(a.id), a.id, data.row(b.id), b.id, d);
  });
  for (std::size_t i = 0; i < keys.size(); ++i) {
    merge->remaining[i] = keys[i].id;
    merge->subspaces[i] = keys[i].mask;
  }
}

AlignedDataset GatherScanRows(const Dataset& data, const MergeResult& merge) {
  std::vector<PointId> ids = merge.pivots;
  ids.insert(ids.end(), merge.remaining.begin(), merge.remaining.end());
  AlignedDataset rows(data, ids);
  rows.EnsureQuantized();
  return rows;
}

MergeResult MergeSubspaces(const Dataset& data, int sigma) {
  std::vector<PointId> ids(data.num_points());
  std::iota(ids.begin(), ids.end(), PointId{0});
  return MergeSubspacesOver(data, ids, sigma);
}

}  // namespace skyline

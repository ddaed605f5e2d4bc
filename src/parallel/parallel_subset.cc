#include "src/parallel/parallel_subset.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>

#include "src/core/aligned_dataset.h"
#include "src/core/contracts.h"
#include "src/core/cpu.h"
#include "src/core/dominance.h"
#include "src/core/kernels.h"
#include "src/parallel/work_partitioner.h"
#include "src/subset/merge.h"
#include "src/subset/subset_index.h"

namespace skyline {

namespace {

/// Block points per work unit of a parallel step: enough probes to
/// amortize claiming a unit, few enough to balance a block over the team.
constexpr std::size_t kPointsPerUnit = 32;

std::size_t UnitsFor(std::size_t points) {
  return (points + kPointsPerUnit - 1) / kPointsPerUnit;
}

}  // namespace

// Concurrency discipline (checked statically, see docs/static_analysis.md):
// this engine holds no lock. The two parallel steps of a block write only
// the slots of the unit they execute (the `dominated` flags of the
// unit's points and the unit's StatsAccumulator slot) and read only what the
// owning thread froze before the step started (`rows`, the Merge
// output, `index`, the step-1 survivors). The owning thread mutates
// `index` only between steps; WorkerTeam::ForEachUnit orders every step
// after the owner's earlier writes and before its later reads. A unit
// that throws is rethrown here once every member has left the step, and
// unwinding past `team` joins its threads.
std::vector<PointId> ParallelSubsetSfs::Compute(const Dataset& data,
                                                SkylineStats* stats) const {
  const Dim d = data.num_dims();
  if (stats != nullptr) *stats = SkylineStats{};
  if (data.num_points() == 0) return {};

  // Merge pass and scan order: exactly SfsSubset's.
  MergeResult merge = MergeSubspaces(data, EffectiveSigma(options_.sigma, d));
  SortSurvivorsByScore(data, options_.sort, &merge);
  const std::vector<PointId>& ids = merge.remaining;
  const std::vector<Subspace>& masks = merge.subspaces;
  const std::size_t m = ids.size();
  const std::size_t block = block_size_ > 0 ? block_size_ : kDefaultBlockSize;

  // One shared, padded, cache-line-aligned copy of the scanned rows for
  // the vectorized kernels, read-only once the steps start: survivor i
  // is row P + i (GatherScanRows), and its quantized plane exists
  // before the first Add.
  const AlignedDataset rows = GatherScanRows(data, merge);
  const std::size_t num_pivots = merge.pivots.size();

  // Accepted survivors, under their masks; pivots stay out.
  SubsetIndex index(d, &rows);
  std::vector<PointId> result = merge.pivots;
  SkylineStats total;
  total.dominance_tests = merge.dominance_tests;
  total.pivot_count = merge.pivots.size();
  total.merge_pruned = merge.pruned;

  // One team for the whole scan, sized by the largest step.
  WorkerTeam team(EffectiveWorkers(threads_, UnitsFor(std::min(block, m))));
  std::vector<std::uint8_t> dominated(std::min(block, m));
  std::vector<std::size_t> survivors;  // step-1 survivors, as positions
  // Dense copies of their masks and rows: the step-2 gather reads them
  // O(block²) times per block.
  std::vector<std::uint64_t> survivor_bits;
  std::vector<PointId> survivor_rows;
  // Width of the packed rows step 2 hands the kernel (0: exact compares
  // only, without a plane or with the prefilter off).
  const std::size_t qstride =
      rows.has_quantized() && cpu::PrefilterEnabled() ? rows.qstride() : 0;

  for (std::size_t begin = 0; begin < m; begin += block) {
    const std::size_t size = std::min(block, m - begin);

    // Step 1: probe the index committed before this block.
    StatsAccumulator probe_stats(UnitsFor(size));
    team.ForEachUnit(probe_stats.num_slots(), [&](std::size_t unit) {
      SkylineStats& s = probe_stats.slot(unit);
      const std::size_t last = std::min(size, (unit + 1) * kPointsPerUnit);
      for (std::size_t k = unit * kPointsPerUnit; k < last; ++k) {
        const std::size_t i = begin + k;
        dominated[k] = index.FindDominator(
                           masks[i], static_cast<PointId>(num_pivots + i),
                           &s).first != kernels::kNoDominator;
      }
    });
    total.Accumulate(probe_stats.Combine());

    survivors.clear();
    survivor_bits.clear();
    survivor_rows.clear();
    for (std::size_t k = 0; k < size; ++k) {
      if (dominated[k] != 0) continue;
      survivors.push_back(k);
      survivor_bits.push_back(masks[begin + k].bits());
      survivor_rows.push_back(static_cast<PointId>(num_pivots + begin + k));
    }

    // Step 2: test each survivor against the earlier survivors of the
    // block whose mask is a superset of its own. A candidate that step 2
    // itself rejects is still a sound witness: whatever dominates it
    // dominates the probing point too.
    StatsAccumulator block_stats(UnitsFor(survivors.size()));
    team.ForEachUnit(block_stats.num_slots(), [&](std::size_t unit) {
      SkylineStats& s = block_stats.slot(unit);
      const std::size_t last =
          std::min(survivors.size(), (unit + 1) * kPointsPerUnit);
      std::vector<PointId> candidates(last);
      std::vector<std::uint8_t> packed(last * qstride);
      for (std::size_t j = unit * kPointsPerUnit; j < last; ++j) {
        // Branch-free gather: every earlier survivor is written, and the
        // cursor advances past the ones whose mask covers `need`.
        const std::uint64_t need = survivor_bits[j];
        std::size_t found = 0;
        for (std::size_t e = 0; e < j; ++e) {
          candidates[found] = survivor_rows[e];
          found += (survivor_bits[e] & need) == need ? 1 : 0;
        }
        // The candidates' packed rows, in candidate order, beside them,
        // copied in whole 8-byte words (qstride is a multiple of 8) so
        // each copy is a plain move rather than a library call.
        const PointId q = survivor_rows[j];
        const std::uint8_t* q_quant = nullptr;
        if (qstride != 0) {
          for (std::size_t c = 0; c < found; ++c) {
            const std::uint8_t* src = rows.qrow_unchecked(candidates[c]);
            std::uint8_t* dst = packed.data() + c * qstride;
            for (std::size_t w = 0; w < qstride; w += 8) {
              std::memcpy(dst + w, src + w, 8);
            }
          }
          q_quant = rows.qrow_unchecked(q);
        }
        const kernels::BatchProbeResult probe = kernels::DominatesAny(
            rows, std::span<const PointId>(candidates.data(), found),
            packed.data(), rows.row(q), q_quant, d);
        s.dominance_tests += probe.scanned;
        dominated[survivors[j]] = probe.first != kernels::kNoDominator;
      }
    });
    total.Accumulate(block_stats.Combine());

    // Step 3: commit the accepted points in score order.
    for (std::size_t k : survivors) {
      if (dominated[k] != 0) continue;
      result.push_back(ids[begin + k]);
      index.Add(static_cast<PointId>(num_pivots + begin + k),
                masks[begin + k]);
    }
  }

  // Deep postcondition: skyline members are pairwise non-dominating.
  // Quadratic, so bounded — large inputs are covered by the differential
  // tests; this catches block-scan regressions on the small cases the
  // fuzzers and unit tests feed through.
  if constexpr (kSkylineDeepChecks) {
    if (result.size() <= 512) {
      for (std::size_t i = 0; i < result.size(); ++i) {
        for (std::size_t j = 0; j < result.size(); ++j) {
          SKYLINE_DCHECK(
              i == j ||
                  !Dominates(data.row(result[i]), data.row(result[j]), d),
              "parallel-subset: result contains a dominated point");
        }
      }
    }
  }

  if (stats != nullptr) {
    total.skyline_size = result.size();
    *stats = total;
  }
  return result;
}

}  // namespace skyline

#include "src/parallel/parallel_skyline.h"

#include <algorithm>
#include <numeric>

#include "src/core/dominance.h"
#include "src/core/scores.h"
#include "src/parallel/work_partitioner.h"

namespace skyline {

namespace {

/// SFS scan over one partition, counting tests locally.
std::vector<PointId> LocalSkyline(const Dataset& data,
                                  std::vector<PointId> ids,
                                  const std::vector<Value>& scores,
                                  std::uint64_t* tests) {
  const Dim d = data.num_dims();
  std::sort(ids.begin(), ids.end(), [&](PointId a, PointId b) {
    if (scores[a] != scores[b]) return scores[a] < scores[b];
    return TieBreaksBefore(data.row(a), a, data.row(b), b, d);
  });
  std::vector<PointId> result;
  std::uint64_t local_tests = 0;
  for (PointId p : ids) {
    bool dominated = false;
    for (PointId s : result) {
      ++local_tests;
      if (Dominates(data.row(s), data.row(p), d)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) result.push_back(p);
  }
  *tests += local_tests;
  return result;
}

}  // namespace

std::vector<PointId> ParallelSfs::Compute(const Dataset& data,
                                          SkylineStats* stats) const {
  const std::size_t n = data.num_points();
  const Dim d = data.num_dims();
  if (stats != nullptr) *stats = SkylineStats{};
  if (n == 0) return {};

  const std::size_t num_parts =
      partitions_ > 0 ? partitions_ : DeterministicPartitionCount(n);
  const unsigned workers = EffectiveWorkers(threads_, num_parts);

  const std::vector<Value> scores = ComputeScores(data, options_.sort);

  // Phase 1: local skylines of contiguous partitions, in parallel.
  WorkerTeam team(workers);
  std::vector<std::vector<PointId>> local(num_parts);
  StatsAccumulator local_stats(num_parts);
  team.ForEachUnit(num_parts, [&](std::size_t t) {
    const std::size_t lo = n * t / num_parts;
    const std::size_t hi = n * (t + 1) / num_parts;
    std::vector<PointId> ids(hi - lo);
    std::iota(ids.begin(), ids.end(), static_cast<PointId>(lo));
    local[t] = LocalSkyline(data, std::move(ids), scores,
                            &local_stats.slot(t).dominance_tests);
  });

  // Phase 2: cross-filter. A survivor of partition t is a global skyline
  // point iff no local skyline point of another partition dominates it
  // (a dominator elsewhere is itself weakly dominated by a local skyline
  // point of its partition, which then also dominates the survivor).
  std::vector<std::vector<PointId>> surviving(num_parts);
  StatsAccumulator cross_stats(num_parts);
  team.ForEachUnit(num_parts, [&](std::size_t t) {
    std::uint64_t local_tests = 0;
    for (PointId p : local[t]) {
      bool dominated = false;
      for (std::size_t o = 0; o < num_parts && !dominated; ++o) {
        if (o == t) continue;
        for (PointId q : local[o]) {
          ++local_tests;
          if (Dominates(data.row(q), data.row(p), d)) {
            dominated = true;
            break;
          }
        }
      }
      if (!dominated) surviving[t].push_back(p);
    }
    cross_stats.slot(t).dominance_tests = local_tests;
  });

  std::vector<PointId> result;
  for (std::size_t t = 0; t < num_parts; ++t) {
    result.insert(result.end(), surviving[t].begin(), surviving[t].end());
  }
  if (stats != nullptr) {
    SkylineStats total = local_stats.Combine();
    total.Accumulate(cross_stats.Combine());
    total.skyline_size = result.size();
    *stats = total;
  }
  return result;
}

}  // namespace skyline

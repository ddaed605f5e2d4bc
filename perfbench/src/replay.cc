#include "perfbench/src/replay.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "perfbench/src/server_pass.h"
#include "src/parallel/parallel_subset.h"
#include "src/skycube/skycube.h"
#include "src/subset/boosted.h"
#include "src/subset/merge.h"

namespace perfbench {

namespace {

using skyline::Dataset;
using skyline::DatasetVersion;
using skyline::QueryService;
using skyline::QueryServiceOptions;
using skyline::QueryStatsSnapshot;
using skyline::SkylineStats;

/// Re-runs one unit of service work as child spans of a "replay.rerun"
/// span for `request`.
class Rerun {
 public:
  Rerun(const QueryServiceOptions& options, Tracer& tracer,
        ReplayCounts& counts, std::uint64_t request)
      : options_(options),
        tracer_(tracer),
        counts_(counts),
        request_(request),
        root_(tracer, "replay.rerun", request) {}

  /// The seeded miss path: sky_v over the ancestor's `candidates`, then
  /// the tie repair over the live rows.
  std::vector<PointId> Seeded(const DatasetVersion& version, Subspace v,
                              const std::vector<PointId>& candidates,
                              std::uint64_t* tests) {
    std::vector<PointId> core;
    if (candidates.size() < options_.seeded_boost_threshold) {
      ScopedSpan span(tracer_, "skycube.bnl", request_, root_.id());
      skyline::WarmSubspaceScratch(options_.seeded_boost_threshold,
                                   version.data.num_dims());
      core = skyline::SubspaceSkylineOverCandidates(version.data, v,
                                                    candidates, tests);
    } else {
      Dataset projected(v.size());
      {
        ScopedSpan span(tracer_, "skycube.gather", request_, root_.id());
        projected = Gather(version.data, v, candidates);
      }
      for (PointId local : Sfs(projected, tests)) {
        core.push_back(candidates[local]);
      }
    }
    ScopedSpan span(tracer_, "skycube.tie_close", request_, root_.id());
    ++counts_.tie_calls;
    counts_.tie_rows += version.data.num_points();
    return version.has_removed
               ? skyline::CloseUnderProjectionTies(version.data, v, core,
                                                   version.live)
               : skyline::CloseUnderProjectionTies(version.data, v, core);
  }

  /// The cold path (setup's pinned compute, pinned recomputes): project
  /// the live rows, then the engine the row count selects. Ascending.
  std::vector<PointId> Cold(const DatasetVersion& version, Subspace v,
                            std::uint64_t* tests) {
    std::vector<PointId> live_ids;
    Dataset projected(v.size());
    {
      ScopedSpan span(tracer_, "skycube.gather", request_, root_.id());
      if (version.has_removed) {
        for (PointId p = 0; p < version.data.num_points(); ++p) {
          if (version.IsLive(p)) live_ids.push_back(p);
        }
        projected = Gather(version.data, v, live_ids);
      } else {
        projected = skyline::ProjectDataset(version.data, v);
        counts_.gather_bytes +=
            static_cast<double>(projected.values().size() * sizeof(Value));
      }
    }
    std::vector<PointId> local;
    if (projected.num_points() >= options_.parallel_cold_threshold) {
      SkylineStats stats;
      {
        ScopedSpan span(tracer_, "parallel.compute", request_, root_.id());
        local = skyline::ParallelSubsetSfs(options_.threads,
                                           options_.algorithm)
                    .Compute(projected, &stats);
      }
      *tests += stats.dominance_tests;
      counts_.parallel_tests += stats.dominance_tests;
      // SfsSubset on the same input, off the serving path: the base of
      // the parallel engine's ratios.
      ScopedSpan span(tracer_, "parallel.sfs_reference", request_,
                      root_.id());
      skyline::SfsSubset(options_.algorithm).Compute(projected, &stats);
      counts_.parallel_reference_tests += stats.dominance_tests;
    } else {
      local = Sfs(projected, tests);
    }
    std::vector<PointId> ids;
    for (PointId p : local) ids.push_back(live_ids.empty() ? p : live_ids[p]);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  /// Rows `ids` of `data` projected onto `v`, as the service builds the
  /// engine input.
  Dataset Gather(const Dataset& data, Subspace v,
                 const std::vector<PointId>& ids) {
    std::vector<Value> values;
    values.reserve(ids.size() * v.size());
    for (PointId id : ids) {
      const Value* row = data.row(id);
      v.ForEachDim([&](Dim i) { values.push_back(row[i]); });
    }
    counts_.gather_bytes += static_cast<double>(values.size() * sizeof(Value));
    return Dataset(v.size(), std::move(values));
  }

  /// SfsSubset on the serving path, plus its Merge pass alone on the
  /// same input so the scan can be told from the Merge.
  std::vector<PointId> Sfs(const Dataset& projected, std::uint64_t* tests) {
    SkylineStats stats;
    std::vector<PointId> local;
    {
      ScopedSpan span(tracer_, "subset.sfs", request_, root_.id());
      local = skyline::SfsSubset(options_.algorithm).Compute(projected, &stats);
    }
    skyline::MergeResult merge;
    {
      ScopedSpan span(tracer_, "subset.merge", request_, root_.id());
      merge = skyline::MergeSubspaces(
          projected, skyline::SkylineAlgorithm::EffectiveSigma(
                         options_.algorithm.sigma, projected.num_dims()));
    }
    *tests += stats.dominance_tests;
    counts_.sfs_rows += projected.num_points();
    counts_.sfs_tests += stats.dominance_tests;
    counts_.merge_tests += merge.dominance_tests;
    counts_.merge_pruned += stats.merge_pruned;
    counts_.index_queries += stats.index_queries;
    counts_.index_candidates += stats.index_candidates;
    counts_.index_nodes += stats.index_nodes_visited;
    return local;
  }

  const QueryServiceOptions& options_;
  Tracer& tracer_;
  ReplayCounts& counts_;
  const std::uint64_t request_;
  ScopedSpan root_;
};

/// Re-runs the pinned full-space compute of the current version and
/// compares it with the pinned entry and `charged` dominance tests
/// (exactly, or as an upper bound when the charge also covers repairs).
bool CheckPinned(QueryService& service, const QueryServiceOptions& options,
                 Tracer& tracer, ReplayCounts& counts, std::uint64_t request,
                 std::uint64_t charged, bool exact, std::ostream& err) {
  const Subspace full = Subspace::Full(service.data().num_dims());
  std::uint64_t tests = 0;
  const std::vector<PointId> ids =
      Rerun(options, tracer, counts, request)
          .Cold(*service.current_version(), full, &tests);
  std::vector<PointId> pinned;
  service.PeekExact(full, &pinned);
  if (ids != pinned || (exact ? tests != charged : tests > charged)) {
    err << "replay: pinned compute of request " << request << " gave "
        << ids.size() << " ids / " << tests << " tests, service "
        << pinned.size() << " ids / " << charged << " tests\n";
    return false;
  }
  return true;
}

}  // namespace

bool Replay(const Dataset& data, const Schedule& schedule,
            const QueryServiceOptions& options, Tracer& tracer,
            ReplayCounts* counts, std::ostream& err) {
  // Request 0 is the setup; op i is request i + 1, as in the server pass.
  std::unique_ptr<QueryService> service;
  {
    ScopedSpan span(tracer, "query.setup", 0);
    service = std::make_unique<QueryService>(data, options);
  }
  bool ok = true;
  if (options.pin_full_space) {
    ok &= CheckPinned(*service, options, tracer, *counts, 0,
                      service->Stats().cold_tests, /*exact=*/true, err);
  }

  const std::size_t total = schedule.window.size() + schedule.tail.size();
  for (std::size_t i = 0; i < total; ++i) {
    const Op& op = OpAt(schedule, i);
    const std::uint64_t request = i + 1;
    if (op.kind == Op::Kind::kUpdate) {
      const skyline::DatasetVersionPtr old = service->current_version();
      counts->version_copy_bytes += static_cast<double>(
          old->data.values().size() * sizeof(Value) + old->live.size());
      const QueryStatsSnapshot before = service->Stats();
      int span_id;
      {
        ScopedSpan span(tracer, "query.update", request);
        service->ApplyUpdate(op.inserts, op.removes);
        span_id = span.id();
      }
      const QueryStatsSnapshot after = service->Stats();
      ++counts->updates;
      counts->update_ms.push_back(
          static_cast<double>(tracer.Duration(span_id)) / 1e6);
      if (after.pinned_recomputes > before.pinned_recomputes) {
        ok &= CheckPinned(*service, options, tracer, *counts, request,
                          after.update_tests - before.update_tests,
                          /*exact=*/false, err);
      }
      continue;
    }

    // The ancestor the service will seed from: Query() ranks cached
    // current-epoch supersets exactly as PeekNearestAncestor does.
    Subspace ancestor;
    std::vector<PointId> seed;
    const bool found = service->PeekNearestAncestor(op.v, &ancestor, &seed);
    const QueryStatsSnapshot before = service->Stats();
    std::vector<PointId> got;
    int span_id;
    {
      ScopedSpan span(tracer, "query.query", request);
      got = service->Query(op.v);
      span_id = span.id();
    }
    const QueryStatsSnapshot after = service->Stats();
    const double nanos = static_cast<double>(tracer.Duration(span_id));
    ++counts->queries;

    const bool hit = after.hits > before.hits;
    const bool seeded = after.seeded > before.seeded;
    const bool expect_hit = found && ancestor == op.v;
    const bool expect_seeded = found && ancestor != op.v;
    if (hit != expect_hit || seeded != expect_seeded) {
      err << "replay: request " << request << " was served "
          << (hit ? "hit" : seeded ? "seeded" : "cold") << ", Peek predicted "
          << (expect_hit ? "hit" : expect_seeded ? "seeded" : "cold") << "\n";
      ok = false;
      continue;
    }
    if (hit) {
      ++counts->hits;
      counts->hit_us.push_back(nanos / 1e3);
      if (got != seed) {
        err << "replay: hit of request " << request << " differs from Peek\n";
        ok = false;
      }
      continue;
    }
    counts->miss_ms.push_back(nanos / 1e6);
    std::uint64_t tests = 0;
    std::uint64_t charged = 0;
    std::vector<PointId> ids;
    Rerun rerun(options, tracer, *counts, request);
    if (seeded) {
      ++counts->seeded;
      ids = rerun.Seeded(*service->current_version(), op.v, seed, &tests);
      charged = after.seeded_tests - before.seeded_tests;
    } else {
      ++counts->cold;
      ids = rerun.Cold(*service->current_version(), op.v, &tests);
      charged = after.cold_tests - before.cold_tests;
    }
    if (ids != got || tests != charged) {
      err << "replay: request " << request << " cuboid " << op.v.ToString()
          << " re-ran to " << ids.size() << " ids / " << tests
          << " tests, service " << got.size() << " ids / " << charged
          << " tests\n";
      ok = false;
    }
  }
  counts->service_tests = service->Stats().dominance_tests();
  return ok;
}

}  // namespace perfbench

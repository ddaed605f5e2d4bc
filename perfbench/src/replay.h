// The replay pass of the traced run: one client drives a QueryService
// directly with a workload's op list, timing every Query() and
// ApplyUpdate() call. Every miss, the setup's pinned compute and every
// pinned recompute is then re-run layer by layer through the public
// functions of skycube, subset and parallel, as spans that carry the
// op's request id. A re-run must reproduce the service's answer and its
// dominance-test count, or the pass fails.
#ifndef PERFBENCH_SRC_REPLAY_H_
#define PERFBENCH_SRC_REPLAY_H_

#include <cstdint>
#include <ostream>
#include <vector>

#include "perfbench/src/schedule.h"
#include "perfbench/src/trace.h"
#include "src/query/query_service.h"

namespace perfbench {

/// Counts the replay gathers beside its spans.
struct ReplayCounts {
  // Query() calls by how the service answered them.
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t seeded = 0;
  std::uint64_t cold = 0;
  std::vector<double> hit_us;     ///< Per-hit Query() wall time.
  std::vector<double> miss_ms;    ///< Per-miss Query() wall time.
  std::vector<double> update_ms;  ///< Per-ApplyUpdate() wall time.
  std::uint64_t updates = 0;
  double version_copy_bytes = 0;  ///< Computed: rows copied per update.

  // skycube: tie repair calls, rows they scanned, bytes gathered.
  std::uint64_t tie_calls = 0;
  std::uint64_t tie_rows = 0;
  double gather_bytes = 0;

  // subset: SfsSubset runs on the serving path and the Merge pass on
  // the same inputs.
  std::uint64_t sfs_rows = 0;
  std::uint64_t sfs_tests = 0;
  std::uint64_t merge_tests = 0;
  std::uint64_t merge_pruned = 0;
  std::uint64_t index_queries = 0;
  std::uint64_t index_candidates = 0;
  std::uint64_t index_nodes = 0;

  // parallel: the engine's tests and SfsSubset's on the same inputs.
  std::uint64_t parallel_tests = 0;
  std::uint64_t parallel_reference_tests = 0;

  /// Dominance tests the service charged over the whole pass.
  std::uint64_t service_tests = 0;
};

/// Runs the replay pass. Returns false, describing each disagreement on
/// `err`, when a re-run does not reproduce the service.
bool Replay(const skyline::Dataset& data, const Schedule& schedule,
            const skyline::QueryServiceOptions& options, Tracer& tracer,
            ReplayCounts* counts, std::ostream& err);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPLAY_H_

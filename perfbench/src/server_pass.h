// Drives a SkylineServer through a workload's op list from a single
// generator thread and checks the responses.
#ifndef PERFBENCH_SRC_SERVER_PASS_H_
#define PERFBENCH_SRC_SERVER_PASS_H_

#include <cstdint>
#include <ostream>
#include <vector>

#include "perfbench/src/schedule.h"
#include "src/server/server.h"

namespace perfbench {

/// The server configuration of every workload: the defaults, except two
/// workers and two engine threads, so the generator, the workers and the
/// engine threads fit in four cores.
skyline::ServerOptions BenchServerOptions();

/// Timestamps (steady-clock ns) and outcome of one op.
struct OpResult {
  std::int64_t due_ns = 0;      ///< Scheduled arrival (tail: the submit).
  std::int64_t submit_ns = 0;   ///< Submit/SubmitUpdate entered.
  std::int64_t admitted_ns = 0; ///< Submit/SubmitUpdate returned.
  std::int64_t resolved_ns = 0; ///< ServerResponse::resolved_at.
  skyline::StatusCode status = skyline::StatusCode::kShutdown;
  std::uint64_t epoch = 0;
  std::vector<PointId> ids;  ///< Kept only for ops marked `check`.

  double LatencyMs() const {
    return static_cast<double>(resolved_ns - due_ns) / 1e6;
  }
};

/// Replays the window open-loop (each burst submitted when it falls
/// due, no matter what is still outstanding), waits for every response,
/// then issues the write tail one update at a time. Results are indexed
/// like the window followed by the tail.
std::vector<OpResult> DriveServer(skyline::SkylineServer& server,
                                  const Schedule& schedule);

/// One untimed query of the final epoch, asked after the tail.
struct ProbeResult {
  Subspace v;
  skyline::StatusCode status = skyline::StatusCode::kShutdown;
  std::uint64_t epoch = 0;
  std::vector<PointId> ids;
};

/// Asks `server`, once the tail has resolved, for the schedule's probes.
std::vector<ProbeResult> ProbeFinalEpoch(skyline::SkylineServer& server,
                                         const Schedule& schedule);

/// Checks every update installed the epoch equal to its position, every
/// probe resolved kOk at the final epoch, and every `check` query and
/// every probe against the oracle. Writes each failure to `err` and
/// returns whether all held.
bool CheckPass(const skyline::Dataset& data, const Schedule& schedule,
               const std::vector<OpResult>& results,
               const std::vector<ProbeResult>& probes, std::ostream& err);

/// The op at position `i` of the window followed by the tail.
const Op& OpAt(const Schedule& schedule, std::size_t i);

/// Peak resident set of this process in MB (ru_maxrss).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SERVER_PASS_H_

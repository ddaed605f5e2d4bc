// Workload definitions and the seeded op list the benchmark replays
// against the serving stack.
//
// A workload has two phases. The read window is an open loop of bursts:
// every kBurstInterval, `burst` queries fall due at once. Each query
// names one non-empty subspace of the d = 8 dimensions, drawn Zipf(s=1)
// over a seeded shuffle of the 255 subspaces or uniformly over them.
// The window opens with kWarmup of untimed bursts, which fill the cuboid
// cache, then runs for the measured seconds.
// The write tail follows once every query has resolved: kTailUpdates
// updates issued one at a time, each inserting 2 rows drawn from the
// workload's data distribution and removing 1 initial point, taken in
// order from a seeded permutation of the initial points. A removed
// point of the full-space skyline makes the service recompute its
// pinned seed, so the data sets the share of recomputes: about 10% of
// UI n = 100K points and 84% of AC n = 20K points are in it. After the
// tail the benchmark asks, untimed, for probe cuboids whose answers it
// checks at the final epoch.
//
// Everything here is a pure function of (workload, seed, seconds): the
// same arguments give an identical op list, removal ids included.
#ifndef PERFBENCH_SRC_SCHEDULE_H_
#define PERFBENCH_SRC_SCHEDULE_H_

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/core/dataset.h"
#include "src/core/subspace.h"
#include "src/data/generator.h"

namespace perfbench {

using skyline::Dim;
using skyline::PointId;
using skyline::Subspace;
using skyline::Value;

inline constexpr Dim kDims = 8;
inline constexpr std::chrono::milliseconds kBurstInterval{100};
/// The cache starts holding only the full space; its first misses pile
/// up within the first seconds and would otherwise set query_p99_ms.
inline constexpr std::chrono::seconds kWarmup{5};
inline constexpr std::size_t kInsertsPerUpdate = 2;
inline constexpr std::size_t kTailUpdates = 100;
/// Responses checked against the oracle beyond the first of each cuboid.
inline constexpr std::size_t kCheckSample = 64;
/// Probes drawn at random, beyond the full space and the cached ones.
inline constexpr std::size_t kProbeSample = 16;

struct WorkloadSpec {
  std::string_view name;
  skyline::DataType type;
  std::size_t n;
  std::size_t burst;  ///< Queries due per burst.
  bool zipf;          ///< Zipf(s=1) cuboids, else uniform.
};

/// The benchmark's workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

struct Op {
  enum class Kind { kQuery, kUpdate };
  Kind kind = Kind::kQuery;
  /// kQuery only: due time as an offset from the window start.
  std::chrono::nanoseconds due{0};
  Subspace v;                   ///< kQuery only.
  std::vector<Value> inserts;   ///< kUpdate only: row-major, kDims wide.
  std::vector<PointId> removes; ///< kUpdate only.
  /// kQuery only: compare this response against the oracle.
  bool check = false;
  /// kQuery only: due within kWarmup, so its latency is not a sample.
  bool warmup = false;
};

struct Schedule {
  std::vector<Op> window;  ///< Queries, ascending due times.
  std::vector<Op> tail;    ///< Updates, in submission order.
  /// Cuboids asked for after the tail, each once: the full space (the
  /// pinned entry), the distinct cuboids of the window's last queries,
  /// newest first and as many as the cache holds (the entries the tail
  /// repairs or invalidates), then kProbeSample drawn at random.
  std::vector<Subspace> probes;
};

/// The workload's initial dataset at `seed`.
skyline::Dataset GenerateData(const WorkloadSpec& spec, std::uint64_t seed);

/// The op list of `spec` at `seed` for a window of kWarmup plus
/// `seconds`. Removal ids name points of GenerateData(spec, seed), each
/// at most once.
Schedule BuildSchedule(const WorkloadSpec& spec, std::uint64_t seed,
                       int seconds);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SCHEDULE_H_

// The thread pool of the parallel skyline engines, and the rules that
// size their work.
//
// The engines separate *what* the work units are from *who* executes
// them: the units are a pure function of the input (partitions counted
// from n alone, or fixed-size blocks), and the members of a WorkerTeam
// claim them from a shared cursor. Every unit-local computation (and
// its SkylineStats slot) is therefore identical for any thread count —
// scheduling decides only the wall clock, never the result or the
// counters. WorkerTeam is the library's one thread pool: each engine
// runs every parallel phase of a computation on one team.
#ifndef SKYLINE_PARALLEL_WORK_PARTITIONER_H_
#define SKYLINE_PARALLEL_WORK_PARTITIONER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "src/core/sync.h"

namespace skyline {

/// Number of work partitions for an n-point input: one per 256 points,
/// capped at 32, at least 1. Depends on n only — never on the thread
/// count — so partition-local results are reproducible on any machine.
std::size_t DeterministicPartitionCount(std::size_t n);

/// Worker threads to actually spawn: `requested` (0 = hardware
/// concurrency), clamped to [1, num_units] — more workers than units
/// would only idle.
unsigned EffectiveWorkers(unsigned requested, std::size_t num_units);

/// A fixed team of worker threads that runs one parallel phase after
/// another. The calling thread is a member: a team of W spawns W - 1
/// threads once, at construction, and joins them at destruction, so an
/// engine that alternates many short parallel phases with serial steps
/// (the block scan of the parallel subset engine) pays thread start-up
/// once per computation instead of once per phase. Not itself
/// thread-safe: one owning thread calls ForEachUnit.
class WorkerTeam {
 public:
  /// A team of max(workers, 1) members. If a thread cannot be started,
  /// the ones already running are joined and the error propagates.
  explicit WorkerTeam(unsigned workers);
  ~WorkerTeam();

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  /// Runs fn(unit) once for every unit in [0, num_units) across the
  /// team, which claims units from a shared atomic cursor, so uneven
  /// units load-balance. Calls for distinct units may run concurrently —
  /// fn must only touch per-unit state — and every call happens-before
  /// the return; everything the owner wrote before the call
  /// happens-before every fn call.
  ///
  /// If fn throws, the first exception (in claim order across members)
  /// is kept, the members stop claiming units, and it is rethrown on the
  /// calling thread once every member has left the phase. The team stays
  /// usable; unwinding past it joins its threads.
  void ForEachUnit(std::size_t num_units,
                   const std::function<void(std::size_t)>& fn)
      SKYLINE_EXCLUDES(mu_);

  /// Threads started by every WorkerTeam of the process so far — lets a
  /// test check that an engine starts one team per computation.
  static std::uint64_t threads_started();

 private:
  void WorkerLoop() SKYLINE_EXCLUDES(mu_);
  /// Claims and runs units of the current phase until none is left or a
  /// unit has thrown.
  void RunUnits(const std::function<void(std::size_t)>& fn,
                std::size_t num_units) SKYLINE_EXCLUDES(mu_);
  void Stop() SKYLINE_EXCLUDES(mu_);

  Mutex mu_;
  CondVar phase_start_;  // a phase is posted, or the team stops
  CondVar phase_done_;   // the last spawned member left the phase
  std::uint64_t phase_ SKYLINE_GUARDED_BY(mu_) = 0;
  const std::function<void(std::size_t)>* fn_ SKYLINE_GUARDED_BY(mu_) =
      nullptr;
  std::size_t num_units_ SKYLINE_GUARDED_BY(mu_) = 0;
  unsigned busy_ SKYLINE_GUARDED_BY(mu_) = 0;  // spawned members in phase
  bool stopping_ SKYLINE_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ SKYLINE_GUARDED_BY(mu_);
  std::atomic<std::size_t> cursor_{0};
  std::atomic<bool> aborted_{false};
  // unguarded: only the owner touches it, and never during a phase.
  std::vector<std::thread> threads_;
};

}  // namespace skyline

#endif  // SKYLINE_PARALLEL_WORK_PARTITIONER_H_

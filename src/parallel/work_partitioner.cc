#include "src/parallel/work_partitioner.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>

#include "src/core/contracts.h"
#include "src/core/sync.h"

namespace skyline {

std::size_t DeterministicPartitionCount(std::size_t n) {
  const std::size_t by_size = (n + 255) / 256;
  const std::size_t count = std::clamp<std::size_t>(by_size, 1, 32);
  SKYLINE_ASSERT(count >= 1 && count <= 32,
                 "partition count must stay in [1, 32]");
  return count;
}

unsigned EffectiveWorkers(unsigned requested, std::size_t num_units) {
  unsigned workers =
      requested > 0 ? requested
                    : std::max(1u, std::thread::hardware_concurrency());
  if (num_units < workers) workers = static_cast<unsigned>(num_units);
  workers = std::max(1u, workers);
  SKYLINE_ASSERT(num_units == 0 || workers <= num_units,
                 "never spawn more workers than units");
  return workers;
}

namespace {

std::atomic<std::uint64_t> g_threads_started{0};

}  // namespace

WorkerTeam::WorkerTeam(unsigned workers) {
  const unsigned spawn = std::max(1u, workers) - 1;
  threads_.reserve(spawn);
  try {
    for (unsigned t = 0; t < spawn; ++t) {
      threads_.emplace_back([this] { WorkerLoop(); });
      g_threads_started.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (...) {
    Stop();
    throw;
  }
}

WorkerTeam::~WorkerTeam() { Stop(); }

std::uint64_t WorkerTeam::threads_started() {
  return g_threads_started.load(std::memory_order_relaxed);
}

void WorkerTeam::Stop() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  phase_start_.NotifyAll();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
}

void WorkerTeam::WorkerLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t num_units = 0;
    {
      MutexLock lock(mu_);
      while (!stopping_ && phase_ == seen) phase_start_.Wait(lock);
      if (stopping_) return;
      seen = phase_;
      fn = fn_;
      num_units = num_units_;
    }
    RunUnits(*fn, num_units);
    MutexLock lock(mu_);
    if (--busy_ == 0) phase_done_.NotifyOne();
  }
}

void WorkerTeam::RunUnits(const std::function<void(std::size_t)>& fn,
                          std::size_t num_units) {
  for (std::size_t unit = cursor_.fetch_add(1, std::memory_order_relaxed);
       unit < num_units && !aborted_.load(std::memory_order_relaxed);
       unit = cursor_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      fn(unit);
    } catch (...) {
      // A unit that throws would std::terminate inside std::thread; the
      // member parks the first exception for the owner instead and the
      // team stops claiming units.
      MutexLock lock(mu_);
      if (first_error_ == nullptr) first_error_ = std::current_exception();
      aborted_.store(true, std::memory_order_relaxed);
    }
  }
}

void WorkerTeam::ForEachUnit(std::size_t num_units,
                             const std::function<void(std::size_t)>& fn) {
  if (num_units == 0) return;

  // Determinism contract: every unit in [0, num_units) runs exactly once,
  // regardless of team size or scheduling. The shared-cursor claim makes
  // this true by construction; the deep check re-verifies it so a future
  // scheduling change cannot silently drop or repeat a unit.
#ifdef SKYLINE_CHECKS
  std::vector<std::atomic<std::uint32_t>> runs(num_units);
  const std::function<void(std::size_t)> run_unit = [&](std::size_t unit) {
    runs[unit].fetch_add(1, std::memory_order_relaxed);
    fn(unit);
  };
#else
  const auto& run_unit = fn;
#endif

  if (threads_.empty()) {
    for (std::size_t unit = 0; unit < num_units; ++unit) run_unit(unit);
  } else {
    {
      MutexLock lock(mu_);
      fn_ = &run_unit;
      num_units_ = num_units;
      busy_ = static_cast<unsigned>(threads_.size());
      cursor_.store(0, std::memory_order_relaxed);
      aborted_.store(false, std::memory_order_relaxed);
      ++phase_;
    }
    phase_start_.NotifyAll();
    RunUnits(run_unit, num_units);
    MutexLock lock(mu_);
    while (busy_ > 0) phase_done_.Wait(lock);
    fn_ = nullptr;
    if (first_error_ != nullptr) {
      std::exception_ptr error = std::move(first_error_);
      first_error_ = nullptr;
      std::rethrow_exception(error);
    }
  }

#ifdef SKYLINE_CHECKS
  for (std::size_t unit = 0; unit < num_units; ++unit) {
    SKYLINE_DCHECK(runs[unit].load(std::memory_order_relaxed) == 1,
                   "WorkerTeam: unit not executed exactly once");
  }
#endif
}

}  // namespace skyline

#include "src/server/server.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>

#include "src/core/contracts.h"

namespace skyline {

namespace {

/// Distinct cuboids gathered per dispatch cycle; same-cuboid coalescing
/// adds every queued duplicate of them on top.
constexpr std::size_t kMaxBatchCuboids = 16;

/// A dispatch cycle computes the union of its cuboids first, as a shared
/// seed, when at least this many of them have no current cached
/// ancestor.
constexpr std::size_t kUnionSeedThreshold = 2;

std::uint64_t ElapsedNanos(std::chrono::steady_clock::time_point from,
                           std::chrono::steady_clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

}  // namespace

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "kOk";
    case StatusCode::kStale:
      return "kStale";
    case StatusCode::kOverloaded:
      return "kOverloaded";
    case StatusCode::kDeadlineExceeded:
      return "kDeadlineExceeded";
    case StatusCode::kCancelled:
      return "kCancelled";
    case StatusCode::kShutdown:
      return "kShutdown";
    case StatusCode::kInvalidArgument:
      return "kInvalidArgument";
  }
  return "unknown";
}

ServerResponse ResponseHandle::Wait() const {
  SKYLINE_ASSERT(state_ != nullptr, "Wait on an invalid ResponseHandle");
  ServerResponse out;
  MutexLock lock(state_->mu);
  while (!state_->done) state_->cv.Wait(lock);
  out.status = state_->status;
  out.ids = state_->ids;
  out.epoch = state_->epoch;
  out.resolved_at = state_->resolved_at;
  return out;
}

bool ResponseHandle::TryGet(ServerResponse* out) const {
  SKYLINE_ASSERT(state_ != nullptr, "TryGet on an invalid ResponseHandle");
  MutexLock lock(state_->mu);
  if (!state_->done) return false;
  if (out != nullptr) {
    // Field by field, so a polling caller that reuses `out` keeps its
    // ids buffer instead of allocating one per response.
    out->status = state_->status;
    out->ids = state_->ids;
    out->epoch = state_->epoch;
    out->resolved_at = state_->resolved_at;
  }
  return true;
}

void SkylineServer::Resolve(internal::ServerResultState& state,
                            StatusCode status, std::vector<PointId> ids,
                            std::uint64_t epoch) {
  {
    MutexLock lock(state.mu);
    if (state.done) return;
    // Terminal accounting, exactly once per handle — counted on the
    // transition itself, BEFORE done becomes observable. A waiter can
    // only see done=true after taking state.mu, so by the time Wait()
    // returns the outcome counters already include this handle and the
    // Stats() identities hold with no settle window.
    outcomes_[static_cast<std::size_t>(status)].fetch_add(
        1, std::memory_order_relaxed);
    state.done = true;
    state.status = status;
    state.ids = std::move(ids);
    state.epoch = epoch;
    state.resolved_at = std::chrono::steady_clock::now();
  }
  state.cv.NotifyAll();
}

SkylineServer::SkylineServer(const Dataset& data, ServerOptions options)
    : options_(std::move(options)), service_(data, options_.query) {
  if (options_.auto_start) Start();
}

SkylineServer::~SkylineServer() {
  std::vector<Pending> orphans;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    orphans.reserve(queue_.size());
    std::move(queue_.begin(), queue_.end(), std::back_inserter(orphans));
    queue_.clear();
  }
  queue_cv_.NotifyAll();
  for (Pending& p : orphans) Resolve(*p.state, StatusCode::kShutdown, {});
  for (std::thread& worker : workers_) worker.join();
}

void SkylineServer::Start() {
  const unsigned count =
      options_.workers != 0
          ? options_.workers
          : std::max(1u, std::thread::hardware_concurrency());
  MutexLock lock(mu_);
  if (started_ || stopping_) return;
  started_ = true;
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ResponseHandle SkylineServer::Submit(Subspace v,
                                     std::chrono::nanoseconds timeout,
                                     CancellationToken token) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  auto state = std::make_shared<internal::ServerResultState>();
  ResponseHandle handle(state);

  if (v.empty() || !v.IsSubsetOf(Subspace::Full(service_.num_dims()))) {
    admission_resolved_.fetch_add(1, std::memory_order_relaxed);
    Resolve(*state, StatusCode::kInvalidArgument, {});
    return handle;
  }
  if (options_.inline_fast_hits) {
    std::vector<PointId> ids;
    std::uint64_t epoch = 0;
    // PeekExact reads only current-epoch entries: an update repairs
    // every cached cuboid, so an inline fast hit is never pre-update.
    if (service_.PeekExact(v, &ids, &epoch)) {
      fast_hits_.fetch_add(1, std::memory_order_relaxed);
      admission_resolved_.fetch_add(1, std::memory_order_relaxed);
      Resolve(*state, StatusCode::kOk, std::move(ids), epoch);
      return handle;
    }
  }

  const auto now = std::chrono::steady_clock::now();
  const auto deadline = timeout == kNoTimeout
                            ? std::chrono::steady_clock::time_point::max()
                            : now + timeout;

  bool shutdown = false;
  bool reject = false;
  bool serve_stale = false;
  std::vector<Pending> shed;  // resolved after the lock is dropped
  {
    MutexLock lock(mu_);
    if (stopping_) {
      shutdown = true;
    } else {
      if (queue_.size() >= options_.queue_capacity &&
          options_.policy != OverloadPolicy::kReject) {
        // Make room by shedding queued entries that are already past
        // their deadline (or cancelled) — they would be shed at
        // dispatch anyway.
        std::deque<Pending> rest;
        for (Pending& p : queue_) {
          if (!p.is_update && (p.deadline <= now || p.token.cancelled())) {
            shed.push_back(std::move(p));
          } else {
            rest.push_back(std::move(p));
          }
        }
        queue_.swap(rest);
      }
      if (queue_.size() >= options_.queue_capacity) {
        if (options_.policy == OverloadPolicy::kServeStale) {
          serve_stale = true;
        } else {
          reject = true;
        }
      } else {
        admitted_.fetch_add(1, std::memory_order_relaxed);
        Pending p;
        p.v = v;
        p.deadline = deadline;
        p.enqueued_at = now;
        p.token = std::move(token);
        p.state = state;
        queue_.push_back(std::move(p));
        queue_cv_.NotifyOne();
      }
    }
  }
  for (Pending& p : shed) {
    triaged_.fetch_add(1, std::memory_order_relaxed);
    Resolve(*p.state,
            p.token.cancelled() ? StatusCode::kCancelled
                                : StatusCode::kDeadlineExceeded,
            {});
  }
  if (shutdown || reject) {
    admission_resolved_.fetch_add(1, std::memory_order_relaxed);
    Resolve(*state, shutdown ? StatusCode::kShutdown : StatusCode::kOverloaded,
            {});
  } else if (serve_stale) {
    admission_resolved_.fetch_add(1, std::memory_order_relaxed);
    StaleAnswer answer;
    const StatusCode status =
        TryStaleAnswer(v, StatusCode::kOverloaded, &answer);
    // Exact current-epoch cuboid was cached: a genuine fast hit — the
    // request never entered the queue.
    if (status == StatusCode::kOk) {
      fast_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    Resolve(*state, status, std::move(answer.ids), answer.epoch);
  }
  return handle;
}

ResponseHandle SkylineServer::SubmitUpdate(std::vector<Value> inserts,
                                           std::vector<PointId> removes) {
  updates_submitted_.fetch_add(1, std::memory_order_relaxed);
  auto state = std::make_shared<internal::ServerResultState>();
  ResponseHandle handle(state);
  // A partial row is refused here, not at dispatch: a queued update is
  // a fence, so it would hold every query behind it until then.
  if (inserts.size() % service_.num_dims() != 0) {
    Resolve(*state, StatusCode::kInvalidArgument, {});
    return handle;
  }
  const auto now = std::chrono::steady_clock::now();
  bool shutdown = false;
  {
    MutexLock lock(mu_);
    if (stopping_) {
      shutdown = true;
    } else {
      // Privileged admission: updates bypass queue_capacity and every
      // shedding path — dropping one would silently fork the dataset
      // the clients believe they are mutating.
      Pending p;
      p.deadline = std::chrono::steady_clock::time_point::max();
      p.enqueued_at = now;
      p.state = state;
      p.is_update = true;
      p.inserts = std::move(inserts);
      p.removes = std::move(removes);
      queue_.push_back(std::move(p));
      // Wake everyone: workers blocked mid-queue behind the barrier
      // logic must re-evaluate, not just one.
      queue_cv_.NotifyAll();
    }
  }
  if (shutdown) Resolve(*state, StatusCode::kShutdown, {});
  return handle;
}

ServerResponse SkylineServer::Query(Subspace v,
                                    std::chrono::nanoseconds timeout) {
  return Submit(v, timeout).Wait();
}

void SkylineServer::WorkerLoop() {
  for (;;) {
    std::shared_ptr<OpenCycle> cycle;  // set when a group was claimed
    CuboidGroup group;
    std::vector<CuboidGroup> gathered;
    Pending update;
    bool have_update = false;
    {
      MutexLock lock(mu_);
      for (;;) {
        if (!open_cycles_.empty()) {
          // Finish what is dispatched before gathering more: claim the
          // next group, superset-first, of the oldest open cycle.
          cycle = open_cycles_.front();
          group = std::move(cycle->groups[cycle->next++]);
          if (cycle->next == cycle->groups.size()) open_cycles_.pop_front();
          break;
        }
        if (queue_.empty()) {
          if (stopping_) return;
          queue_cv_.Wait(lock);
          continue;
        }
        if (update_active_) {
          // An update is being applied: no query batch may start and
          // no second update may overtake it.
          queue_cv_.Wait(lock);
          continue;
        }
        if (queue_.front().is_update) {
          if (inflight_batches_ > 0) {
            // Serialize: every batch gathered before the update must
            // fully resolve before the epoch moves.
            queue_cv_.Wait(lock);
            continue;
          }
          update = std::move(queue_.front());
          queue_.pop_front();
          have_update = true;
          update_active_ = true;
          break;
        }
        gathered = GatherBatch();
        ++inflight_batches_;
        break;
      }
    }
    if (cycle != nullptr) {
      ComputeGroup(group);
      bool drained = false;
      {
        MutexLock lock(mu_);
        if (--cycle->unresolved == 0) {
          --inflight_batches_;
          drained = true;
        }
      }
      // A worker may be parked waiting for in-flight batches to drain
      // before an update; wake everyone to re-evaluate.
      if (drained) queue_cv_.NotifyAll();
    } else if (have_update) {
      const auto dispatch_time = std::chrono::steady_clock::now();
      queue_wait_.Record(ElapsedNanos(update.enqueued_at, dispatch_time));
      if (const std::optional<std::uint64_t> epoch =
              service_.ApplyUpdate(update.inserts, update.removes)) {
        updates_applied_.fetch_add(1, std::memory_order_relaxed);
        Resolve(*update.state, StatusCode::kOk, {}, *epoch);
      } else {
        Resolve(*update.state, StatusCode::kInvalidArgument, {});
      }
      {
        MutexLock lock(mu_);
        update_active_ = false;
      }
      queue_cv_.NotifyAll();
    } else {
      std::vector<CuboidGroup> live = PrepareBatch(std::move(gathered));
      {
        MutexLock lock(mu_);
        if (live.empty()) {
          --inflight_batches_;  // triage resolved the whole cycle
        } else {
          auto open = std::make_shared<OpenCycle>();
          open->unresolved = live.size();
          open->groups = std::move(live);
          open_cycles_.push_back(std::move(open));
        }
      }
      // Wake idle workers to claim the groups, or an update parked on
      // the drain.
      queue_cv_.NotifyAll();
    }
  }
}

std::vector<SkylineServer::CuboidGroup> SkylineServer::GatherBatch() {
  std::vector<CuboidGroup> groups;
  std::deque<Pending> rest;
  bool hit_update = false;
  for (Pending& p : queue_) {
    // Everything at or after the first queued update stays put: those
    // requests must be answered at the post-update epoch.
    if (hit_update || p.is_update) {
      hit_update = true;
      rest.push_back(std::move(p));
      continue;
    }
    CuboidGroup* group = nullptr;
    for (CuboidGroup& g : groups) {
      if (g.v.bits() == p.v.bits()) {
        group = &g;
        break;
      }
    }
    if (group == nullptr && groups.size() < kMaxBatchCuboids) {
      groups.push_back(CuboidGroup{p.v, {}});
      group = &groups.back();
    }
    if (group != nullptr) {
      group->waiters.push_back(std::move(p));
    } else {
      rest.push_back(std::move(p));
    }
  }
  queue_.swap(rest);
  return groups;
}

std::vector<SkylineServer::CuboidGroup> SkylineServer::PrepareBatch(
    std::vector<CuboidGroup> groups) {
  const auto dispatch_time = std::chrono::steady_clock::now();
  for (const CuboidGroup& g : groups) {
    for (const Pending& p : g.waiters) {
      queue_wait_.Record(ElapsedNanos(p.enqueued_at, dispatch_time));
    }
  }

  // Deterministic claim order: larger cuboids first, so results of this
  // cycle can seed its smaller members through the cuboid cache.
  std::sort(groups.begin(), groups.end(),
            [](const CuboidGroup& a, const CuboidGroup& b) {
              if (a.v.size() != b.v.size()) return a.v.size() > b.v.size();
              return a.v.bits() < b.v.bits();
            });

  // Dispatch-time triage: cancelled requests resolve now; expired ones
  // are shed or stale-served per policy (under kReject deadlines are
  // advisory and expired requests stay on the exact path).
  for (CuboidGroup& g : groups) {
    std::vector<Pending> live;
    std::vector<Pending> expired;
    live.reserve(g.waiters.size());
    for (Pending& p : g.waiters) {
      if (p.token.cancelled()) {
        triaged_.fetch_add(1, std::memory_order_relaxed);
        Resolve(*p.state, StatusCode::kCancelled, {});
      } else if (p.deadline <= dispatch_time &&
                 options_.policy != OverloadPolicy::kReject) {
        expired.push_back(std::move(p));
      } else {
        live.push_back(std::move(p));
      }
    }
    if (!expired.empty()) {
      triaged_.fetch_add(expired.size(), std::memory_order_relaxed);
      StaleAnswer answer;
      const StatusCode status =
          options_.policy == OverloadPolicy::kServeStale
              ? TryStaleAnswer(g.v, StatusCode::kDeadlineExceeded, &answer)
              : StatusCode::kDeadlineExceeded;
      // Exact cache serve past the deadline: these requests were
      // admitted and dispatched, so they are deadline misses — NOT fast
      // hits (which would double-count them against the admission-path
      // bucket).
      if (status == StatusCode::kOk) {
        deadline_misses_.fetch_add(expired.size(), std::memory_order_relaxed);
      }
      for (std::size_t i = 0; i < expired.size(); ++i) {
        Resolve(*expired[i].state, status,
                i + 1 == expired.size() ? std::move(answer.ids) : answer.ids,
                answer.epoch);
      }
    }
    g.waiters = std::move(live);
  }
  std::erase_if(groups, [](const CuboidGroup& g) { return g.waiters.empty(); });

  // Batch accounting AFTER triage: a cycle whose every request was
  // cancelled or shed computed nothing and is not a batch; only cuboids
  // with live waiters count, and batched_requests is exactly the
  // requests the batch computes answers for.
  if (!groups.empty()) {
    std::uint64_t live_requests = 0;
    for (const CuboidGroup& g : groups) live_requests += g.waiters.size();
    batches_.fetch_add(1, std::memory_order_relaxed);
    batched_cuboids_.fetch_add(groups.size(), std::memory_order_relaxed);
    batched_requests_.fetch_add(live_requests, std::memory_order_relaxed);
  }

  // Union seeding: when several distinct cuboids of this cycle have no
  // cached ancestor, one compute of their union gives the whole cycle a
  // shared seed — one full-dataset scan instead of one per member. The
  // probe also refreshes each seed ancestor's LRU stamp.
  std::uint64_t union_bits = 0;
  std::size_t unseeded = 0;
  for (const CuboidGroup& g : groups) {
    if (!service_.PeekNearestAncestor(g.v, nullptr, nullptr)) {
      union_bits |= g.v.bits();
      ++unseeded;
    }
  }
  if (unseeded >= kUnionSeedThreshold &&
      std::none_of(groups.begin(), groups.end(), [&](const CuboidGroup& g) {
        return g.v.bits() == union_bits;
      })) {
    service_.Query(Subspace(union_bits));
    union_seeds_.fetch_add(1, std::memory_order_relaxed);
  }

  return groups;
}

void SkylineServer::ComputeGroup(const CuboidGroup& group) {
  std::uint64_t epoch = 0;
  std::vector<PointId> ids = service_.Query(group.v, &epoch);
  const auto resolve_time = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < group.waiters.size(); ++i) {
    const Pending& p = group.waiters[i];
    if (p.deadline <= resolve_time) {
      deadline_misses_.fetch_add(1, std::memory_order_relaxed);
    }
    Resolve(*p.state, StatusCode::kOk,
            i + 1 == group.waiters.size() ? std::move(ids) : ids, epoch);
  }
}

StatusCode SkylineServer::TryStaleAnswer(Subspace v, StatusCode fallback,
                                         StaleAnswer* answer) {
  if (!service_.PeekStale(v, answer)) return fallback;
  stale_tests_.fetch_add(answer->tests, std::memory_order_relaxed);
  return answer->exact ? StatusCode::kOk : StatusCode::kStale;
}

ServerStatsSnapshot SkylineServer::Stats() const {
  ServerStatsSnapshot snap;
  snap.submitted = submitted_.load(std::memory_order_relaxed);
  snap.admitted = admitted_.load(std::memory_order_relaxed);
  snap.fast_hits = fast_hits_.load(std::memory_order_relaxed);
  snap.admission_resolved =
      admission_resolved_.load(std::memory_order_relaxed);
  snap.triaged = triaged_.load(std::memory_order_relaxed);
  snap.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  snap.stale_tests = stale_tests_.load(std::memory_order_relaxed);
  snap.batches = batches_.load(std::memory_order_relaxed);
  snap.batched_cuboids = batched_cuboids_.load(std::memory_order_relaxed);
  snap.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  snap.union_seeds = union_seeds_.load(std::memory_order_relaxed);
  snap.updates_submitted = updates_submitted_.load(std::memory_order_relaxed);
  snap.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  auto outcome = [this](StatusCode status) {
    return outcomes_[static_cast<std::size_t>(status)].load(
        std::memory_order_relaxed);
  };
  snap.resolved_ok = outcome(StatusCode::kOk);
  snap.stale_served = outcome(StatusCode::kStale);
  snap.rejected = outcome(StatusCode::kOverloaded);
  snap.shed_expired = outcome(StatusCode::kDeadlineExceeded);
  snap.cancelled = outcome(StatusCode::kCancelled);
  snap.invalid_argument = outcome(StatusCode::kInvalidArgument);
  snap.resolved_shutdown = outcome(StatusCode::kShutdown);
  snap.queue_wait = queue_wait_.Snap();
  snap.query = service_.Stats();
  return snap;
}

}  // namespace skyline

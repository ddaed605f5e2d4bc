// Deadline-aware batched admission front-end for QueryService — the
// asynchronous serving layer of the skyline system.
//
// QueryService (src/query) answers one subspace-skyline query per
// caller thread, synchronously: under a burst of misses every caller
// blocks on a cuboid computation with no deadline, no backpressure and
// no way to shed load. SkylineServer puts an admission + batching layer
// in front of it:
//
//   * Admission: Submit() never computes. It places the request on a
//     bounded queue and returns a ResponseHandle immediately; the
//     caller blocks only if and when it chooses to Wait(). A full queue
//     triggers the configured OverloadPolicy instead of unbounded
//     queueing.
//   * Batching: a worker pool drains the queue in dispatch cycles. One
//     cycle gathers up to 16 distinct cuboids plus EVERY queued
//     duplicate of them (same-cuboid coalescing), so a Zipf-hot cuboid
//     is computed once per cycle no matter how many requests queued
//     behind it. When a cycle holds two or more distinct cuboids that
//     are not yet seeded by a cached ancestor, the worker first
//     computes their UNION cuboid once and lets the cuboid cache seed
//     every member from it — one full-dataset scan amortized over
//     the whole batch instead of one scan per member (the top-down
//     skycube sharing scheme applied to the request stream itself).
//     One worker gathers and orders a cycle; every worker computes it:
//     the cycle's cuboid groups go on an open-cycle list, and a worker
//     claims the next group, largest cuboid first, of the oldest open
//     cycle before it gathers a new one.
//   * Deadlines: every request carries a relative timeout (kNoTimeout =
//     none). Deadlines are enforced at dispatch time: a request that
//     expired while queued is shed (kDeadlineExceeded), served a
//     bounded-staleness answer from the nearest cached ancestor
//     (kStale), or served exactly anyway and counted as a soft miss —
//     depending on the policy. Expiry during a compute never aborts the
//     compute; the result is served and counted as a deadline miss.
//   * Cancellation: a CancellationToken resolves the request with
//     kCancelled at its next dispatch; best-effort (a request already
//     being computed still completes as kOk).
//
//   * Mutation: SubmitUpdate() enqueues a dataset update (inserts +
//     removes) as a PRIVILEGED request class — never rejected or shed,
//     immune to queue_capacity. The batcher serializes it against query
//     batches: no query batch gathered before the update dispatches
//     after it, workers drain in-flight batches before applying it, and
//     no batch starts while it applies. It is applied by one
//     QueryService::ApplyUpdate call, which checks the batch under the
//     lock it applies it under; a refused batch resolves
//     kInvalidArgument and changes nothing. Every response carries the
//     epoch its answer reflects. The service repairs every cached cuboid
//     to the new epoch inside the update, so no answer, kStale ones
//     included, ever comes from an older epoch's cache entry.
//
// The server only admits, batches and maps outcomes onto statuses:
// every row read and every kernel choice happens inside QueryService.
//
// Status contract (tests/server/ asserts it): kOk answers are EXACT at
// the response's `epoch` and ascending; kStale answers are a sorted
// SUBSET of the exact answer at the response's `epoch` (every returned
// id is truly in that skyline — only duplicate-projection ties may be
// missing); every other status carries no ids.
//
// See docs/server.md for the admission/batching/degradation state
// machine and its invariants; src/server/client.h adds the
// retry-with-backoff client helper for transient kOverloaded results.
#ifndef SKYLINE_SERVER_SERVER_H_
#define SKYLINE_SERVER_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/subspace.h"
#include "src/core/sync.h"
#include "src/harness/histogram.h"
#include "src/query/query_service.h"

namespace skyline {

/// Terminal status of a submitted request.
enum class StatusCode {
  kOk,                ///< Exact answer, ids ascending.
  kStale,             ///< Degraded answer: sorted subset of the exact one.
  kOverloaded,        ///< Rejected at admission (queue full). Retryable.
  kDeadlineExceeded,  ///< Shed: the deadline passed before dispatch.
  kCancelled,         ///< The request's CancellationToken fired.
  kShutdown,          ///< Server destroyed before the request dispatched.
  /// Malformed request: an empty subspace or one outside the dataset's
  /// space, or an update that ApplyUpdate refuses. Not retryable.
  /// Keep it last: it sizes the server's per-status counters.
  kInvalidArgument,
};

/// Human-readable status name ("kOk", ...), for logs and tests.
const char* StatusCodeName(StatusCode code);

/// No-deadline sentinel for Submit()'s relative timeout.
inline constexpr std::chrono::nanoseconds kNoTimeout =
    std::chrono::nanoseconds::max();

/// How admission and dispatch degrade under pressure.
enum class OverloadPolicy {
  /// Full queue: reject with kOverloaded. Deadlines are advisory —
  /// expired requests are still served exactly and only counted as
  /// deadline misses.
  kReject,
  /// Full queue: first shed queued requests whose deadline already
  /// passed (kDeadlineExceeded), then admit if room, else reject.
  /// Expired requests are shed at dispatch instead of computed.
  kShedExpired,
  /// Like kShedExpired, but an expired or inadmissible request is
  /// served a bounded-staleness answer from the nearest cached ancestor
  /// cuboid (kStale) instead of being dropped, when one exists.
  kServeStale,
};

/// Tuning knobs of the serving layer.
struct ServerOptions {
  /// Bound on queued (admitted, undispatched) requests. A Submit that
  /// finds the queue full triggers `policy`. 0 is legal and makes every
  /// Submit an overload (useful for testing the degradation paths).
  std::size_t queue_capacity = 1024;

  /// Worker threads draining the queue; 0 = hardware pick.
  unsigned workers = 0;

  /// Degradation policy under overload and for expired requests.
  OverloadPolicy policy = OverloadPolicy::kShedExpired;

  /// Resolve a Submit whose exact cuboid is already cached and ready
  /// inline, without queueing — cache hits then never pay queue latency
  /// or a dispatch cycle.
  bool inline_fast_hits = true;

  /// Spawn the worker pool in the constructor. With false, the server
  /// only queues until Start() is called — deterministic batch
  /// composition for tests and benchmarks.
  bool auto_start = true;

  /// Options of the inner QueryService (cache bounds, pinning, seeded
  /// kernels, ...).
  QueryServiceOptions query;
};

/// Cooperative cancellation handle; copyable, thread-safe. All copies
/// share one flag.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() const { flag_->store(true, std::memory_order_release); }
  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Terminal answer of one request.
struct ServerResponse {
  StatusCode status = StatusCode::kShutdown;
  /// kOk: the exact skyline ids, ascending. kStale: a sorted subset of
  /// them. Empty for every other status.
  std::vector<PointId> ids;
  /// Dataset epoch the answer reflects (kOk/kStale; for a SubmitUpdate
  /// handle, the epoch the update installed). 0 otherwise.
  std::uint64_t epoch = 0;
  /// When the server resolved the request (steady clock) — lets callers
  /// compute true request latency without measuring their own Wait()
  /// wakeup delay.
  std::chrono::steady_clock::time_point resolved_at{};

  bool ok() const {
    return status == StatusCode::kOk || status == StatusCode::kStale;
  }
};

namespace internal {

/// Shared one-shot slot a request is resolved into. Resolved exactly
/// once (done flips under mu); waiters block on cv.
struct ServerResultState {
  Mutex mu;
  CondVar cv;
  bool done SKYLINE_GUARDED_BY(mu) = false;
  StatusCode status SKYLINE_GUARDED_BY(mu) = StatusCode::kShutdown;
  std::vector<PointId> ids SKYLINE_GUARDED_BY(mu);
  std::uint64_t epoch SKYLINE_GUARDED_BY(mu) = 0;
  std::chrono::steady_clock::time_point resolved_at SKYLINE_GUARDED_BY(mu);
};

}  // namespace internal

/// Caller-side view of a submitted request. Cheap to copy; outlives the
/// server (a handle resolved kShutdown stays readable after the server
/// is gone).
class ResponseHandle {
 public:
  ResponseHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the request resolves; repeatable (returns a copy).
  ServerResponse Wait() const;

  /// Non-blocking poll: copies the response into `*out` and returns
  /// true once resolved.
  bool TryGet(ServerResponse* out) const;

 private:
  friend class SkylineServer;
  explicit ResponseHandle(std::shared_ptr<internal::ServerResultState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::ServerResultState> state_;
};

/// Counters of the serving layer, cumulative since construction, plus
/// the inner QueryService snapshot.
struct ServerStatsSnapshot {
  std::uint64_t submitted = 0;  ///< Submit() calls (queries only).
  std::uint64_t admitted = 0;   ///< Entered the queue.
  /// Resolved kOk straight from the cache WITHOUT a dispatch cycle —
  /// the inline path in Submit() or the cache-exact branch of the
  /// kServeStale admission fallback. A request that was admitted and
  /// later served from the cache at dispatch is NOT a fast hit (it is
  /// batched, and a deadline miss if expired).
  std::uint64_t fast_hits = 0;
  /// Requests resolved at Submit() time without entering the queue:
  /// malformed subspaces, inline fast hits, admission rejections, the
  /// kServeStale admission fallback, and submits against a stopping
  /// server. Admission identity: submitted == admitted +
  /// admission_resolved.
  std::uint64_t admission_resolved = 0;
  /// Admitted requests resolved WITHOUT a batch compute: shed from the
  /// queue by the make-room pass, or triaged at dispatch (cancelled,
  /// shed expired, expired served from the cache). Queue identity once
  /// the queue is drained: admitted == batched_requests + triaged
  /// (+ requests orphaned by shutdown).
  std::uint64_t triaged = 0;
  std::uint64_t deadline_misses = 0;  ///< kOk served past the deadline.
  std::uint64_t stale_tests = 0;   ///< Dominance tests on the stale path.
  /// Dispatch cycles that computed at least one cuboid for a live
  /// waiter. Cycles fully consumed by triage (all requests cancelled or
  /// shed) are not batches.
  std::uint64_t batches = 0;
  std::uint64_t batched_cuboids = 0;   ///< Distinct cuboids computed.
  std::uint64_t batched_requests = 0;  ///< Requests resolved by a batch
                                       ///< compute (kOk at dispatch).
  std::uint64_t union_seeds = 0;  ///< Union cuboids computed as batch seeds.

  // ---- Mutation counters ----
  std::uint64_t updates_submitted = 0;  ///< SubmitUpdate() calls.
  std::uint64_t updates_applied = 0;    ///< Updates the batcher applied.

  // ---- Terminal outcomes: one counter per StatusCode ----
  // Each counts its status at the resolve transition itself, exactly
  // once per handle, so after every handle of a run has resolved:
  //   submitted + updates_submitted == resolved_total()
  // (an update handle resolves kOk, kInvalidArgument, or kShutdown when
  // never applied).
  std::uint64_t resolved_ok = 0;       ///< kOk (queries and updates).
  std::uint64_t stale_served = 0;      ///< kStale.
  std::uint64_t rejected = 0;          ///< kOverloaded at admission.
  std::uint64_t shed_expired = 0;      ///< kDeadlineExceeded (queue or
                                       ///< dispatch).
  std::uint64_t cancelled = 0;         ///< kCancelled (admission make-room
                                       ///< pass or dispatch).
  std::uint64_t invalid_argument = 0;  ///< kInvalidArgument.
  std::uint64_t resolved_shutdown = 0;  ///< kShutdown.

  LatencyHistogram::Snapshot queue_wait;  ///< Submit-to-dispatch wait.
  QueryStatsSnapshot query;               ///< Inner QueryService counters.

  /// Requests per dispatch cycle — the coalescing factor.
  double MeanBatchSize() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_requests) /
                              static_cast<double>(batches);
  }

  std::uint64_t resolved_total() const {
    return resolved_ok + stale_served + rejected + shed_expired + cancelled +
           invalid_argument + resolved_shutdown;
  }
};

/// Asynchronous, deadline-aware, batching skyline server over one
/// Dataset, snapshotted as epoch 0: as for QueryService, the caller's
/// Dataset only has to outlive the constructor, and all later mutation
/// goes through SubmitUpdate. All public methods are safe to call
/// concurrently.
class SkylineServer {
 public:
  explicit SkylineServer(const Dataset& data, ServerOptions options = {});

  /// Resolves every still-queued request with kShutdown, then joins the
  /// workers. Cycles already gathered, unclaimed groups included, finish
  /// and resolve normally.
  ~SkylineServer();

  SkylineServer(const SkylineServer&) = delete;
  SkylineServer& operator=(const SkylineServer&) = delete;

  /// Spawns the worker pool; idempotent. Only needed with
  /// ServerOptions::auto_start == false.
  void Start() SKYLINE_EXCLUDES(mu_);

  /// Non-blocking admission of a skyline query for the subspace `v`
  /// with a relative deadline of `timeout` (kNoTimeout = none; <= 0 =
  /// already expired, subject to the overload policy at dispatch). An
  /// empty `v`, or one outside the dataset's space, resolves
  /// kInvalidArgument at once. The returned handle always resolves —
  /// with one of the StatusCode outcomes — even across server shutdown.
  ResponseHandle Submit(Subspace v,
                        std::chrono::nanoseconds timeout = kNoTimeout,
                        CancellationToken token = {}) SKYLINE_EXCLUDES(mu_);

  /// Non-blocking admission of a dataset update: `inserts` is a
  /// row-major block of k * num_dims values appended as k new points,
  /// `removes` tombstones live pre-existing points (see
  /// QueryService::ApplyUpdate for the id rules). Updates are a
  /// privileged request class: never rejected, shed or cancelled, and
  /// exempt from queue_capacity. The batcher serializes the update
  /// against query batches in queue order; the handle resolves kOk with
  /// `epoch` set to the epoch the update installed (ids empty). A
  /// malformed update resolves kInvalidArgument and leaves the epoch
  /// unchanged: a partial row at admission, a batch ApplyUpdate refuses
  /// (a bad remove id) when the update dispatches. Only shutdown
  /// otherwise resolves an update without applying it.
  ResponseHandle SubmitUpdate(std::vector<Value> inserts,
                              std::vector<PointId> removes)
      SKYLINE_EXCLUDES(mu_);

  /// Convenience: Submit + Wait.
  ServerResponse Query(Subspace v,
                       std::chrono::nanoseconds timeout = kNoTimeout)
      SKYLINE_EXCLUDES(mu_);

  /// Copies the current counters; safe to call concurrently.
  ServerStatsSnapshot Stats() const SKYLINE_EXCLUDES(mu_);

  const ServerOptions& options() const { return options_; }
  const QueryService& service() const { return service_; }

 private:
  /// One admitted, undispatched request — a query, or a privileged
  /// dataset update (is_update) that the batcher serializes against
  /// query batches.
  struct Pending {
    Subspace v;
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point enqueued_at;
    CancellationToken token;
    std::shared_ptr<internal::ServerResultState> state;
    bool is_update = false;
    std::vector<Value> inserts;    ///< is_update only: row-major block.
    std::vector<PointId> removes;  ///< is_update only.
  };

  /// All requests of one distinct cuboid within a dispatch cycle.
  struct CuboidGroup {
    Subspace v;
    std::vector<Pending> waiters;
  };

  /// A prepared cycle whose groups any worker may claim. Every field is
  /// read and written under mu_ only.
  struct OpenCycle {
    std::vector<CuboidGroup> groups;  ///< Claim order: superset-first.
    std::size_t next = 0;             ///< First unclaimed group.
    std::size_t unresolved = 0;       ///< Groups not yet resolved.
  };

  /// Resolves `state` exactly once (later calls are no-ops) and — only
  /// on the actual transition — counts the outcome of `status`: the one
  /// place an outcome is counted, so the accounting identity in
  /// ServerStatsSnapshot holds by construction.
  void Resolve(internal::ServerResultState& state, StatusCode status,
               std::vector<PointId> ids, std::uint64_t epoch = 0);

  void WorkerLoop() SKYLINE_EXCLUDES(mu_);

  /// Pops the next dispatch cycle off the queue: up to
  /// kMaxBatchCuboids distinct cuboids from the front plus every
  /// queued duplicate of them. Stops at the first queued update — a
  /// query submitted after an update must never coalesce into a batch
  /// dispatched before it.
  std::vector<CuboidGroup> GatherBatch() SKYLINE_REQUIRES(mu_);

  /// Readies one gathered cycle for the workers: records queue waits,
  /// sorts the groups superset-first, triages (cancels, sheds or
  /// stale-serves) its requests, counts the batch and computes the union
  /// seed. Returns the groups that still have live waiters, in claim
  /// order.
  std::vector<CuboidGroup> PrepareBatch(std::vector<CuboidGroup> groups)
      SKYLINE_EXCLUDES(mu_);

  /// Computes one claimed group's cuboid and resolves its waiters.
  void ComputeGroup(const CuboidGroup& group) SKYLINE_EXCLUDES(mu_);

  /// Maps QueryService::PeekStale onto a status: kOk for the exact
  /// cached cuboid, kStale for a core over an ancestor, and
  /// `fallback` (with `*answer` left empty) when nothing ⊇ v is cached.
  StatusCode TryStaleAnswer(Subspace v, StatusCode fallback,
                            StaleAnswer* answer);

  const ServerOptions options_;
  QueryService service_;  // unguarded: internally synchronized

  mutable Mutex mu_;
  CondVar queue_cv_;
  std::deque<Pending> queue_ SKYLINE_GUARDED_BY(mu_);
  bool stopping_ SKYLINE_GUARDED_BY(mu_) = false;
  bool started_ SKYLINE_GUARDED_BY(mu_) = false;
  /// The update barrier: while an update is being applied no query
  /// batch may start, and an update may only start once every in-flight
  /// batch has drained.
  bool update_active_ SKYLINE_GUARDED_BY(mu_) = false;
  /// Cycles gathered and not yet fully resolved: a cycle counts from its
  /// gather until its last group resolves, on whichever worker.
  std::size_t inflight_batches_ SKYLINE_GUARDED_BY(mu_) = 0;
  /// Prepared cycles with unclaimed groups, oldest first. A worker
  /// claims from the front before it gathers a new cycle; a claimer
  /// holds its cycle until the group resolves.
  std::deque<std::shared_ptr<OpenCycle>> open_cycles_ SKYLINE_GUARDED_BY(mu_);
  // Written only while holding mu_ in Start(); joined in the destructor
  // after every worker exited, so never accessed concurrently.
  std::vector<std::thread> workers_;  // unguarded: joined before access

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> fast_hits_{0};
  std::atomic<std::uint64_t> admission_resolved_{0};
  std::atomic<std::uint64_t> triaged_{0};
  std::atomic<std::uint64_t> deadline_misses_{0};
  std::atomic<std::uint64_t> stale_tests_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_cuboids_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::atomic<std::uint64_t> union_seeds_{0};
  std::atomic<std::uint64_t> updates_submitted_{0};
  std::atomic<std::uint64_t> updates_applied_{0};
  /// Resolved handles per StatusCode (its value is the index); written
  /// by Resolve only.
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(StatusCode::kInvalidArgument) + 1>
      outcomes_{};
  LatencyHistogram queue_wait_;  // unguarded: internally lock-free atomics
};

}  // namespace skyline

#endif  // SKYLINE_SERVER_SERVER_H_

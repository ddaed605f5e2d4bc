// Unit tests of the SkylineServer admission/batching/degradation layer:
// exact answers, inline fast hits, deferred start, same-cuboid
// coalescing, union seeding, every overload policy, cancellation,
// shutdown, deadline accounting, malformed requests, and the retry
// client.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/data/generator.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/skycube/skycube.h"

namespace skyline {
namespace {

using std::chrono::nanoseconds;

std::map<std::uint64_t, std::vector<PointId>> AllOracles(const Dataset& data) {
  std::map<std::uint64_t, std::vector<PointId>> oracles;
  for (std::uint64_t bits = 1; bits < (std::uint64_t{1} << data.num_dims());
       ++bits) {
    oracles[bits] = SubspaceSkyline(data, Subspace(bits));
  }
  return oracles;
}

bool IsSortedSubsetOf(const std::vector<PointId>& sub,
                      const std::vector<PointId>& super) {
  return std::is_sorted(sub.begin(), sub.end()) &&
         std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

TEST(SkylineServerTest, AnswersEveryCuboidExactly) {
  const Dataset data = Generate(DataType::kUniformIndependent, 300, 4, 81);
  const auto oracles = AllOracles(data);
  SkylineServer server(data);
  for (const auto& [bits, oracle] : oracles) {
    const ServerResponse response = server.Query(Subspace(bits));
    EXPECT_EQ(response.status, StatusCode::kOk) << bits;
    EXPECT_EQ(response.ids, oracle) << bits;
  }
  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.submitted, oracles.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed_expired, 0u);
}

TEST(SkylineServerTest, RepeatQueryResolvesInlineAsFastHit) {
  const Dataset data = Generate(DataType::kCorrelated, 200, 3, 82);
  SkylineServer server(data);
  const Subspace v(0b011);
  const ServerResponse first = server.Query(v);
  const ServerResponse second = server.Query(v);
  EXPECT_EQ(first.status, StatusCode::kOk);
  EXPECT_EQ(second.status, StatusCode::kOk);
  EXPECT_EQ(first.ids, second.ids);
  EXPECT_GE(server.Stats().fast_hits, 1u);
  // The pinned full space is cached from construction: inline fast hit.
  const ServerResponse full = server.Query(Subspace::Full(3));
  EXPECT_EQ(full.status, StatusCode::kOk);
  EXPECT_GE(server.Stats().fast_hits, 2u);
}

TEST(SkylineServerTest, DeferredStartQueuesUntilStart) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 4, 83);
  ServerOptions options;
  options.auto_start = false;
  options.inline_fast_hits = false;  // keep even cached cuboids queued
  SkylineServer server(data, options);
  std::vector<ResponseHandle> handles;
  for (std::uint64_t bits = 1; bits <= 5; ++bits) {
    handles.push_back(server.Submit(Subspace(bits)));
  }
  ServerResponse probe;
  for (const ResponseHandle& h : handles) {
    EXPECT_TRUE(h.valid());
    EXPECT_FALSE(h.TryGet(&probe));  // nothing dispatches before Start
  }
  server.Start();
  for (std::uint64_t bits = 1; bits <= 5; ++bits) {
    const ServerResponse response = handles[bits - 1].Wait();
    EXPECT_EQ(response.status, StatusCode::kOk);
    EXPECT_EQ(response.ids, SubspaceSkyline(data, Subspace(bits)));
  }
}

TEST(SkylineServerTest, SameCuboidRequestsCoalesceIntoOneCompute) {
  const Dataset data = Generate(DataType::kUniformIndependent, 250, 4, 84);
  ServerOptions options;
  options.auto_start = false;
  options.workers = 1;
  options.inline_fast_hits = false;
  SkylineServer server(data, options);
  const Subspace v(0b0101);
  std::vector<ResponseHandle> handles;
  for (int i = 0; i < 16; ++i) handles.push_back(server.Submit(v));
  server.Start();
  const std::vector<PointId> oracle = SubspaceSkyline(data, v);
  for (const ResponseHandle& h : handles) {
    const ServerResponse response = h.Wait();
    EXPECT_EQ(response.status, StatusCode::kOk);
    EXPECT_EQ(response.ids, oracle);
  }
  const ServerStatsSnapshot stats = server.Stats();
  // All 16 queued before the single worker started: one dispatch cycle,
  // one distinct cuboid, one inner Query.
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_cuboids, 1u);
  EXPECT_EQ(stats.batched_requests, 16u);
  EXPECT_EQ(stats.query.queries, 1u);
  EXPECT_EQ(stats.queue_wait.total, 16u);
}

TEST(SkylineServerTest, UnionSeedAmortizesColdScansAcrossBatch) {
  const Dataset data = Generate(DataType::kAntiCorrelated, 300, 4, 85);
  const Subspace a(0b0001);
  const Subspace b(0b0010);
  // The gathering worker seeds the cycle before any worker claims a
  // member, so the counts do not depend on the worker count.
  for (unsigned workers : {1u, 2u}) {
    SCOPED_TRACE(workers);
    ServerOptions options;
    options.auto_start = false;
    options.workers = workers;
    options.query.pin_full_space = false;  // no universal ancestor
    SkylineServer server(data, options);
    ResponseHandle ha = server.Submit(a);
    ResponseHandle hb = server.Submit(b);
    server.Start();
    EXPECT_EQ(ha.Wait().ids, SubspaceSkyline(data, a));
    EXPECT_EQ(hb.Wait().ids, SubspaceSkyline(data, b));
    const ServerStatsSnapshot stats = server.Stats();
    EXPECT_EQ(stats.union_seeds, 1u);
    // One cold scan (the union 0b0011), both members seeded from it.
    EXPECT_EQ(stats.query.cold, 1u);
    EXPECT_EQ(stats.query.seeded, 2u);
  }
}

TEST(SkylineServerTest, RejectPolicyOverloadsOnZeroCapacity) {
  const Dataset data = Generate(DataType::kUniformIndependent, 150, 3, 86);
  ServerOptions options;
  options.auto_start = false;  // workers never needed
  options.queue_capacity = 0;
  options.policy = OverloadPolicy::kReject;
  options.inline_fast_hits = false;
  SkylineServer server(data, options);
  const ServerResponse response = server.Query(Subspace(0b001));
  EXPECT_EQ(response.status, StatusCode::kOverloaded);
  EXPECT_TRUE(response.ids.empty());
  EXPECT_EQ(server.Stats().rejected, 1u);
}

TEST(SkylineServerTest, ServeStalePolicyDegradesAtAdmission) {
  const Dataset data = Generate(DataType::kAntiCorrelated, 300, 4, 87);
  const auto oracles = AllOracles(data);
  // The pinned full-space seed stays below the default boost threshold,
  // so the first run computes every core on the BNL. Threshold 1 sends
  // the same seed to SfsSubset, whose cores must equal the BNL's.
  const std::size_t default_threshold =
      QueryServiceOptions{}.seeded_boost_threshold;
  ASSERT_LT(oracles.at(15).size(), default_threshold);
  std::map<std::uint64_t, std::vector<PointId>> bnl_cores;
  std::uint64_t bnl_tests = 0;
  for (std::size_t threshold : {default_threshold, std::size_t{1}}) {
    SCOPED_TRACE(threshold);
    ServerOptions options;
    options.auto_start = false;
    options.queue_capacity = 0;  // every Submit is an overload
    options.policy = OverloadPolicy::kServeStale;
    options.inline_fast_hits = false;
    options.query.seeded_boost_threshold = threshold;
    SkylineServer server(data, options);  // pinned full space = the ancestor
    for (std::uint64_t bits = 1; bits < 15; ++bits) {
      const ServerResponse response = server.Query(Subspace(bits));
      EXPECT_EQ(response.status, StatusCode::kStale) << bits;
      EXPECT_TRUE(IsSortedSubsetOf(response.ids, oracles.at(bits))) << bits;
      EXPECT_FALSE(response.ids.empty()) << bits;  // core is never empty here
      if (threshold == default_threshold) {
        bnl_cores[bits] = response.ids;
      } else {
        EXPECT_EQ(response.ids, bnl_cores.at(bits)) << bits;
      }
    }
    // The exact full-space cuboid is cached: the stale path returns it
    // exactly, as kOk.
    const ServerResponse full = server.Query(Subspace::Full(4));
    EXPECT_EQ(full.status, StatusCode::kOk);
    EXPECT_EQ(full.ids, oracles.at(15));
    const ServerStatsSnapshot stats = server.Stats();
    EXPECT_EQ(stats.stale_served, 14u);
    EXPECT_GT(stats.stale_tests, 0u);
    EXPECT_EQ(stats.rejected, 0u);
    // The same cores at a different cost: the other kernel ran.
    if (threshold == default_threshold) {
      bnl_tests = stats.stale_tests;
    } else {
      EXPECT_NE(stats.stale_tests, bnl_tests);
    }
  }
}

TEST(SkylineServerTest, ServeStaleFallsBackToOverloadedWithoutAncestor) {
  const Dataset data = Generate(DataType::kUniformIndependent, 150, 3, 88);
  ServerOptions options;
  options.auto_start = false;
  options.queue_capacity = 0;
  options.policy = OverloadPolicy::kServeStale;
  options.query.pin_full_space = false;  // empty cache: nothing to serve
  SkylineServer server(data, options);
  const ServerResponse response = server.Query(Subspace(0b001));
  EXPECT_EQ(response.status, StatusCode::kOverloaded);
  EXPECT_EQ(server.Stats().rejected, 1u);
}

TEST(SkylineServerTest, ServeStaleServesAnExpiredCachedCuboidAtDispatch) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 4, 102);
  ServerOptions options;
  options.auto_start = false;
  options.workers = 1;
  options.policy = OverloadPolicy::kServeStale;
  options.inline_fast_hits = false;  // queue even the cached full space
  SkylineServer server(data, options);
  const Subspace full = Subspace::Full(4);
  ResponseHandle handle = server.Submit(full, nanoseconds(0));
  server.Start();
  // Expired at dispatch, but the pinned cuboid is cached and current:
  // served exactly, and counted as a deadline miss, not a fast hit.
  const ServerResponse response = handle.Wait();
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.ids, SubspaceSkyline(data, full));
  EXPECT_EQ(response.epoch_delta, 0u);
  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.triaged, 1u);
  EXPECT_EQ(stats.fast_hits, 0u);
  EXPECT_EQ(stats.stale_served, 0u);
  EXPECT_EQ(stats.batched_requests, 0u);
  EXPECT_EQ(stats.query.queries, 0u);
  EXPECT_EQ(stats.submitted, stats.admitted + stats.admission_resolved);
  EXPECT_EQ(stats.admitted, stats.batched_requests + stats.triaged);
  EXPECT_EQ(stats.submitted + stats.updates_submitted, stats.resolved_total());
}

TEST(SkylineServerTest, ShedExpiredDropsPastDeadlineRequestsAtDispatch) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 4, 89);
  ServerOptions options;
  options.auto_start = false;
  options.workers = 1;
  options.policy = OverloadPolicy::kShedExpired;
  options.inline_fast_hits = false;
  SkylineServer server(data, options);
  std::vector<ResponseHandle> handles;
  for (std::uint64_t bits = 1; bits <= 6; ++bits) {
    handles.push_back(server.Submit(Subspace(bits), nanoseconds(0)));
  }
  server.Start();
  for (const ResponseHandle& h : handles) {
    const ServerResponse response = h.Wait();
    EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(response.ids.empty());
  }
  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.shed_expired, 6u);
  EXPECT_EQ(stats.query.queries, 0u);  // shed before any compute
}

TEST(SkylineServerTest, RejectPolicyTreatsDeadlinesAsAdvisory) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 4, 90);
  ServerOptions options;
  options.auto_start = false;
  options.workers = 1;
  options.policy = OverloadPolicy::kReject;
  options.inline_fast_hits = false;
  SkylineServer server(data, options);
  const Subspace v(0b0110);
  ResponseHandle handle = server.Submit(v, nanoseconds(0));
  server.Start();
  const ServerResponse response = handle.Wait();
  EXPECT_EQ(response.status, StatusCode::kOk);  // served exactly anyway
  EXPECT_EQ(response.ids, SubspaceSkyline(data, v));
  EXPECT_EQ(server.Stats().deadline_misses, 1u);
  EXPECT_EQ(server.Stats().shed_expired, 0u);
}

TEST(SkylineServerTest, CancellationResolvesAtDispatch) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 4, 91);
  ServerOptions options;
  options.auto_start = false;
  options.inline_fast_hits = false;
  SkylineServer server(data, options);
  CancellationToken token;
  ResponseHandle handle = server.Submit(Subspace(0b0011), kNoTimeout, token);
  token.Cancel();
  server.Start();
  const ServerResponse response = handle.Wait();
  EXPECT_EQ(response.status, StatusCode::kCancelled);
  EXPECT_TRUE(response.ids.empty());
  EXPECT_EQ(server.Stats().cancelled, 1u);
}

TEST(SkylineServerTest, DestructionResolvesQueuedRequestsAsShutdown) {
  const Dataset data = Generate(DataType::kUniformIndependent, 150, 3, 92);
  ResponseHandle handle;
  {
    ServerOptions options;
    options.auto_start = false;  // never started: the request stays queued
    options.inline_fast_hits = false;
    SkylineServer server(data, options);
    handle = server.Submit(Subspace(0b101));
  }
  const ServerResponse response = handle.Wait();  // handle outlives the server
  EXPECT_EQ(response.status, StatusCode::kShutdown);
  EXPECT_TRUE(response.ids.empty());
}

TEST(SkylineServerTest, DestructionRightAfterStartResolvesEveryHandle) {
  const Dataset data = Generate(DataType::kAntiCorrelated, 400, 4, 101);
  const auto oracles = AllOracles(data);
  std::vector<ResponseHandle> queries;  // queries[i] asks cuboid i + 1
  ResponseHandle update;
  ServerStatsSnapshot before;
  {
    ServerOptions options;
    options.auto_start = false;
    options.workers = 2;
    options.inline_fast_hits = false;
    SkylineServer server(data, options);
    for (std::uint64_t bits = 1; bits < 16; ++bits) {
      queries.push_back(server.Submit(Subspace(bits)));
    }
    update = server.SubmitUpdate(std::vector<Value>(4, -1.0), {});
    before = server.Stats();
    server.Start();
  }  // destroyed while the workers gather, prepare or compute the cycle

  // The counters die with the server, so the identity
  // submitted + updates_submitted == resolved_total() is checked on
  // the handles: each must have resolved exactly once.
  std::uint64_t resolved = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ServerResponse response;
    ASSERT_TRUE(queries[i].TryGet(&response)) << i + 1;
    ++resolved;
    if (response.status == StatusCode::kOk) {
      EXPECT_EQ(response.epoch, 0u) << i + 1;
      EXPECT_EQ(response.ids, oracles.at(i + 1)) << i + 1;
    } else {
      EXPECT_EQ(response.status, StatusCode::kShutdown) << i + 1;
      EXPECT_TRUE(response.ids.empty()) << i + 1;
    }
  }
  ServerResponse applied;
  ASSERT_TRUE(update.TryGet(&applied));
  ++resolved;
  if (applied.status == StatusCode::kOk) {
    EXPECT_EQ(applied.epoch, 1u);
  } else {
    EXPECT_EQ(applied.status, StatusCode::kShutdown);
  }
  EXPECT_EQ(before.submitted + before.updates_submitted, resolved);
}

TEST(SkylineServerTest, MalformedSubspacesResolveInvalidArgument) {
  // Checked at admission in every build type: none of these reaches the
  // service, so none can read past a row.
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 3, 104);
  SkylineServer server(data);
  for (const Subspace v : {Subspace(), Subspace::Single(40), Subspace{0, 3}}) {
    const ServerResponse response = server.Query(v);
    EXPECT_EQ(response.status, StatusCode::kInvalidArgument) << v.ToString();
    EXPECT_TRUE(response.ids.empty()) << v.ToString();
  }
  const Subspace v(0b101);
  EXPECT_EQ(server.Query(v).ids, SubspaceSkyline(data, v));
  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.invalid_argument, 3u);
  EXPECT_EQ(stats.query.queries, 1u);
  EXPECT_EQ(stats.submitted, stats.admitted + stats.admission_resolved);
  EXPECT_EQ(stats.admitted, stats.batched_requests + stats.triaged);
  EXPECT_EQ(stats.submitted + stats.updates_submitted, stats.resolved_total());
}

TEST(SkylineServerTest, ConstructionDatasetMayDieAfterTheConstructor) {
  // The server reads the dataset's shape from its service, which
  // snapshots the rows: no path may read the caller's copy again.
  auto data = std::make_unique<Dataset>(
      Generate(DataType::kUniformIndependent, 200, 3, 105));
  const Dataset copy = *data;
  ServerOptions options;
  options.workers = 1;
  SkylineServer server(*data, options);
  data.reset();  // a later read of it is a heap use-after-free (ASan)
  const Subspace v(0b011);
  EXPECT_EQ(server.Query(v).ids, SubspaceSkyline(copy, v));
  EXPECT_EQ(server.Query(Subspace::Single(3)).status,
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.SubmitUpdate(std::vector<Value>{0.5, 0.5}, {}).Wait().status,
            StatusCode::kInvalidArgument);
  const ServerResponse applied =
      server.SubmitUpdate(std::vector<Value>{-1.0, -1.0, -1.0}, {3}).Wait();
  EXPECT_EQ(applied.status, StatusCode::kOk);
  EXPECT_EQ(applied.epoch, 1u);
  const ServerResponse after = server.Query(Subspace(0b110));
  EXPECT_EQ(after.ids, std::vector<PointId>{200});
  EXPECT_EQ(after.epoch, 1u);
}

TEST(SkylineServerTest, StatsAreInternallyConsistent) {
  const Dataset data = Generate(DataType::kUniformIndependent, 250, 4, 93);
  SkylineServer server(data);
  for (std::uint64_t bits = 1; bits < 16; ++bits) {
    server.Query(Subspace(bits));
    server.Query(Subspace(bits));  // second round: inline fast hits
  }
  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.submitted, 30u);
  EXPECT_EQ(stats.submitted, stats.admitted + stats.fast_hits);
  EXPECT_EQ(stats.batched_requests, stats.admitted);
  EXPECT_EQ(stats.queue_wait.total, stats.admitted);
  EXPECT_GT(stats.MeanBatchSize(), 0.0);
}

TEST(SkylineServerTest, StatusCodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "kOk");
  EXPECT_STREQ(StatusCodeName(StatusCode::kStale), "kStale");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOverloaded), "kOverloaded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "kDeadlineExceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "kCancelled");
  EXPECT_STREQ(StatusCodeName(StatusCode::kShutdown), "kShutdown");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "kInvalidArgument");
}

TEST(SkylineServerUpdateTest, SubmitUpdateAppliesAndTagsEpoch) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 3, 96);
  SkylineServer server(data);
  // A point dominating everything: after the update, every cuboid
  // collapses to the new id.
  ResponseHandle update =
      server.SubmitUpdate(std::vector<Value>{-1.0, -1.0, -1.0}, {});
  const ServerResponse applied = update.Wait();
  EXPECT_EQ(applied.status, StatusCode::kOk);
  EXPECT_EQ(applied.epoch, 1u);
  EXPECT_EQ(applied.epoch_delta, 0u);
  EXPECT_TRUE(applied.ids.empty());

  const ServerResponse response = server.Query(Subspace(0b011));
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.ids, std::vector<PointId>{200});
  EXPECT_EQ(response.epoch, 1u);

  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.updates_submitted, 1u);
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.query.epoch, 1u);
  EXPECT_EQ(stats.submitted + stats.updates_submitted, stats.resolved_total());
}

TEST(SkylineServerUpdateTest, UpdateIsABarrierBetweenQueuedBatches) {
  const Dataset data = Generate(DataType::kAntiCorrelated, 2000, 3, 97);
  ServerOptions options;
  options.auto_start = false;
  options.workers = 2;  // the barrier, not worker count, must order them
  options.inline_fast_hits = false;
  SkylineServer server(data, options);
  const Subspace v(0b111);

  // Queue order: queries on four cuboids | update (dominating point) |
  // query B. The batcher must gather the four into one cycle, resolve
  // all of them (on both workers) before the update, and dispatch B
  // after it.
  const std::uint64_t cuboids[] = {0b111, 0b011, 0b101, 0b001};
  std::vector<ResponseHandle> before;
  for (std::uint64_t bits : cuboids) {
    before.push_back(server.Submit(Subspace(bits)));
  }
  ResponseHandle update =
      server.SubmitUpdate(std::vector<Value>{-1.0, -1.0, -1.0}, {});
  ResponseHandle after = server.Submit(v);
  server.Start();

  for (std::size_t i = 0; i < before.size(); ++i) {
    const ServerResponse a = before[i].Wait();
    EXPECT_EQ(a.status, StatusCode::kOk) << cuboids[i];
    EXPECT_EQ(a.epoch, 0u) << cuboids[i];
    EXPECT_EQ(a.ids, SubspaceSkyline(data, Subspace(cuboids[i])))
        << cuboids[i];
  }

  EXPECT_EQ(update.Wait().epoch, 1u);

  const ServerResponse b = after.Wait();
  EXPECT_EQ(b.status, StatusCode::kOk);
  EXPECT_EQ(b.epoch, 1u);
  EXPECT_EQ(b.ids, std::vector<PointId>{2000});

  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.batches, 2u);  // the update split one gather into two
  EXPECT_EQ(stats.batched_cuboids, before.size() + 1);
  // No compute overlapped the update: it would have been detached.
  EXPECT_EQ(stats.query.aborted_inflight, 0u);
  EXPECT_EQ(stats.submitted + stats.updates_submitted, stats.resolved_total());
}

TEST(SkylineServerUpdateTest, UpdatesBypassQueueCapacityAndReject) {
  const Dataset data = Generate(DataType::kUniformIndependent, 150, 3, 98);
  ServerOptions options;
  options.auto_start = false;
  options.queue_capacity = 0;
  options.policy = OverloadPolicy::kReject;
  options.inline_fast_hits = false;
  SkylineServer server(data, options);

  EXPECT_EQ(server.Query(Subspace(0b001)).status, StatusCode::kOverloaded);
  ResponseHandle update =
      server.SubmitUpdate(std::vector<Value>{0.5, 0.5, 0.5}, {});
  ServerResponse probe;
  EXPECT_FALSE(update.TryGet(&probe));  // queued, not rejected
  server.Start();
  const ServerResponse applied = update.Wait();
  EXPECT_EQ(applied.status, StatusCode::kOk);
  EXPECT_EQ(applied.epoch, 1u);
  EXPECT_EQ(server.Stats().rejected, 1u);  // only the query
}

TEST(SkylineServerUpdateTest, QueuedUpdateResolvesShutdownOnDestruction) {
  const Dataset data = Generate(DataType::kUniformIndependent, 100, 3, 99);
  ResponseHandle update;
  {
    ServerOptions options;
    options.auto_start = false;  // never started: the update stays queued
    SkylineServer server(data, options);
    update = server.SubmitUpdate(std::vector<Value>{0.5, 0.5, 0.5}, {});
  }
  const ServerResponse response = update.Wait();
  EXPECT_EQ(response.status, StatusCode::kShutdown);
}

TEST(SkylineServerUpdateTest, MalformedUpdatesResolveInvalidArgument) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 3, 103);
  ServerOptions options;
  options.workers = 1;
  SkylineServer server(data, options);
  ASSERT_EQ(server.SubmitUpdate({}, {5}).Wait().epoch, 1u);

  // Each is refused whole, and the epoch stays where it was. The partial
  // row is caught at admission, the rest when the update dispatches.
  struct Malformed {
    const char* label;
    std::vector<Value> inserts;
    std::vector<PointId> removes;
  };
  const Malformed updates[] = {
      {"partial row", {0.5, 0.5}, {}},
      {"repeated id", {}, {0, 1, 0}},
      {"out-of-range id", {}, {7000}},
      {"already-removed id", {}, {5}},
      {"id inserted by the same batch", {0.5, 0.5, 0.5}, {200}},
  };
  for (const Malformed& u : updates) {
    const ServerResponse response =
        server.SubmitUpdate(u.inserts, u.removes).Wait();
    EXPECT_EQ(response.status, StatusCode::kInvalidArgument) << u.label;
    EXPECT_TRUE(response.ids.empty()) << u.label;
    EXPECT_EQ(server.Stats().query.epoch, 1u) << u.label;
  }

  // The server still applies a valid update and serves queries. No
  // refused batch appended a row, so the insert becomes id 200.
  const ServerResponse applied =
      server.SubmitUpdate(std::vector<Value>{-1.0, -1.0, -1.0}, {0}).Wait();
  EXPECT_EQ(applied.status, StatusCode::kOk);
  EXPECT_EQ(applied.epoch, 2u);
  const ServerResponse response = server.Query(Subspace(0b011));
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.ids, std::vector<PointId>{200});
  EXPECT_EQ(response.epoch, 2u);

  // A malformed request is a definitive outcome: never retried.
  int attempts = 0;
  EXPECT_EQ(QueryWithRetry(server, Subspace::Single(3), kNoTimeout, {},
                           &attempts)
                .status,
            StatusCode::kInvalidArgument);
  EXPECT_EQ(attempts, 1);

  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.invalid_argument, 6u);
  EXPECT_EQ(stats.updates_submitted, 7u);
  EXPECT_EQ(stats.updates_applied, 2u);
  EXPECT_EQ(stats.submitted, stats.admitted + stats.admission_resolved);
  EXPECT_EQ(stats.admitted, stats.batched_requests + stats.triaged);
  EXPECT_EQ(stats.submitted + stats.updates_submitted, stats.resolved_total());
}

TEST(SkylineServerUpdateTest, ServeStaleTagsPreUpdateAnswersWithEpochDelta) {
  const Dataset data = Generate(DataType::kAntiCorrelated, 300, 3, 100);
  ServerOptions options;
  options.workers = 1;
  options.policy = OverloadPolicy::kServeStale;
  options.query.pin_full_space = false;  // let the cached entry go stale
  options.inline_fast_hits = false;
  SkylineServer server(data, options);
  const Subspace full = Subspace::Full(3);

  // Warm the cache at epoch 0, then invalidate the entry by removing a
  // member of its answer (unrepairable, left stale).
  const ServerResponse warm = server.Query(full);
  ASSERT_EQ(warm.status, StatusCode::kOk);
  ASSERT_FALSE(warm.ids.empty());
  ASSERT_EQ(server.SubmitUpdate({}, {warm.ids.front()}).Wait().epoch, 1u);

  // An already-expired request hits the dispatch-time serve-stale path;
  // the only cached ancestor is the pre-update full-space entry, so the
  // degraded answer must be tagged with its age instead of passing as
  // current.
  const ServerResponse stale = server.Query(Subspace(0b011), nanoseconds(0));
  EXPECT_EQ(stale.status, StatusCode::kStale);
  EXPECT_EQ(stale.epoch, 0u);
  EXPECT_EQ(stale.epoch_delta, 1u);
  // Sound for the epoch it reports: a sorted subset of the epoch-0
  // oracle for the queried cuboid.
  EXPECT_TRUE(
      IsSortedSubsetOf(stale.ids, SubspaceSkyline(data, Subspace(0b011))));

  const ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.stale_epoch_served, 1u);
  EXPECT_EQ(stats.stale_epoch_delta_max, 1u);
  EXPECT_EQ(stats.submitted + stats.updates_submitted, stats.resolved_total());
}

TEST(RetryClientTest, ReturnsFirstSuccessWithoutRetrying) {
  const Dataset data = Generate(DataType::kUniformIndependent, 200, 3, 94);
  SkylineServer server(data);
  int attempts = 0;
  const ServerResponse response =
      QueryWithRetry(server, Subspace(0b011), kNoTimeout, {}, &attempts);
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(response.ids, SubspaceSkyline(data, Subspace(0b011)));
  EXPECT_EQ(attempts, 1);
}

TEST(RetryClientTest, ExhaustsAttemptsOnPersistentOverload) {
  const Dataset data = Generate(DataType::kUniformIndependent, 150, 3, 95);
  ServerOptions options;
  options.auto_start = false;
  options.queue_capacity = 0;  // overload is permanent
  options.policy = OverloadPolicy::kReject;
  options.inline_fast_hits = false;
  SkylineServer server(data, options);
  RetryOptions retry;
  retry.max_attempts = 3;
  retry.initial_backoff = std::chrono::microseconds(10);
  retry.max_backoff = std::chrono::microseconds(40);
  int attempts = 0;
  const ServerResponse response =
      QueryWithRetry(server, Subspace(0b010), kNoTimeout, retry, &attempts);
  EXPECT_EQ(response.status, StatusCode::kOverloaded);
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(server.Stats().rejected, 3u);
}

}  // namespace
}  // namespace skyline

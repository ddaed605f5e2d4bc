// Differential load test of the server layer: N client threads fire
// randomized subspace streams — with randomized deadlines and
// cancellations — at one SkylineServer, and every response is checked
// against a precomputed synchronous oracle:
//
//   kOk                exactly the oracle's id list
//   kStale             a sorted subset of it
//   anything else      well-formed (no ids), and only statuses the
//                      configured policy can produce
//
// Runs under every overload policy, with a tiny queue (admission
// pressure) and with a tiny cuboid cache (eviction pressure). The suite
// carries the `query` ctest label, so the TSan/ASan presets run it in
// full — this is the data-race gate of src/server.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "src/data/generator.h"
#include "src/query/query_service.h"
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

struct LoadConfig {
  const char* label;
  ServerOptions options;
  unsigned threads = 4;
  int requests_per_thread = 120;
  int cancel_percent = 0;    // chance a request's token fires post-submit
  int deadline_percent = 0;  // chance a request carries a tiny deadline
};

void RunLoad(const Dataset& data, const LoadConfig& config) {
  const auto oracles = AllOracles(data);
  SkylineServer server(data, config.options);
  const std::uint64_t num_masks = std::uint64_t{1} << data.num_dims();
  const OverloadPolicy policy = config.options.policy;

  std::atomic<int> violations{0};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> clients;
  clients.reserve(config.threads);
  for (unsigned t = 0; t < config.threads; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937_64 rng(9000u + t);
      for (int q = 0; q < config.requests_per_thread; ++q) {
        const std::uint64_t bits = 1 + rng() % (num_masks - 1);
        const bool cancel =
            static_cast<int>(rng() % 100) < config.cancel_percent;
        const bool tight =
            static_cast<int>(rng() % 100) < config.deadline_percent;
        // Tiny randomized deadline: from already-expired to a few
        // microseconds — enough jitter to exercise both the shed path
        // and the served-past-deadline path.
        const nanoseconds timeout =
            tight ? nanoseconds(rng() % 5000) : kNoTimeout;
        CancellationToken token;
        ResponseHandle handle = server.Submit(Subspace(bits), timeout, token);
        if (cancel) token.Cancel();
        const ServerResponse response = handle.Wait();
        const std::vector<PointId>& oracle = oracles.at(bits);
        bool ok = true;
        switch (response.status) {
          case StatusCode::kOk:
            ok = response.ids == oracle;
            answered.fetch_add(1, std::memory_order_relaxed);
            break;
          case StatusCode::kStale:
            ok = policy == OverloadPolicy::kServeStale &&
                 std::is_sorted(response.ids.begin(), response.ids.end()) &&
                 std::includes(oracle.begin(), oracle.end(),
                               response.ids.begin(), response.ids.end());
            answered.fetch_add(1, std::memory_order_relaxed);
            break;
          case StatusCode::kOverloaded:
            ok = response.ids.empty();
            break;
          case StatusCode::kDeadlineExceeded:
            ok = response.ids.empty() && tight &&
                 policy != OverloadPolicy::kReject;
            break;
          case StatusCode::kCancelled:
            ok = response.ids.empty() && cancel;
            break;
          case StatusCode::kShutdown:
            ok = false;  // the server outlives every Wait() here
            break;
          case StatusCode::kInvalidArgument:
            ok = false;  // every subspace here is well-formed
            break;
        }
        if (!ok) violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(violations.load(), 0) << config.label;
  const ServerStatsSnapshot stats = server.Stats();
  const std::uint64_t total =
      static_cast<std::uint64_t>(config.threads) * config.requests_per_thread;
  EXPECT_EQ(stats.submitted, total) << config.label;
  // Exact accounting: every submit either resolved at admission or was
  // admitted; every admitted request was either computed by a batch or
  // triaged away — and each got exactly one terminal status (every
  // handle was Wait()ed above, so the queue is fully drained).
  EXPECT_EQ(stats.submitted, stats.admitted + stats.admission_resolved)
      << config.label;
  EXPECT_EQ(stats.admitted, stats.batched_requests + stats.triaged)
      << config.label;
  EXPECT_EQ(stats.submitted + stats.updates_submitted, stats.resolved_total())
      << config.label;
  // Every request got some terminal status; most workloads must get
  // real answers through.
  if (config.cancel_percent == 0 && config.deadline_percent == 0 &&
      config.options.queue_capacity >= total) {
    EXPECT_EQ(answered.load(), total) << config.label;
  } else {
    EXPECT_GT(answered.load(), 0u) << config.label;
  }
}

TEST(ServerDifferentialTest, RoomyQueueExactAnswers) {
  const Dataset data = Generate(DataType::kUniformIndependent, 300, 4, 71);
  LoadConfig config;
  config.label = "roomy";
  config.options.queue_capacity = 4096;
  RunLoad(data, config);
}

TEST(ServerDifferentialTest, TinyQueueRejectPolicy) {
  const Dataset data = Generate(DataType::kUniformIndependent, 300, 4, 72);
  LoadConfig config;
  config.label = "tiny-reject";
  config.options.queue_capacity = 2;
  config.options.policy = OverloadPolicy::kReject;
  RunLoad(data, config);
}

TEST(ServerDifferentialTest, TinyQueueShedExpiredWithDeadlines) {
  const Dataset data = Generate(DataType::kAntiCorrelated, 250, 4, 73);
  LoadConfig config;
  config.label = "tiny-shed";
  config.options.queue_capacity = 4;
  config.options.policy = OverloadPolicy::kShedExpired;
  config.deadline_percent = 40;
  RunLoad(data, config);
}

TEST(ServerDifferentialTest, ServeStaleUnderPressure) {
  const Dataset data = Generate(DataType::kAntiCorrelated, 250, 4, 74);
  LoadConfig config;
  config.label = "serve-stale";
  config.options.queue_capacity = 4;
  config.options.policy = OverloadPolicy::kServeStale;
  config.deadline_percent = 40;
  RunLoad(data, config);
}

TEST(ServerDifferentialTest, CancellationStorm) {
  const Dataset data = Generate(DataType::kUniformIndependent, 300, 4, 75);
  LoadConfig config;
  config.label = "cancel";
  config.options.queue_capacity = 4096;
  config.cancel_percent = 30;
  RunLoad(data, config);
}

TEST(ServerDifferentialTest, EvictionHeavyCacheWithUnionSeeding) {
  const Dataset data = Generate(DataType::kAntiCorrelated, 250, 4, 76);
  LoadConfig config;
  config.label = "evict-union";
  config.options.queue_capacity = 4096;
  config.options.query.max_entries = 2;
  config.options.query.pin_full_space = false;
  RunLoad(data, config);
}

TEST(ServerDifferentialTest, RetryClientUnderTinyQueue) {
  const Dataset data = Generate(DataType::kUniformIndependent, 250, 4, 77);
  SkylineServer server(data, [] {
    ServerOptions options;
    options.queue_capacity = 2;
    options.policy = OverloadPolicy::kReject;
    return options;
  }());
  const auto oracles = AllOracles(data);
  std::atomic<int> violations{0};
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937_64 rng(9900u + t);
      RetryOptions retry;
      retry.max_attempts = 8;
      retry.initial_backoff = std::chrono::microseconds(50);
      retry.max_backoff = std::chrono::milliseconds(2);
      for (int q = 0; q < 60; ++q) {
        const std::uint64_t bits = 1 + rng() % 15;
        const ServerResponse response =
            QueryWithRetry(server, Subspace(bits), kNoTimeout, retry);
        const bool ok =
            (response.status == StatusCode::kOk &&
             response.ids == oracles.at(bits)) ||
            (response.status == StatusCode::kOverloaded &&
             response.ids.empty());
        if (!ok) violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(violations.load(), 0);
}

}  // namespace
}  // namespace skyline

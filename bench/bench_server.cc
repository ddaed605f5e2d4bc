// Server scenario set for the CI perf gate: a skewed Zipf subspace
// stream, answered by the batching SkylineServer vs. a naive
// one-thread-per-request baseline that recomputes every answer from
// scratch with the same engine.
//
// Two kinds of measurements:
//
//   * Deterministic dominance-test records (hard-gated). The batched
//     run defers Start() until the whole stream is queued and uses a
//     single worker, so batch composition — and therefore the inner
//     QueryService's dominance-test counters — is a pure function of
//     the seed. The naive count weighs one cold compute per distinct
//     cuboid by its stream frequency, exactly like bench_query_service.
//   * Open-loop latency (advisory rt_ms, dt_per_point = 0 so the DT
//     comparison is skipped). Arrivals follow a seeded exponential
//     schedule whose offered load is 2x the naive baseline's measured
//     capacity; per-request latency runs from the scheduled arrival to
//     resolution, p99 taken over exact sorted latencies (not histogram
//     buckets). No latency number gates the exit: the naive/server p99
//     ratio once had to reach 2x, but it ranged 0.4x-58x over 38
//     --quick runs of one binary and failed 4 of them, so the exit
//     code (and with it run_bench_suite.sh and CI's perf-smoke job)
//     failed at random. The three p99 records are printed and recorded
//     like every other rt_ms.
//
// Records per scenario (dt_per_point semantics in brackets):
//
//   server-batched     [dominance tests / request through the batching
//                       server: coalescing + union seeding + cache]
//   server-naive       [dominance tests / request when every request
//                       recomputes cold]
//   server-dt-speedup  [naive / batched dominance-test ratio; >= 2
//                       also enforced here]
//   server-stale       [stale-path dominance tests / request when every
//                       request degrades to the pinned ancestor]
//   server-shed        [dominance tests / request when every request is
//                       shed: the pinned construction cost amortized]
//   server-p99-ms      [0; rt_ms = server p99 latency, advisory]
//   server-p99-naive-ms[0; rt_ms = naive p99 latency, advisory]
//   server-p99-x       [0; rt_ms = naive/server p99 ratio, advisory]
//
// Every kOk answer is verified against SubspaceSkyline and every kStale
// answer is verified to be a sorted subset of it before anything is
// reported.
//
// Usage: bench_server [--quick|--full] [--seed=N] [--json=PATH]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/harness/histogram.h"
#include "src/server/server.h"
#include "src/skycube/skycube.h"

namespace {

using namespace skyline;
using Clock = std::chrono::steady_clock;

/// Deterministic Zipf(s=1) sampler over `universe` ranks: rank r is
/// drawn with probability proportional to 1/(r+1).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t universe, std::uint64_t seed) : rng_(seed) {
    cumulative_.reserve(universe);
    double total = 0;
    for (std::size_t r = 0; r < universe; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cumulative_.push_back(total);
    }
  }

  std::size_t Next() {
    std::uniform_real_distribution<double> uniform(0.0, cumulative_.back());
    const double u = uniform(rng_);
    return static_cast<std::size_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
        cumulative_.begin());
  }

 private:
  std::mt19937_64 rng_;
  std::vector<double> cumulative_;
};

/// The request mix: Zipf-ranked over a seeded shuffle of all non-empty
/// subspaces, so the hot set spans sizes 1..d rather than low masks.
std::vector<Subspace> MakeQueryStream(Dim d, std::size_t num_requests,
                                      std::uint64_t seed) {
  std::vector<std::uint64_t> masks;
  for (std::uint64_t bits = 1; bits < (std::uint64_t{1} << d); ++bits) {
    masks.push_back(bits);
  }
  std::mt19937_64 shuffle_rng(seed ^ 0x5ca1ab1e);
  std::shuffle(masks.begin(), masks.end(), shuffle_rng);
  ZipfSampler zipf(masks.size(), seed ^ 0xbeefcafe);
  std::vector<Subspace> stream;
  stream.reserve(num_requests);
  for (std::size_t q = 0; q < num_requests; ++q) {
    stream.push_back(Subspace(masks[zipf.Next()]));
  }
  return stream;
}

/// One cold per-request compute with the engine the service itself
/// uses — the unit of work of the naive baseline.
std::vector<PointId> NaiveCompute(const Dataset& data, Subspace v,
                                  QueryStatsSnapshot* stats_out = nullptr) {
  QueryServiceOptions one_shot;
  one_shot.pin_full_space = false;
  one_shot.max_entries = 1;
  QueryService cold(data, one_shot);
  std::vector<PointId> ids = cold.Query(v);
  if (stats_out != nullptr) *stats_out = cold.Stats();
  return ids;
}

double ExactP99Ms(std::vector<double> latencies_ms) {
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const std::size_t idx = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(latencies_ms.size())));
  return latencies_ms[std::min(idx, latencies_ms.size()) - 1];
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// The miss-heavy batching configuration shared by the deterministic
/// and the open-loop runs: unpinned (so union seeding can fire) and a
/// cache smaller than the lattice.
ServerOptions BatchedOptions(bool quick, std::size_t num_requests) {
  ServerOptions options;
  options.queue_capacity = num_requests;
  options.query.pin_full_space = false;
  options.query.max_entries = quick ? 24 : 96;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::Parse(argc, argv);
  const std::size_t n = opts.full ? 100000 : (opts.quick ? 2000 : 10000);
  const Dim d = opts.quick ? 6 : 8;
  const std::size_t num_requests = opts.full ? 2000 : (opts.quick ? 400 : 800);
  const double q = static_cast<double>(num_requests);

  std::cout << "# Skyline server — Zipf request mix, batching vs naive "
            << "thread-per-request, n=" << n << ", d="
            << static_cast<unsigned>(d) << ", requests=" << num_requests
            << ", seed=" << opts.seed << "\n\n";

  JsonReport report("bench_server");
  TextTable table({"Scenario", "DT/q naive", "DT/q batched", "DTx",
                   "p99 naive", "p99 server", "p99x", "DT/q stale",
                   "DT/q shed"});

  for (DataType type : {DataType::kUniformIndependent, DataType::kCorrelated,
                        DataType::kAntiCorrelated}) {
    const Dataset data = Generate(type, n, d, opts.seed);
    const std::vector<Subspace> stream =
        MakeQueryStream(d, num_requests, opts.seed);
    const std::string label = bench::ScenarioLabel(type, n, d, opts.seed);

    std::vector<std::uint64_t> occurrences(std::size_t{1} << d, 0);
    for (Subspace v : stream) ++occurrences[v.bits()];

    // Oracles for every cuboid the stream touches.
    std::map<std::uint64_t, std::vector<PointId>> oracles;
    for (std::uint64_t bits = 1; bits < (std::uint64_t{1} << d); ++bits) {
      if (occurrences[bits] != 0) {
        oracles[bits] = SubspaceSkyline(data, Subspace(bits));
      }
    }

    // ---- Naive baseline, deterministic part: one cold compute per
    // distinct cuboid, weighted by stream frequency.
    double naive_total_tests = 0;
    double naive_rt_ms = 0;
    for (const auto& [bits, oracle] : oracles) {
      QueryStatsSnapshot one;
      const auto start = Clock::now();
      const std::vector<PointId> ids =
          NaiveCompute(data, Subspace(bits), &one);
      const double ms = MsBetween(start, Clock::now());
      if (ids != oracle) {
        std::cerr << "[bench_server] naive answer differs from "
                  << "SubspaceSkyline on cuboid "
                  << Subspace(bits).ToString() << "\n";
        return 1;
      }
      const double w = static_cast<double>(occurrences[bits]);
      naive_total_tests += static_cast<double>(one.dominance_tests()) * w;
      naive_rt_ms += ms * w;
    }
    const double naive_dt = naive_total_tests / q;

    // ---- Batched server, deterministic run: the whole stream queued
    // before a single worker starts, so batch composition (and the
    // dominance-test counters) depend only on the seed.
    double batched_dt = 0;
    double batched_rt_ms = 0;
    {
      ServerOptions options = BatchedOptions(opts.quick, num_requests);
      options.auto_start = false;
      options.workers = 1;
      options.inline_fast_hits = false;  // every request flows through a batch
      SkylineServer server(data, options);
      std::vector<ResponseHandle> handles;
      handles.reserve(num_requests);
      for (Subspace v : stream) handles.push_back(server.Submit(v));
      const auto start = Clock::now();
      server.Start();
      for (std::size_t i = 0; i < num_requests; ++i) {
        const ServerResponse response = handles[i].Wait();
        if (response.status != StatusCode::kOk ||
            response.ids != oracles.at(stream[i].bits())) {
          std::cerr << "[bench_server] batched answer differs from "
                    << "SubspaceSkyline on cuboid " << stream[i].ToString()
                    << " (" << StatusCodeName(response.status) << ")\n";
          return 1;
        }
      }
      batched_rt_ms = MsBetween(start, Clock::now());
      const ServerStatsSnapshot stats = server.Stats();
      batched_dt = static_cast<double>(stats.query.dominance_tests()) / q;
      std::cerr << "  [server] " << label << " batched: "
                << stats.batches << " cycles, mean batch "
                << TextTable::FormatNumber(stats.MeanBatchSize())
                << ", union seeds " << stats.union_seeds << "\n";
    }
    const double dt_speedup = batched_dt > 0 ? naive_dt / batched_dt : 0;
    if (dt_speedup < 2.0) {
      std::cerr << "[bench_server] " << label << ": dominance-test speedup "
                << dt_speedup << " fell below the 2x gate\n";
      return 1;
    }

    // ---- Degraded modes, deterministic. Stale: a zero-capacity queue
    // under kServeStale degrades every request to the pinned full-space
    // ancestor at admission — no worker involved. Shed: every request
    // expires before its dispatch, so the only dominance tests are the
    // pinned construction, amortized over the stream.
    double stale_dt = 0;
    std::size_t full_size = 0;
    {
      ServerOptions options;
      options.auto_start = false;
      options.queue_capacity = 0;
      options.policy = OverloadPolicy::kServeStale;
      options.inline_fast_hits = false;
      SkylineServer server(data, options);
      full_size = server.Query(Subspace::Full(d)).ids.size();
      for (Subspace v : stream) {
        const ServerResponse response = server.Query(v);
        const std::vector<PointId>& oracle = oracles.at(v.bits());
        const bool sound =
            response.ok() &&
            std::is_sorted(response.ids.begin(), response.ids.end()) &&
            std::includes(oracle.begin(), oracle.end(), response.ids.begin(),
                          response.ids.end());
        if (!sound) {
          std::cerr << "[bench_server] stale answer is not a sorted subset "
                    << "of the skyline on cuboid " << v.ToString() << "\n";
          return 1;
        }
      }
      stale_dt = static_cast<double>(server.Stats().stale_tests) / q;
    }

    double shed_dt = 0;
    {
      ServerOptions options;
      options.auto_start = false;
      options.workers = 1;
      options.policy = OverloadPolicy::kShedExpired;
      options.inline_fast_hits = false;
      SkylineServer server(data, options);
      std::vector<ResponseHandle> handles;
      handles.reserve(num_requests);
      for (Subspace v : stream) {
        handles.push_back(server.Submit(v, std::chrono::nanoseconds(0)));
      }
      server.Start();
      for (const ResponseHandle& h : handles) {
        if (h.Wait().status != StatusCode::kDeadlineExceeded) {
          std::cerr << "[bench_server] expired request was not shed\n";
          return 1;
        }
      }
      const ServerStatsSnapshot stats = server.Stats();
      if (stats.query.queries != 0) {
        std::cerr << "[bench_server] shed run still computed "
                  << stats.query.queries << " queries\n";
        return 1;
      }
      shed_dt = static_cast<double>(stats.query.dominance_tests()) / q;
    }

    // ---- Open-loop latency: the same seeded exponential arrival
    // schedule drives both systems, offered at 2x the naive baseline's
    // measured capacity. Latency runs from the SCHEDULED arrival to
    // resolution, so submitter lag counts against the system (open
    // loop), and p99 is exact, not histogram-bucketed.
    std::vector<double> arrival_ms;
    {
      arrival_ms.reserve(num_requests);
      std::mt19937_64 rng(opts.seed ^ 0xa11ca115);
      std::exponential_distribution<double> gap(2.0 * q / naive_rt_ms);
      double t = 0;
      for (std::size_t i = 0; i < num_requests; ++i) {
        t += gap(rng);
        arrival_ms.push_back(t);
      }
    }
    auto arrival_at = [&](Clock::time_point t0, std::size_t i) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          arrival_ms[i]));
    };

    std::vector<double> naive_lat_ms(num_requests);
    {
      std::vector<std::thread> threads;
      threads.reserve(num_requests);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < num_requests; ++i) {
        const auto arrival = arrival_at(t0, i);
        std::this_thread::sleep_until(arrival);
        threads.emplace_back([&, i, arrival] {
          NaiveCompute(data, stream[i]);
          naive_lat_ms[i] = MsBetween(arrival, Clock::now());
        });
      }
      for (std::thread& t : threads) t.join();
    }

    std::vector<double> server_lat_ms(num_requests);
    {
      SkylineServer server(data, BatchedOptions(opts.quick, num_requests));
      std::vector<ResponseHandle> handles;
      handles.reserve(num_requests);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < num_requests; ++i) {
        std::this_thread::sleep_until(arrival_at(t0, i));
        handles.push_back(server.Submit(stream[i]));
      }
      for (std::size_t i = 0; i < num_requests; ++i) {
        const ServerResponse response = handles[i].Wait();
        if (response.status != StatusCode::kOk ||
            response.ids != oracles.at(stream[i].bits())) {
          std::cerr << "[bench_server] open-loop answer differs from "
                    << "SubspaceSkyline on cuboid " << stream[i].ToString()
                    << " (" << StatusCodeName(response.status) << ")\n";
          return 1;
        }
        server_lat_ms[i] = MsBetween(arrival_at(t0, i), response.resolved_at);
      }
      PrintLatencySummary(std::cout, "  " + label + " queue wait",
                          server.Stats().queue_wait);
    }

    const double naive_p99 = ExactP99Ms(naive_lat_ms);
    const double server_p99 = ExactP99Ms(server_lat_ms);
    const double p99_ratio = server_p99 > 0 ? naive_p99 / server_p99 : 0;

    table.AddRow({label, TextTable::FormatNumber(naive_dt),
                  TextTable::FormatNumber(batched_dt),
                  TextTable::FormatNumber(dt_speedup),
                  TextTable::FormatNumber(naive_p99),
                  TextTable::FormatNumber(server_p99),
                  TextTable::FormatNumber(p99_ratio),
                  TextTable::FormatNumber(stale_dt),
                  TextTable::FormatNumber(shed_dt)});

    report.Add({"", label, "server-batched", n, d, opts.seed, 1, batched_dt,
                batched_rt_ms, full_size});
    report.Add({"", label, "server-naive", n, d, opts.seed, 1, naive_dt,
                naive_rt_ms, full_size});
    report.Add({"", label, "server-dt-speedup", n, d, opts.seed, 1,
                dt_speedup, 0.0, full_size});
    report.Add({"", label, "server-stale", n, d, opts.seed, 1, stale_dt, 0.0,
                full_size});
    report.Add({"", label, "server-shed", n, d, opts.seed, 1, shed_dt, 0.0,
                full_size});
    report.Add({"", label, "server-p99-ms", n, d, opts.seed, 1, 0.0,
                server_p99, full_size});
    report.Add({"", label, "server-p99-naive-ms", n, d, opts.seed, 1, 0.0,
                naive_p99, full_size});
    report.Add({"", label, "server-p99-x", n, d, opts.seed, 1, 0.0,
                p99_ratio, full_size});
    std::cerr << "  [server] " << label << " done (DT "
              << TextTable::FormatNumber(dt_speedup) << "x, p99 "
              << TextTable::FormatNumber(p99_ratio) << "x)\n";
  }

  table.Print(std::cout,
              "Skyline server: batched admission vs naive thread-per-request");
  std::cout << '\n';
  return bench::FinishJson(opts, report);
}

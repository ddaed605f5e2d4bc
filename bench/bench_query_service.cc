// Query-service scenario set for the CI perf gate: a Zipf-skewed
// subspace-query mix over the paper's three data families, answered by
// the memoizing QueryService vs. cold per-query recomputation with the
// same subset-boosted engine.
//
// The query stream is deterministic given the seed (Zipf ranks over a
// seeded shuffle of the cuboid lattice), the service runs the stream
// single-threaded, and every engine in the chain is deterministic — so
// the dominance-test records below are exact and hard-gated by
// scripts/check_perf.py. Wall time and the latency percentiles are
// advisory.
//
// Records per scenario (dt_per_point semantics in brackets):
//
//   query-service    [dominance tests / query, pinned full-space
//                     construction included]
//   query-cold       [dominance tests / query when every query
//                     recomputes from scratch]
//   query-speedup    [cold / service dominance-test ratio — the paper's
//                     sharing win; must stay >= 5, also enforced here]
//   query-hit-pct    [cache hits per 100 queries]
//   query-seeded-pct [ancestor-seeded misses per 100 queries]
//
// The mixed scenario interleaves the same Zipf query stream with
// deterministic ApplyUpdate bursts (every 16th op; every third burst
// also removes a member of the hottest cached cuboid so the removal
// repair stays on the measured profile):
//
//   query-mixed-service [dominance tests / op — queries and repairs
//                        included]
//   query-mixed-hit-pct [cache hits per 100 queries in the mix]
//
// Every service answer is verified against SubspaceSkyline (the mixed
// scenario against a live-filtered recompute oracle, periodically and
// at the end), so the perf pipeline doubles as an equivalence check.
//
// Usage: bench_query_service [--quick|--full] [--seed=N] [--json=PATH]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/verify.h"
#include "src/harness/histogram.h"
#include "src/query/query_service.h"
#include "src/skycube/skycube.h"

namespace {

using namespace skyline;

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

/// The query mix: Zipf-ranked over a seeded shuffle of all non-empty
/// subspaces, so the hot set spans sizes 1..d rather than low masks.
std::vector<Subspace> MakeQueryStream(Dim d, std::size_t num_queries,
                                      std::uint64_t seed) {
  std::vector<std::uint64_t> masks;
  for (std::uint64_t bits = 1; bits < (std::uint64_t{1} << d); ++bits) {
    masks.push_back(bits);
  }
  std::mt19937_64 shuffle_rng(seed ^ 0x5ca1ab1e);
  std::shuffle(masks.begin(), masks.end(), shuffle_rng);
  ZipfSampler zipf(masks.size(), seed ^ 0xbeefcafe);
  std::vector<Subspace> stream;
  stream.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    stream.push_back(Subspace(masks[zipf.Next()]));
  }
  return stream;
}

/// Live-filtered recompute oracle for the mixed scenario: densify the
/// live rows of `version`, run the reference SubspaceSkyline, map row
/// indices back to stable point ids.
std::vector<PointId> LiveOracle(const DatasetVersion& version, Subspace v) {
  std::vector<PointId> live_ids;
  Dataset dense(version.data.num_dims());
  for (PointId id = 0; id < version.data.num_points(); ++id) {
    if (!version.IsLive(id)) continue;
    live_ids.push_back(id);
    dense.Append(version.data.point(id));
  }
  std::vector<PointId> out;
  for (PointId p : SubspaceSkyline(dense, v)) out.push_back(live_ids[p]);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::Parse(argc, argv);
  const std::size_t n = opts.full ? 100000 : (opts.quick ? 2000 : 10000);
  const Dim d = opts.quick ? 6 : 8;
  const std::size_t num_queries = opts.quick ? 2000 : 5000;

  std::cout << "# Query service — Zipf query mix, n=" << n << ", d="
            << static_cast<unsigned>(d) << ", queries=" << num_queries
            << ", seed=" << opts.seed << "\n\n";

  JsonReport report("bench_query_service");
  TextTable table({"Scenario", "DT/query (svc)", "DT/query (cold)", "speedup",
                   "hit%", "seeded%", "evict", "RT (ms)"});

  for (DataType type : {DataType::kUniformIndependent, DataType::kCorrelated,
                        DataType::kAntiCorrelated}) {
    const Dataset data = Generate(type, n, d, opts.seed);
    const std::vector<Subspace> stream =
        MakeQueryStream(d, num_queries, opts.seed);

    // Cold baseline: per-query recomputation with the same engine the
    // service uses. Tests are deterministic per distinct cuboid, so the
    // 2^d - 1 distinct computes are weighted by stream frequency rather
    // than re-run per occurrence.
    std::vector<std::uint64_t> occurrences(std::size_t{1} << d, 0);
    for (Subspace v : stream) ++occurrences[v.bits()];
    QueryServiceOptions cold_options;
    cold_options.pin_full_space = false;
    double cold_total_tests = 0;
    double cold_rt_ms = 0;
    for (std::uint64_t bits = 1; bits < (std::uint64_t{1} << d); ++bits) {
      if (occurrences[bits] == 0) continue;
      QueryServiceOptions one_shot = cold_options;
      one_shot.max_entries = 1;
      QueryService cold_service(data, one_shot);
      const auto start = std::chrono::steady_clock::now();
      cold_service.Query(Subspace(bits));
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      const double tests = static_cast<double>(
          cold_service.Stats().cold_tests);
      cold_total_tests += tests * static_cast<double>(occurrences[bits]);
      cold_rt_ms += ms * static_cast<double>(occurrences[bits]);
    }

    // The service: bounded cache, pinned full space, one warm pass over
    // the whole stream (single-threaded for deterministic counters).
    // Capacity covers the Zipf head but leaves the tail churning, so
    // eviction + re-seeding stay on the measured path. On AC data a
    // miss is expensive (the full-space seed is near-total), so the
    // cache must hold most of the lattice to amortize it.
    QueryServiceOptions options;
    options.max_entries = opts.quick ? 56 : 192;
    QueryService service(data, options);
    const auto start = std::chrono::steady_clock::now();
    for (Subspace v : stream) {
      service.Query(v);
    }
    const double service_rt_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();

    // Counters frozen before the equivalence sweep issues extra queries.
    const QueryStatsSnapshot stats = service.Stats();

    // Equivalence check before anything is reported.
    for (std::uint64_t bits = 1; bits < (std::uint64_t{1} << d); ++bits) {
      if (occurrences[bits] == 0) continue;
      if (service.Query(Subspace(bits)) !=
          SubspaceSkyline(data, Subspace(bits))) {
        std::cerr << "[bench_query_service] service answer differs from "
                  << "SubspaceSkyline on cuboid "
                  << Subspace(bits).ToString() << "\n";
        return 1;
      }
    }

    const double q = static_cast<double>(num_queries);
    const double service_tests =
        static_cast<double>(stats.dominance_tests());
    const double service_dt = service_tests / q;
    const double cold_dt = cold_total_tests / q;
    const double speedup = service_tests > 0 ? cold_total_tests / service_tests
                                             : 0;
    const double hit_pct =
        100.0 * static_cast<double>(stats.hits) / static_cast<double>(
            stats.queries);
    const double seeded_pct =
        100.0 * static_cast<double>(stats.seeded) / static_cast<double>(
            stats.queries);

    const std::string label = bench::ScenarioLabel(type, n, d, opts.seed);
    const std::size_t full_size =
        service.Query(Subspace::Full(d)).size();
    table.AddRow({label, TextTable::FormatNumber(service_dt),
                  TextTable::FormatNumber(cold_dt),
                  TextTable::FormatNumber(speedup),
                  TextTable::FormatNumber(hit_pct),
                  TextTable::FormatNumber(seeded_pct),
                  std::to_string(stats.evictions),
                  TextTable::FormatNumber(service_rt_ms)});
    PrintLatencySummary(std::cout, "  " + label + " latency", stats.latency);

    // The acceptance gate of the serving layer: the memoizing service
    // must beat cold per-query recomputation by >= 5x in dominance
    // tests on the repeated (Zipf) mix.
    if (speedup < 5.0) {
      std::cerr << "[bench_query_service] " << label << ": speedup "
                << speedup << " fell below the 5x gate\n";
      return 1;
    }

    report.Add({"", label, "query-service", n, d, opts.seed, 1, service_dt,
                service_rt_ms, full_size});
    report.Add({"", label, "query-cold", n, d, opts.seed, 1, cold_dt,
                cold_rt_ms, full_size});
    report.Add({"", label, "query-speedup", n, d, opts.seed, 1, speedup,
                0.0, full_size});
    report.Add({"", label, "query-hit-pct", n, d, opts.seed, 1, hit_pct,
                0.0, full_size});
    report.Add({"", label, "query-seeded-pct", n, d, opts.seed, 1,
                seeded_pct, 0.0, full_size});
    std::cerr << "  [query] " << label << " done (speedup "
              << TextTable::FormatNumber(speedup) << "x)\n";
  }

  table.Print(std::cout,
              "Query service: memoized cuboid cache vs cold recomputation");
  std::cout << '\n';

  // ---- Mixed read/update scenario ----------------------------------
  // Same Zipf stream, but every 16th op is an ApplyUpdate burst instead
  // of a query: 1-2 uniform inserts, and every third burst removes a
  // member of the hottest cached cuboid (falling back to any live
  // point), which exercises the removal repair, not just the insert
  // rule. Single-threaded and fully seeded, so the dominance-test
  // counters are exact and hard-gated.
  TextTable mixed_table({"Scenario", "DT/op", "hit%", "repaired",
                         "member repairs", "epochs", "RT (ms)"});
  constexpr std::size_t kUpdateEvery = 16;
  for (DataType type : {DataType::kUniformIndependent, DataType::kCorrelated,
                        DataType::kAntiCorrelated}) {
    const Dataset data = Generate(type, n, d, opts.seed);
    const std::vector<Subspace> stream =
        MakeQueryStream(d, num_queries, opts.seed);
    // The Zipf head: the most frequent cuboid, which is cached from its
    // first occurrence on — the deterministic victim source for
    // member removals.
    std::vector<std::uint64_t> occurrences(std::size_t{1} << d, 0);
    for (Subspace v : stream) ++occurrences[v.bits()];
    std::uint64_t hot_bits = 1;
    for (std::uint64_t bits = 1; bits + 1 < occurrences.size(); ++bits) {
      // The full space is excluded: its entry is pinned, and the hot
      // cuboid's repair should draw its candidates from the pinned one.
      if (occurrences[bits] > occurrences[hot_bits]) hot_bits = bits;
    }
    const Subspace hot(hot_bits);

    QueryServiceOptions options;
    options.max_entries = opts.quick ? 56 : 192;
    QueryService service(data, options);
    std::mt19937_64 urng(opts.seed ^ 0xfeedface);
    std::uniform_real_distribution<double> value(0.0, 1.0);
    std::size_t update_count = 0;
    // Updates that removed a member of the hot cuboid's cached answer
    // and left the cuboid cached at the new epoch without it.
    std::size_t member_repairs = 0;
    bool ok = true;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if ((i + 1) % kUpdateEvery == 0) {
        const std::size_t k = 1 + urng() % 2;
        std::vector<Value> rows;
        for (std::size_t r = 0; r < k * d; ++r) {
          rows.push_back(static_cast<Value>(value(urng)));
        }
        std::vector<PointId> removes;
        bool removes_hot_member = false;
        if (++update_count % 3 == 0) {
          std::vector<PointId> hot_ids;
          if (service.PeekExact(hot, &hot_ids) && !hot_ids.empty()) {
            removes.push_back(
                hot_ids[urng() % hot_ids.size()]);
            removes_hot_member = true;
          } else {
            const DatasetVersionPtr ver = service.current_version();
            PointId id = static_cast<PointId>(
                urng() % ver->data.num_points());
            while (!ver->IsLive(id)) {
              id = (id + 1) % static_cast<PointId>(ver->data.num_points());
            }
            removes.push_back(id);
          }
        }
        const std::uint64_t epoch =
            service.ApplyUpdate(rows, removes).value();
        // The peek above made the hot entry the most recent one, so
        // this second touch leaves the LRU order as it was.
        std::vector<PointId> hot_ids;
        std::uint64_t hot_epoch = 0;
        if (removes_hot_member &&
            service.PeekExact(hot, &hot_ids, &hot_epoch) &&
            hot_epoch == epoch &&
            !std::binary_search(hot_ids.begin(), hot_ids.end(),
                                removes.front())) {
          ++member_repairs;
        }
      } else {
        const std::vector<PointId> answer = service.Query(stream[i]);
        // Periodic in-loop oracle probe (cheap enough at this cadence).
        if (i % 500 == 0 &&
            answer != LiveOracle(*service.current_version(), stream[i])) {
          std::cerr << "[bench_query_service] mixed: op " << i
                    << " diverged from the live oracle on cuboid "
                    << stream[i].ToString() << "\n";
          ok = false;
          break;
        }
      }
    }
    const double mixed_rt_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (!ok) return 1;

    const QueryStatsSnapshot stats = service.Stats();

    // Final oracle sweep over every queried cuboid at the final epoch.
    const DatasetVersionPtr final_version = service.current_version();
    for (std::uint64_t bits = 1; bits < (std::uint64_t{1} << d); ++bits) {
      if (occurrences[bits] == 0) continue;
      if (service.Query(Subspace(bits)) !=
          LiveOracle(*final_version, Subspace(bits))) {
        std::cerr << "[bench_query_service] mixed: final answer differs "
                  << "from the live oracle on cuboid "
                  << Subspace(bits).ToString() << "\n";
        return 1;
      }
    }

    // The mutation paths this scenario exists to measure must actually
    // run: at least one repair, and one that repaired a member removal.
    if (stats.repaired == 0 || member_repairs == 0) {
      std::cerr << "[bench_query_service] mixed: repair paths not "
                << "exercised (repaired=" << stats.repaired
                << ", member repairs=" << member_repairs << ")\n";
      return 1;
    }

    const double ops = static_cast<double>(stream.size());
    const double mixed_dt =
        static_cast<double>(stats.dominance_tests()) / ops;
    const double mixed_hit_pct =
        100.0 * static_cast<double>(stats.hits) /
        static_cast<double>(stats.queries);
    const std::string label = bench::ScenarioLabel(type, n, d, opts.seed);
    mixed_table.AddRow({label, TextTable::FormatNumber(mixed_dt),
                        TextTable::FormatNumber(mixed_hit_pct),
                        std::to_string(stats.repaired),
                        std::to_string(member_repairs),
                        std::to_string(stats.epoch),
                        TextTable::FormatNumber(mixed_rt_ms)});
    PrintLatencySummary(std::cout, "  " + label + " update latency",
                        stats.update_latency);

    report.Add({"", label, "query-mixed-service", n, d, opts.seed, 1,
                mixed_dt, mixed_rt_ms, service.Query(Subspace::Full(d)).size()});
    report.Add({"", label, "query-mixed-hit-pct", n, d, opts.seed, 1,
                mixed_hit_pct, 0.0, service.Query(Subspace::Full(d)).size()});
    std::cerr << "  [query] " << label << " mixed done (epoch "
              << stats.epoch << ")\n";
  }
  mixed_table.Print(std::cout,
                    "Query service: mixed Zipf read/update stream");
  std::cout << '\n';
  return bench::FinishJson(opts, report);
}

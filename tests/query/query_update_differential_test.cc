// The mutation acceptance test: reader threads hammer Query/PeekExact
// while a writer thread applies insert/remove bursts, and every answer
// is checked against a recompute-from-scratch oracle AT THE EPOCH THE
// ANSWER REPORTS. Runs under TSan and ASan via the sanitizer presets
// (label `query`).
//
// The check exploits two properties the service guarantees:
//   * rows are append-only and ids stable, so the FINAL version can
//     replay any earlier epoch — the test writer records, per epoch,
//     the number of appended rows and the cumulative tombstone set;
//   * every answer carries the epoch it reflects, so readers can defer
//     verification to the end instead of racing the writer for a
//     matching snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/dataset.h"
#include "src/data/generator.h"
#include "src/query/query_service.h"
#include "src/skycube/skycube.h"

namespace skyline {
namespace {

constexpr int kReaders = 4;
constexpr int kQueriesPerReader = 150;
constexpr int kUpdates = 60;
constexpr Dim kDims = 4;

// Deterministic per-thread mixing (tests must not depend on timing for
// coverage of the cuboid lattice).
std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

struct EpochSpec {
  std::size_t num_rows = 0;          // rows appended through this epoch
  std::vector<PointId> tombstones;   // cumulative removed ids
};

struct Observation {
  Subspace v;
  std::uint64_t epoch;
  std::vector<PointId> ids;
};

std::vector<PointId> OracleAtEpoch(const Dataset& final_rows,
                                   const EpochSpec& spec, Subspace v) {
  std::vector<PointId> live_ids;
  Dataset dense(final_rows.num_dims());
  for (PointId id = 0; id < spec.num_rows; ++id) {
    if (std::binary_search(spec.tombstones.begin(), spec.tombstones.end(), id))
      continue;
    live_ids.push_back(id);
    dense.Append(final_rows.point(id));
  }
  std::vector<PointId> out;
  for (PointId p : SubspaceSkyline(dense, v)) out.push_back(live_ids[p]);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(QueryUpdateDifferentialTest, ConcurrentQueriesAndUpdatesMatchOracle) {
  const Dataset seed_data =
      Generate(DataType::kAntiCorrelated, 600, kDims, 1234);
  QueryServiceOptions options;
  options.max_entries = 8;  // force eviction + recompute churn too
  QueryService service(seed_data, options);

  // The writer publishes, under a mutex, the replay spec of every epoch
  // it has created; readers only record observations and verify later.
  std::mutex spec_mu;
  std::map<std::uint64_t, EpochSpec> specs;
  specs[0] = EpochSpec{seed_data.num_points(), {}};

  std::vector<std::vector<Observation>> observed(kReaders);
  std::vector<std::thread> threads;

  std::thread writer([&] {
    std::uint64_t rng = 77;
    std::size_t next_row = seed_data.num_points();
    std::vector<PointId> tombstones;  // cumulative, sorted
    for (int u = 0; u < kUpdates; ++u) {
      rng = Mix(rng + u);
      // 1-3 inserts; every third burst also removes one live id.
      const std::size_t k = 1 + rng % 3;
      std::vector<Value> rows;
      for (std::size_t i = 0; i < k * kDims; ++i) {
        rng = Mix(rng);
        rows.push_back(static_cast<Value>(rng % 1000) / 1000.0);
      }
      std::vector<PointId> removes;
      if (u % 3 == 2) {
        rng = Mix(rng);
        PointId victim = static_cast<PointId>(rng % next_row);
        while (std::binary_search(tombstones.begin(), tombstones.end(),
                                  victim)) {
          victim = (victim + 1) % next_row;
        }
        removes.push_back(victim);
      }
      const std::uint64_t epoch = service.ApplyUpdate(rows, removes).value();
      next_row += k;
      tombstones.insert(
          std::upper_bound(tombstones.begin(), tombstones.end(),
                           removes.empty() ? 0 : removes[0]),
          removes.begin(), removes.end());
      {
        std::lock_guard<std::mutex> lock(spec_mu);
        specs[epoch] = EpochSpec{next_row, tombstones};
      }
    }
  });

  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t rng = 1000 + static_cast<std::uint64_t>(t);
      for (int q = 0; q < kQueriesPerReader; ++q) {
        rng = Mix(rng + static_cast<std::uint64_t>(q));
        const Subspace v(1 + rng % ((1u << kDims) - 1));
        std::uint64_t epoch = 0;
        if (rng % 5 == 0) {
          // Current-epoch-only probe: a hit must be exact at its epoch.
          std::vector<PointId> ids;
          if (service.PeekExact(v, &ids, &epoch)) {
            observed[t].push_back({v, epoch, std::move(ids)});
          }
        } else {
          observed[t].push_back({v, 0, {}});
          Observation& obs = observed[t].back();
          obs.ids = service.Query(v, &obs.epoch);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  writer.join();

  // Every epoch must have been published (the writer created them all).
  ASSERT_EQ(specs.size(), static_cast<std::size_t>(kUpdates) + 1);
  const DatasetVersionPtr final_version = service.current_version();
  ASSERT_EQ(final_version->epoch, static_cast<std::uint64_t>(kUpdates));

  std::size_t checked = 0;
  for (const std::vector<Observation>& per_thread : observed) {
    for (const Observation& obs : per_thread) {
      const auto it = specs.find(obs.epoch);
      ASSERT_NE(it, specs.end()) << "answer reported unknown epoch "
                                 << obs.epoch;
      EXPECT_EQ(obs.ids,
                OracleAtEpoch(final_version->data, it->second, obs.v))
          << "cuboid " << obs.v.ToString() << " at epoch " << obs.epoch;
      ++checked;
    }
  }
  EXPECT_GE(checked, static_cast<std::size_t>(kReaders) *
                         (kQueriesPerReader * 3 / 5));

  // Terminal sweep: after the dust settles, the service agrees with the
  // final-epoch oracle on every cuboid.
  for (std::uint64_t bits = 1; bits < (1u << kDims); ++bits) {
    const Subspace v(bits);
    std::uint64_t epoch = 0;
    EXPECT_EQ(service.Query(v, &epoch),
              OracleAtEpoch(final_version->data,
                            specs.at(final_version->epoch), v));
    EXPECT_EQ(epoch, final_version->epoch);
  }

  const QueryStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.updates, static_cast<std::uint64_t>(kUpdates));
  EXPECT_EQ(stats.epoch, static_cast<std::uint64_t>(kUpdates));
  EXPECT_EQ(stats.queries, stats.hits + stats.misses());
}

TEST(QueryUpdateDifferentialTest, ServeStaleBurstKeepsPeekAnswersSound) {
  // kServeStale's backing read, PeekStale, during an update burst: an
  // `exact` answer must equal the oracle at the epoch it is tagged
  // with, and a core must be a subset of it — never a torn or mixed
  // answer.
  const Dataset seed_data =
      Generate(DataType::kUniformIndependent, 400, kDims, 4321);
  QueryService service(seed_data);
  for (std::uint64_t bits = 1; bits < (1u << kDims); ++bits) {
    service.Query(Subspace(bits));
  }

  std::mutex spec_mu;
  std::map<std::uint64_t, EpochSpec> specs;
  specs[0] = EpochSpec{seed_data.num_points(), {}};

  std::vector<std::pair<Observation, bool>> stale_hits;  // answer, exact
  std::mutex hits_mu;
  std::thread reader([&] {
    std::uint64_t rng = 9;
    for (int q = 0; q < 400; ++q) {
      rng = Mix(rng + static_cast<std::uint64_t>(q));
      const Subspace v(1 + rng % ((1u << kDims) - 1));
      StaleAnswer answer;
      if (service.PeekStale(v, &answer)) {
        std::lock_guard<std::mutex> lock(hits_mu);
        stale_hits.push_back(
            {{v, answer.epoch, std::move(answer.ids)}, answer.exact});
      }
    }
  });

  std::uint64_t rng = 5150;
  std::size_t next_row = seed_data.num_points();
  for (int u = 0; u < 30; ++u) {
    rng = Mix(rng);
    std::vector<Value> row;
    for (Dim d = 0; d < kDims; ++d) {
      rng = Mix(rng);
      row.push_back(static_cast<Value>(rng % 1000) / 1000.0);
    }
    const std::uint64_t epoch = service.ApplyUpdate(row, {}).value();
    ++next_row;
    std::lock_guard<std::mutex> lock(spec_mu);
    specs[epoch] = EpochSpec{next_row, {}};
  }
  reader.join();

  const DatasetVersionPtr final_version = service.current_version();
  for (const auto& [obs, exact] : stale_hits) {
    const auto it = specs.find(obs.epoch);
    ASSERT_NE(it, specs.end());
    const std::vector<PointId> want =
        OracleAtEpoch(final_version->data, it->second, obs.v);
    if (exact) {
      EXPECT_EQ(obs.ids, want)
          << "cuboid " << obs.v.ToString() << " at epoch " << obs.epoch;
    } else {
      // Both ascending: a core may miss only duplicate-projection ties.
      EXPECT_TRUE(std::includes(want.begin(), want.end(), obs.ids.begin(),
                                obs.ids.end()))
          << "core of cuboid " << obs.v.ToString() << " at epoch "
          << obs.epoch << " is not a subset of the oracle";
    }
  }
  EXPECT_FALSE(stale_hits.empty());
}

}  // namespace
}  // namespace skyline

// QueryService vs. a brute-force subspace-skyline oracle.
//
// Input grammar (byte stream, total on truncation):
//   [0]  dimensionality d = 2 + b % 3          (2..4)
//   [1]  cache capacity  = 1 + b % 6           (max_entries)
//   [2]  flags: bit0 = pin_full_space
//              bit1 = submit one malformed update before the queries
//              bit2 = seeded_boost_threshold = 0 (every seeded miss
//                     takes the subset-boosted kernel, not the BNL)
//   [3]  number of points n = 1 + b % 48
//   then n * d value bytes, quantized to b % 8 so duplicate
//   projections (the tie-repair path) are everywhere,
//   then, with bit1, one byte b: the update removes id n + b, always
//   out of range,
//   then every remaining byte is one query: mask = 1 + b % (2^d - 1).
//
// Checks: the malformed update is refused and leaves the epoch and the
// update count at 0; each query's result equals the O(d N^2) oracle
// (computed fresh, memoized per distinct mask), so the cache the
// refused update must leave alone is checked too; afterwards the stats
// identities (queries = hits + misses, latency count,
// eviction/capacity bound, tie scans <= seeded misses).
#ifndef SKYLINE_FUZZ_HARNESS_QUERY_SERVICE_H_
#define SKYLINE_FUZZ_HARNESS_QUERY_SERVICE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "fuzz/fuzz_util.h"
#include "src/core/dataset.h"
#include "src/query/query_service.h"
#include "src/skycube/skycube.h"

namespace skyline::fuzz {

namespace query_service_oracle {

/// O(d N^2) subspace skyline, ids ascending — independent of both the
/// skycube BNL and the service's engines.
inline std::vector<PointId> Reference(const Dataset& data, Subspace v) {
  std::vector<PointId> out;
  for (PointId p = 0; p < data.num_points(); ++p) {
    bool dominated = false;
    for (PointId q = 0; q < data.num_points() && !dominated; ++q) {
      if (q != p && DominatesInSubspace(data.row(q), data.row(p), v)) {
        dominated = true;
      }
    }
    if (!dominated) out.push_back(p);
  }
  return out;
}

}  // namespace query_service_oracle

inline void RunQueryServiceFuzzInput(const std::uint8_t* data,
                                     std::size_t size) {
  ByteReader in(data, size);
  if (in.remaining() < 6) return;

  const Dim d = 2 + in.U8() % 3;
  QueryServiceOptions options;
  options.max_entries = 1 + in.U8() % 6;
  const std::uint8_t flags = in.U8();
  options.pin_full_space = (flags & 1) != 0;
  if ((flags & 4) != 0) options.seeded_boost_threshold = 0;

  const std::size_t n = 1 + in.U8() % 48;
  Dataset table(d);
  std::vector<Value> row(d);
  for (std::size_t p = 0; p < n; ++p) {
    for (Dim i = 0; i < d; ++i) row[i] = static_cast<Value>(in.U8() % 8);
    table.Append(row);
  }

  QueryService service(table, options);
  if ((flags & 2) != 0) {
    const std::vector<PointId> removes = {static_cast<PointId>(n + in.U8())};
    FUZZ_CHECK(!service.ApplyUpdate({}, removes).has_value(),
               "a remove id out of range was not refused");
    const QueryStatsSnapshot stats = service.Stats();
    FUZZ_CHECK(stats.epoch == 0 && stats.updates == 0,
               "a refused update changed the epoch or the update count");
  }
  const std::uint64_t num_masks = std::uint64_t{1} << d;
  std::map<std::uint64_t, std::vector<PointId>> oracle;
  std::uint64_t num_queries = 0;

  while (!in.exhausted()) {
    const std::uint64_t bits = 1 + in.U8() % (num_masks - 1);
    const Subspace v(bits);
    auto it = oracle.find(bits);
    if (it == oracle.end()) {
      it = oracle.emplace(bits, query_service_oracle::Reference(table, v))
               .first;
    }
    const std::vector<PointId> got = service.Query(v);
    FUZZ_CHECK(got == it->second,
               "QueryService answer differs from the brute-force oracle");
    ++num_queries;
  }

  const QueryStatsSnapshot stats = service.Stats();
  FUZZ_CHECK(stats.queries == num_queries, "query count drifted");
  FUZZ_CHECK(stats.hits + stats.misses() == stats.queries,
             "hits + misses != queries");
  FUZZ_CHECK(stats.latency.total == stats.queries,
             "latency histogram lost samples");
  const std::size_t pinned = options.pin_full_space ? 1 : 0;
  FUZZ_CHECK(stats.cache_entries <= options.max_entries + pinned,
             "cache exceeded its entry bound");
  FUZZ_CHECK(stats.seeded_tests + stats.cold_tests ==
                 stats.dominance_tests(),
             "dominance-test split inconsistent");
  FUZZ_CHECK(stats.tie_scans <= stats.seeded,
             "more tie scans than seeded misses");
}

}  // namespace skyline::fuzz

#endif  // SKYLINE_FUZZ_HARNESS_QUERY_SERVICE_H_

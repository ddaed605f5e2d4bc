#include "perfbench/src/schedule.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <set>

#include "src/query/query_service.h"

namespace perfbench {

namespace {

// Bursts of 32 on zipf-read put the 4-core loop where a 20-30% swing in
// machine speed turned into several-fold latency swings; at 16 the
// misses still queue behind each other within a burst.
constexpr WorkloadSpec kWorkloads[] = {
    {"zipf-read", skyline::DataType::kUniformIndependent, 100000, 16,
     /*zipf=*/true},
    {"ac-uniform", skyline::DataType::kAntiCorrelated, 20000, 8,
     /*zipf=*/false},
};

// Independent random streams per purpose (splitmix64 of seed and tag).
std::mt19937_64 Stream(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return std::mt19937_64(z ^ (z >> 31));
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

skyline::Dataset GenerateData(const WorkloadSpec& spec, std::uint64_t seed) {
  return skyline::Generate(spec.type, spec.n, kDims, seed);
}

Schedule BuildSchedule(const WorkloadSpec& spec, std::uint64_t seed,
                       int seconds) {
  std::mt19937_64 cuboid_rng = Stream(seed, 1);
  std::mt19937_64 remove_rng = Stream(seed, 3);
  std::mt19937_64 check_rng = Stream(seed, 4);
  std::mt19937_64 probe_rng = Stream(seed, 5);

  // Zipf rank r (1-based) has weight 1/r over a seeded shuffle of the
  // 2^d - 1 subspaces, so which cuboids are hot depends on the seed.
  std::vector<std::uint64_t> subspaces((1u << kDims) - 1);
  std::iota(subspaces.begin(), subspaces.end(), 1);
  std::shuffle(subspaces.begin(), subspaces.end(), cuboid_rng);
  std::vector<double> cdf(subspaces.size());
  double total = 0;
  for (std::size_t r = 0; r < cdf.size(); ++r) {
    total += spec.zipf ? 1.0 / static_cast<double>(r + 1) : 1.0;
    cdf[r] = total;
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  Schedule s;
  const int bursts = static_cast<int>(
      (kWarmup + std::chrono::seconds(seconds)) / kBurstInterval);
  std::set<std::uint64_t> seen;
  for (int b = 0; b < bursts; ++b) {
    for (std::size_t q = 0; q < spec.burst; ++q) {
      const double u = unit(cuboid_rng) * total;
      const std::size_t rank = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      Op op;
      op.due = b * kBurstInterval;
      op.warmup = op.due < kWarmup;
      op.v = Subspace(subspaces[std::min(rank, subspaces.size() - 1)]);
      op.check = seen.insert(op.v.bits()).second;
      s.window.push_back(std::move(op));
    }
  }

  // Inserted rows follow the workload's own distribution: uniform rows
  // in AC data would often dominate thousands of points and shrink the
  // skyline each recompute scans by an amount that varies with the seed.
  const std::size_t row_values = kInsertsPerUpdate * kDims;
  const skyline::Dataset inserted =
      skyline::Generate(spec.type, kTailUpdates * kInsertsPerUpdate, kDims,
                        Stream(seed, 2)());
  std::vector<PointId> removal_order(spec.n);
  std::iota(removal_order.begin(), removal_order.end(), 0);
  std::shuffle(removal_order.begin(), removal_order.end(), remove_rng);
  for (std::size_t k = 0; k < kTailUpdates; ++k) {
    Op op;
    op.kind = Op::Kind::kUpdate;
    op.inserts.assign(inserted.values().begin() + k * row_values,
                      inserted.values().begin() + (k + 1) * row_values);
    op.removes = {removal_order[k]};
    s.tail.push_back(std::move(op));
  }

  // Seeded sample of responses to check beyond each cuboid's first.
  std::vector<std::size_t> queries;
  for (std::size_t i = 0; i < s.window.size(); ++i) {
    if (!s.window[i].check) queries.push_back(i);
  }
  std::shuffle(queries.begin(), queries.end(), check_rng);
  queries.resize(std::min(queries.size(), kCheckSample));
  for (std::size_t i : queries) s.window[i].check = true;

  std::set<std::uint64_t> probed = {Subspace::Full(kDims).bits()};
  s.probes.push_back(Subspace::Full(kDims));
  const std::size_t cached = skyline::QueryServiceOptions().max_entries;
  for (auto op = s.window.rbegin();
       op != s.window.rend() && s.probes.size() <= cached; ++op) {
    if (probed.insert(op->v.bits()).second) s.probes.push_back(op->v);
  }
  std::shuffle(subspaces.begin(), subspaces.end(), probe_rng);
  const std::size_t sampled = s.probes.size() + kProbeSample;
  for (std::size_t i = 0; i < subspaces.size() && s.probes.size() < sampled;
       ++i) {
    if (probed.insert(subspaces[i]).second) s.probes.emplace_back(subspaces[i]);
  }
  return s;
}

}  // namespace perfbench

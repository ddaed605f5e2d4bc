// Bench and gate: the parallel subset-boosted engine against its
// sequential baseline (sfs-subset), over worker thread counts, on UI and
// AC data (8-D, seed 42). Reduced scale runs 100K points per family, the
// scale of ROADMAP item 2's gate; --quick runs 20K; --full runs 1M UI and
// 200K AC points (AC at 1M would take hours on the sequential engine).
//
// The gate is the deterministic dominance-test count: the binary exits 1
// when parallel-subset-sfs spends more than 1.2x sfs-subset's dominance
// tests per point at any thread count. Wall time is printed, with the
// 4-thread run against sfs-subset, but it is advisory only — it depends
// on the host's cores and their load.
//
// Usage: bench_parallel_subset [--quick|--full] [--runs=N] [--seed=N]
//                              [--json=PATH]
#include <iostream>
#include <string>

#include "bench/bench_common.h"
#include "src/parallel/parallel_subset.h"
#include "src/subset/boosted.h"

namespace {

constexpr double kMaxDtRatio = 1.2;

}  // namespace

int main(int argc, char** argv) {
  using namespace skyline;
  BenchOptions opts = BenchOptions::Parse(argc, argv);
  const Dim d = 8;
  JsonReport report("bench_parallel_subset");
  bool gate_ok = true;

  for (DataType type :
       {DataType::kUniformIndependent, DataType::kAntiCorrelated}) {
    const std::size_t n =
        opts.full ? (type == DataType::kAntiCorrelated ? 200000 : 1000000)
                  : (opts.quick ? 20000 : 100000);
    Dataset data = Generate(type, n, d, opts.seed);
    const std::string scenario = bench::ScenarioLabel(type, n, d, opts.seed);
    std::cerr << "  [parallel-subset] generated " << scenario << "\n";

    TextTable table({"algorithm", "threads", "RT (ms)", "DT/point",
                     "DT vs sfs-subset", "speedup vs sfs-subset"});
    auto record = [&](const std::string& algorithm, const RunResult& r) {
      report.Add({"", scenario, algorithm, n, d, opts.seed,
                  opts.EffectiveRuns(), r.mean_dominance_tests, r.elapsed_ms,
                  r.skyline_size});
    };

    const RunResult base =
        RunAlgorithm(SfsSubset(), data, opts.EffectiveRuns());
    table.AddRow({"sfs-subset", "1", TextTable::FormatNumber(base.elapsed_ms),
                  TextTable::FormatNumber(base.mean_dominance_tests), "1.00",
                  "1.00"});
    record("sfs-subset", base);

    double rt_at_4 = 0;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      const RunResult r = RunAlgorithm(ParallelSubsetSfs(threads), data,
                                       opts.EffectiveRuns());
      const double dt_ratio =
          base.mean_dominance_tests > 0
              ? r.mean_dominance_tests / base.mean_dominance_tests
              : 1.0;
      const double speedup =
          r.elapsed_ms > 0 ? base.elapsed_ms / r.elapsed_ms : 0;
      table.AddRow({"parallel-subset-sfs", std::to_string(threads),
                    TextTable::FormatNumber(r.elapsed_ms),
                    TextTable::FormatNumber(r.mean_dominance_tests),
                    TextTable::FormatNumber(dt_ratio),
                    TextTable::FormatNumber(speedup)});
      record("parallel-subset-sfs-t" + std::to_string(threads), r);
      if (threads == 4) rt_at_4 = r.elapsed_ms;
      if (dt_ratio > kMaxDtRatio) {
        gate_ok = false;
        std::cout << "GATE FAIL: " << scenario << " threads=" << threads
                  << ": parallel-subset-sfs DT/point "
                  << r.mean_dominance_tests << " exceeds " << kMaxDtRatio
                  << "x sfs-subset's " << base.mean_dominance_tests << "\n";
      }
    }

    table.Print(std::cout, "Parallel subset-boosted skyline (" + scenario +
                               ", runs=" +
                               std::to_string(opts.EffectiveRuns()) + ")");
    std::cout << "advisory: 4-thread RT " << TextTable::FormatNumber(rt_at_4)
              << " ms vs sfs-subset "
              << TextTable::FormatNumber(base.elapsed_ms) << " ms ("
              << (rt_at_4 < base.elapsed_ms ? "faster" : "NOT faster")
              << "; not gated)\n\n";
  }

  std::cout << "DT gate (parallel-subset-sfs <= " << kMaxDtRatio
            << "x sfs-subset at every thread count): "
            << (gate_ok ? "PASS" : "FAIL") << "\n";
  const int json_status = bench::FinishJson(opts, report);
  return gate_ok ? json_status : 1;
}

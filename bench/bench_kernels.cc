// Microbenchmark of the dominance-kernel layer (src/core/kernels.h):
// scalar reference loops over packed Dataset rows vs vectorized kernels
// over padded, 64-byte-aligned AlignedDataset rows, plus the batched
// one-vs-many probes the subset algorithms execute.
//
// Every variant accumulates a checksum; a scalar/kernel checksum or
// scan-count mismatch fails the binary, so the perf numbers can never
// come from semantically diverged code. DT-style metrics (row scans per
// point) are deterministic given the seed and form the CI hard gate;
// wall time is advisory.
//
// On top of the scalar-vs-dispatched records, the bench sweeps every
// compiled ISA backend (scalar / AVX2 / AVX-512) with the quantized
// prefilter off and on over the sustained block-scan workloads, and
// enforces a speedup gate in-binary: on the correlated and
// independent scenarios the dispatched-SIMD-plus-prefilter path must
// beat the portable auto-vectorized backend by >= 1.5x on the
// one-vs-many scan record (anti-correlated is advisory). The per-ISA
// timings land in the JSON "meta" object — they are machine-specific,
// so they never become baseline records — while the ISA-agnostic
// scalar/kernel records stay gateable by scripts/check_perf.py.
//
// Usage: bench_kernels [--quick|--full] [--runs=N] [--seed=N]
//                      [--json=PATH]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/aligned_dataset.h"
#include "src/core/cpu.h"
#include "src/core/dominance.h"
#include "src/core/kernels.h"
#include "src/core/simd_dispatch.h"
#include "src/data/generator.h"
#include "src/harness/json_report.h"
#include "src/harness/options.h"
#include "src/harness/table.h"

namespace {

using namespace skyline;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct VariantResult {
  double ms = 0;
  std::uint64_t checksum = 0;
  std::uint64_t scans = 0;  // O(d) row scans performed (deterministic)
};

/// Times `pass` (which returns {checksum, scans}) `runs` times; reports
/// the mean wall time and the last checksum/scans.
VariantResult Run(int runs,
                  const std::function<std::pair<std::uint64_t, std::uint64_t>()>&
                      pass) {
  VariantResult out;
  double total = 0;
  for (int r = 0; r < runs; ++r) {
    const double t0 = NowMs();
    auto [checksum, scans] = pass();
    total += NowMs() - t0;
    out.checksum = checksum;
    out.scans = scans;
  }
  out.ms = total / runs;
  return out;
}

int g_failures = 0;

/// Per-scenario per-ISA timings and gate verdicts, rendered into the
/// JSON "meta" object at the end of main.
std::vector<std::string> g_isa_sweep_entries;
std::vector<std::string> g_gate_entries;

/// Required dispatched-vs-autovec speedup on the scan records of the
/// UI and CO scenarios (AC advisory). Enforced only when the dispatcher
/// actually selected a SIMD backend — a scalar-only machine has nothing
/// to gate.
constexpr double kRequiredSpeedup = 1.5;

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string JoinEntries(const std::vector<std::string>& entries) {
  std::string out = "[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out += entries[i];
    if (i + 1 < entries.size()) out += ", ";
  }
  out += "]";
  return out;
}

/// Registers a scalar/kernel variant pair: checks checksum + scan
/// equality, prints one table row, appends two JSON records.
void Record(JsonReport* report, TextTable* table, const std::string& scenario,
            std::size_t n, Dim d, std::uint64_t seed, int runs,
            const std::string& name, const VariantResult& scalar,
            const VariantResult& kernel) {
  if (scalar.checksum != kernel.checksum || scalar.scans != kernel.scans) {
    std::cerr << "MISMATCH in " << scenario << " " << name
              << ": scalar checksum=" << scalar.checksum
              << " scans=" << scalar.scans
              << " vs kernel checksum=" << kernel.checksum
              << " scans=" << kernel.scans << "\n";
    ++g_failures;
  }
  const double dt = static_cast<double>(scalar.scans) / static_cast<double>(n);
  table->AddRow({name, TextTable::FormatNumber(dt),
                 TextTable::FormatNumber(scalar.ms),
                 TextTable::FormatNumber(kernel.ms),
                 TextTable::FormatGain(scalar.ms, kernel.ms)});
  report->Add({"", scenario, "scalar/" + name, n, d, seed, runs, dt, scalar.ms,
               0});
  report->Add({"", scenario, "kernel/" + name, n, d, seed, runs, dt, kernel.ms,
               0});
}

void BenchScenario(DataType type, std::size_t n, Dim d,
                   const BenchOptions& opts, JsonReport* report) {
  const int runs = opts.EffectiveRuns();
  const std::string scenario = bench::ScenarioLabel(type, n, d, opts.seed);
  const Dataset data = Generate(type, n, d, opts.seed);
  AlignedDataset aligned(data);
  // Built up front: the ISA sweep and gate records measure prefiltered
  // scans, so the plane must exist before any timed region.
  aligned.EnsureQuantized();

  // Fixed pseudo-random pair sequence for the pairwise kernels.
  const std::size_t num_pairs = 4 * n;
  std::vector<std::pair<PointId, PointId>> pairs(num_pairs);
  std::mt19937_64 rng(opts.seed ^ 0x9e3779b97f4a7c15ULL);
  for (auto& p : pairs) {
    p = {static_cast<PointId>(rng() % n), static_cast<PointId>(rng() % n)};
  }

  // Pivot block for the batched probes: the strongest points by
  // coordinate sum, the shape of a SubsetIndex candidate list.
  const std::size_t block_size = std::min<std::size_t>(64, n);
  std::vector<PointId> by_sum(n);
  std::iota(by_sum.begin(), by_sum.end(), PointId{0});
  std::sort(by_sum.begin(), by_sum.end(), [&](PointId a, PointId b) {
    const Value* ra = data.row(a);
    const Value* rb = data.row(b);
    Value sa = 0, sb = 0;
    for (Dim k = 0; k < d; ++k) {
      sa += ra[k];
      sb += rb[k];
    }
    if (sa != sb) return sa < sb;
    return a < b;
  });
  const std::vector<PointId> block(by_sum.begin(),
                                   by_sum.begin() + block_size);
  // The block's packed rows beside its ids, as a SubsetIndex node holds
  // them, gathered once outside every timed loop. A probe's packed row
  // is its own row of the plane; without the prefilter the probe kernel
  // gets none and runs exact compares.
  std::vector<std::uint8_t> block_qrows;
  for (PointId s : block) {
    const std::uint8_t* row = aligned.qrow_unchecked(s);
    block_qrows.insert(block_qrows.end(), row, row + aligned.qstride());
  }
  const auto packed_probe = [&](std::size_t q, bool prefilter) {
    return prefilter ? aligned.qrow_unchecked(q) : nullptr;
  };
  const bool dispatched_prefilter = cpu::PrefilterEnabled();

  TextTable table({"Kernel", "scans/point", "scalar ms", "kernel ms", "gain"});

  // ---- dominates: pairwise a < b over the pair sequence. ----
  const auto scalar_dom = Run(runs, [&] {
    std::uint64_t checksum = 0;
    for (const auto& [a, b] : pairs) {
      checksum += Dominates(data.row(a), data.row(b), d) ? 1 : 0;
    }
    return std::make_pair(checksum, static_cast<std::uint64_t>(num_pairs));
  });
  const auto kernel_dom = Run(runs, [&] {
    std::uint64_t checksum = 0;
    for (const auto& [a, b] : pairs) {
      checksum += kernels::Dominates(aligned.row_unchecked(a),
                                     aligned.row_unchecked(b), d)
                      ? 1
                      : 0;
    }
    return std::make_pair(checksum, static_cast<std::uint64_t>(num_pairs));
  });
  Record(report, &table, scenario, n, d, opts.seed, runs, "dominates",
         scalar_dom, kernel_dom);

  // ---- compare: full pair classification. ----
  const auto scalar_cmp = Run(runs, [&] {
    std::uint64_t checksum = 0;
    for (const auto& [a, b] : pairs) {
      checksum += static_cast<std::uint64_t>(Compare(data.row(a), data.row(b), d));
    }
    return std::make_pair(checksum, static_cast<std::uint64_t>(num_pairs));
  });
  const auto kernel_cmp = Run(runs, [&] {
    std::uint64_t checksum = 0;
    for (const auto& [a, b] : pairs) {
      checksum += static_cast<std::uint64_t>(kernels::Compare(
          aligned.row_unchecked(a), aligned.row_unchecked(b), d));
    }
    return std::make_pair(checksum, static_cast<std::uint64_t>(num_pairs));
  });
  Record(report, &table, scenario, n, d, opts.seed, runs, "compare",
         scalar_cmp, kernel_cmp);

  // ---- dominating-subspace-ex: the Merge inner-loop pair kernel. ----
  const auto scalar_dse = Run(runs, [&] {
    std::uint64_t checksum = 0;
    for (const auto& [a, b] : pairs) {
      bool worse = false;
      checksum += DominatingSubspaceEx(data.row(a), data.row(b), d, &worse)
                      .bits() +
                  (worse ? 1 : 0);
    }
    return std::make_pair(checksum, static_cast<std::uint64_t>(num_pairs));
  });
  const auto kernel_dse = Run(runs, [&] {
    std::uint64_t checksum = 0;
    for (const auto& [a, b] : pairs) {
      bool worse = false;
      checksum += kernels::DominatingSubspaceEx(aligned.row_unchecked(a),
                                                aligned.row_unchecked(b), d,
                                                &worse)
                      .bits() +
                  (worse ? 1 : 0);
    }
    return std::make_pair(checksum, static_cast<std::uint64_t>(num_pairs));
  });
  Record(report, &table, scenario, n, d, opts.seed, runs,
         "dominating-subspace-ex", scalar_dse, kernel_dse);

  // ---- dominates-any: every point probed against the pivot block,
  // early exit at the first dominator (the retrieval-loop shape). ----
  const auto scalar_any = Run(runs, [&] {
    std::uint64_t checksum = 0;
    std::uint64_t scans = 0;
    for (std::size_t q = 0; q < n; ++q) {
      const Value* q_row = data.row(static_cast<PointId>(q));
      bool dominated = false;
      for (PointId s : block) {
        ++scans;
        if (Dominates(data.row(s), q_row, d)) {
          dominated = true;
          break;
        }
      }
      checksum += dominated ? 1 : 0;
    }
    return std::make_pair(checksum, scans);
  });
  const auto kernel_any = Run(runs, [&] {
    std::uint64_t checksum = 0;
    std::uint64_t scans = 0;
    for (std::size_t q = 0; q < n; ++q) {
      const auto r = kernels::DominatesAny(
          aligned, block, block_qrows.data(), aligned.row_unchecked(q),
          packed_probe(q, dispatched_prefilter), d);
      scans += r.scanned;
      checksum += r.first != kernels::kNoDominator ? 1 : 0;
    }
    return std::make_pair(checksum, scans);
  });
  Record(report, &table, scenario, n, d, opts.seed, runs, "dominates-any",
         scalar_any, kernel_any);

  // ---- Sustained block-scan workloads: probes no pivot dominates, so
  // every probe scans the whole block. This is the expensive shape of
  // the subset inner loops (a point that WILL be admitted to the
  // skyline always pays the full window), and the one where kernel
  // throughput — not early-exit luck — decides the wall clock. The
  // probe list cycles the survivor set up to n probes. Never empty:
  // the block's minimum-sum point cannot be dominated (dominance
  // strictly lowers the coordinate sum). ----
  std::vector<PointId> survivors;
  for (std::size_t q = 0; q < n; ++q) {
    const Value* q_row = data.row(static_cast<PointId>(q));
    bool dominated = false;
    for (PointId s : block) {
      if (Dominates(data.row(s), q_row, d)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) survivors.push_back(static_cast<PointId>(q));
  }
  std::vector<PointId> probes(n);
  for (std::size_t i = 0; i < n; ++i) {
    probes[i] = survivors[i % survivors.size()];
  }

  // ---- dominates-any-scan: the one-vs-many probe at full block
  // occupancy. ----
  const auto scalar_any_scan = Run(runs, [&] {
    std::uint64_t checksum = 0;
    std::uint64_t scans = 0;
    for (PointId q : probes) {
      const Value* q_row = data.row(q);
      bool dominated = false;
      for (PointId s : block) {
        ++scans;
        if (Dominates(data.row(s), q_row, d)) {
          dominated = true;
          break;
        }
      }
      checksum += dominated ? 1 : 0;
    }
    return std::make_pair(checksum, scans);
  });
  const auto kernel_any_scan = Run(runs, [&] {
    std::uint64_t checksum = 0;
    std::uint64_t scans = 0;
    for (PointId q : probes) {
      const auto r = kernels::DominatesAny(
          aligned, block, block_qrows.data(), aligned.row_unchecked(q),
          packed_probe(q, dispatched_prefilter), d);
      scans += r.scanned;
      checksum += r.first != kernels::kNoDominator ? 1 : 0;
    }
    return std::make_pair(checksum, scans);
  });
  Record(report, &table, scenario, n, d, opts.seed, runs, "dominates-any-scan",
         scalar_any_scan, kernel_any_scan);

  table.Print(std::cout, scenario + ": scalar vs vectorized kernels");
  std::cout << '\n';

  // ---- Per-ISA sweep and speedup gate over the scan workloads. Every
  // backend is checksummed against the scalar reference above, so a
  // diverged backend fails the binary before it can post a number. ----
  const auto run_ops_any = [&](const kernels::simd::KernelOps& ops,
                               bool prefilter) {
    return Run(runs, [&] {
      std::uint64_t checksum = 0;
      std::uint64_t scans = 0;
      for (PointId q : probes) {
        const auto r = ops.dominates_any(
            aligned, block, block_qrows.data(), aligned.row_unchecked(q),
            packed_probe(q, prefilter), d);
        scans += r.scanned;
        checksum += r.first != kernels::kNoDominator ? 1 : 0;
      }
      return std::make_pair(checksum, scans);
    });
  };
  const auto check = [&](const char* what, const VariantResult& got,
                         const VariantResult& want) {
    if (got.checksum != want.checksum || got.scans != want.scans) {
      std::cerr << "MISMATCH in " << scenario << " " << what
                << ": checksum=" << got.checksum << " scans=" << got.scans
                << " vs reference checksum=" << want.checksum
                << " scans=" << want.scans << "\n";
      ++g_failures;
    }
  };

  // The autovec reference: the portable backend with the prefilter off
  // — the pre-dispatch kernel this layer replaces.
  const auto autovec_any = run_ops_any(kernels::simd::kScalarOps, false);
  check("autovec/dominates-any-scan", autovec_any, scalar_any_scan);

  TextTable isa_table({"Backend", "any-scan ms", "gain"});
  double active_any_ms = autovec_any.ms;
  for (cpu::IsaLevel level : cpu::kAllLevels) {
    const kernels::simd::KernelOps* ops = cpu::OpsFor(level);
    if (ops == nullptr) continue;
    for (bool prefilter : {false, true}) {
      const auto any_r = run_ops_any(*ops, prefilter);
      check("isa-any", any_r, scalar_any_scan);
      const std::string label = std::string(cpu::IsaName(level)) +
                                (prefilter ? "+prefilter" : "");
      isa_table.AddRow({label, TextTable::FormatNumber(any_r.ms),
                        TextTable::FormatGain(autovec_any.ms, any_r.ms)});
      g_isa_sweep_entries.push_back(
          std::string("{\"scenario\": \"") + scenario + "\", \"isa\": \"" +
          cpu::IsaName(level) +
          "\", \"prefilter\": " + (prefilter ? "true" : "false") +
          ", \"dominates_any_scan_ms\": " + FmtDouble(any_r.ms) + "}");
      if (level == cpu::ActiveIsa() && prefilter) active_any_ms = any_r.ms;
    }
  }
  isa_table.Print(std::cout,
                  scenario + ": per-ISA block-scan sweep (vs autovec)");
  std::cout << '\n';

  // ---- The speedup gate. ----
  const bool gate_applies = cpu::ActiveIsa() != cpu::IsaLevel::kScalar;
  const bool enforced =
      gate_applies && (type == DataType::kUniformIndependent ||
                       type == DataType::kCorrelated);
  const char* record = "dominates-any-scan";
  const double speedup = autovec_any.ms / active_any_ms;
  const bool pass = speedup >= kRequiredSpeedup;
  g_gate_entries.push_back(
      std::string("{\"scenario\": \"") + scenario + "\", \"record\": \"" +
      record + "\", \"required\": " + FmtDouble(kRequiredSpeedup) +
      ", \"speedup\": " + FmtDouble(speedup) +
      ", \"enforced\": " + (enforced ? "true" : "false") +
      ", \"pass\": " + (pass ? "true" : "false") + "}");
  if (gate_applies && !pass && enforced) {
    std::cerr << "GATE FAIL " << scenario << " " << record
              << ": dispatched+prefilter is only x" << FmtDouble(speedup)
              << " over autovec (need x" << FmtDouble(kRequiredSpeedup)
              << ")\n";
    ++g_failures;
  } else if (gate_applies && !pass) {
    std::cerr << "  [gate-advisory] " << scenario << " " << record << ": x"
              << FmtDouble(speedup) << " (< x" << FmtDouble(kRequiredSpeedup)
              << ", not enforced)\n";
  }

  std::cerr << "  [kernels] " << scenario << " done\n";
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::Parse(argc, argv);
  const std::size_t n = opts.full ? 64000 : (opts.quick ? 4000 : 16000);
  const std::vector<Dim> dims =
      opts.quick ? std::vector<Dim>{8} : std::vector<Dim>{4, 8, 16};
  std::cout << "# Dominance-kernel microbench — n=" << n
            << ", runs=" << opts.EffectiveRuns() << ", seed=" << opts.seed
            << "\n# " << cpu::Description() << "\n\n";

  JsonReport report("bench_kernels");
  for (DataType type : {DataType::kUniformIndependent, DataType::kCorrelated,
                        DataType::kAntiCorrelated}) {
    for (Dim d : dims) {
      BenchScenario(type, n, d, opts, &report);
    }
  }
  report.SetMeta("cpu", cpu::Description());
  report.SetMetaJson("isa_sweep", JoinEntries(g_isa_sweep_entries));
  report.SetMetaJson("gate", JoinEntries(g_gate_entries));
  if (g_failures != 0) {
    std::cerr << g_failures << " scalar/kernel mismatches or gate failures\n";
    return 1;
  }
  return bench::FinishJson(opts, report);
}

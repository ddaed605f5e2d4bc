// skybench: runs one benchmark workload against the serving stack.
//
//   skybench --workload NAME --seed N --seconds S --trace 0|1 [--spans F]
//
// --trace 0 is the timed run: it sets the server up several times,
// drives the workload's open loop through SkylineServer, checks the
// answers and prints the end-to-end metrics. --trace 1 is the traced
// run: the same server pass with spans, then the layer-by-layer replay
// pass (replay.h); it prints the per-layer metrics and writes its spans
// to F. The last line of standard output is the result JSON; a wrong
// answer or a replay that does not reproduce the service exits 3
// without it. Both print their phase times on standard error.
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "perfbench/src/replay.h"
#include "perfbench/src/schedule.h"
#include "perfbench/src/server_pass.h"
#include "perfbench/src/trace.h"
#include "src/core/cpu.h"
#include "src/server/server.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using skyline::SkylineServer;
using skyline::StatusCode;

/// Server constructions per timed run, all before the window (the last
/// one serves it), so each starts from the same process state; they are
/// kSetupGap apart so that one slow second of the host moves few of them.
/// setup_s is their median.
constexpr int kSetups = 9;
constexpr std::chrono::milliseconds kSetupGap{250};
constexpr double kMiB = 1024.0 * 1024.0;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Args {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    const char* end = value + std::strlen(value);
    if (flag == "--workload") {
      args->spec = FindWorkload(value);
    } else if (flag == "--seed") {
      have_seed = std::from_chars(value, end, args->seed).ptr == end;
    } else if (flag == "--seconds") {
      if (std::from_chars(value, end, args->seconds).ptr != end) return false;
    } else if (flag == "--trace") {
      if (std::from_chars(value, end, args->trace).ptr != end) return false;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->spec != nullptr && have_seed &&
         args->seconds >= 1 && (args->trace == 0 || args->trace == 1);
}

void PrintLabels(const Args& args) {
  const skyline::ServerOptions options = BenchServerOptions();
  std::cout << "{\"labels\": {\"workload\": \"" << args.spec->name
            << "\", \"seed\": " << args.seed
            << ", \"seconds\": " << args.seconds
            << ", \"trace\": " << args.trace
            << ", \"n\": " << args.spec->n << ", \"d\": " << kDims
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": \"" << skyline::cpu::Description()
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"workers\": " << options.workers
            << ", \"query_threads\": " << options.query.threads << "}}"
            << std::endl;
}

/// Latency samples of one pass, split by op kind.
struct Latencies {
  std::vector<double> query_ms;
  std::vector<double> update_ms;
  std::uint64_t failed = 0;
};

Latencies Summarize(const Schedule& schedule,
                    const std::vector<OpResult>& results) {
  Latencies out;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Op& op = OpAt(schedule, i);
    if (results[i].status != StatusCode::kOk) ++out.failed;
    if (op.warmup) continue;
    (op.kind == Op::Kind::kQuery ? out.query_ms : out.update_ms)
        .push_back(results[i].LatencyMs());
  }
  return out;
}

int RunTimed(const Args& args) {
  Clock::time_point phase = Clock::now();
  const skyline::Dataset data = GenerateData(*args.spec, args.seed);
  const Schedule schedule =
      BuildSchedule(*args.spec, args.seed, args.seconds);
  const skyline::ServerOptions options = BenchServerOptions();

  std::vector<double> setup_s;
  std::unique_ptr<SkylineServer> server;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) std::this_thread::sleep_for(kSetupGap);
    server.reset();
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<SkylineServer>(data, options);
    setup_s.push_back(SecondsSince(t0));
  }
  std::cerr << "skybench: data and setups " << SecondsSince(phase) << " s";
  phase = Clock::now();
  const std::vector<OpResult> results = DriveServer(*server, schedule);
  std::cerr << ", window and tail " << SecondsSince(phase) << " s";
  phase = Clock::now();
  const std::uint64_t fast_hits = server->Stats().fast_hits;
  const std::vector<ProbeResult> probes = ProbeFinalEpoch(*server, schedule);
  const std::uint64_t probe_hits = server->Stats().fast_hits - fast_hits;
  server.reset();
  std::cerr << ", probes " << SecondsSince(phase) << " s";
  phase = Clock::now();
  const bool correct = CheckPass(data, schedule, results, probes, std::cerr);
  std::cerr << ", answer checks " << SecondsSince(phase) << " s ("
            << probes.size() << " probes, " << probe_hits
            << " from the cache); setups";
  for (double t : setup_s) std::cerr << " " << t;
  std::cerr << " s\n";
  if (!correct) return 3;

  Latencies lat = Summarize(schedule, results);
  // How far the latencies drift within the run: p50 and p95 of each
  // quarter of the window.
  const std::size_t quarter = lat.query_ms.size() / 4;
  std::cerr << "skybench: query p50/p95 by quarter of the window";
  for (std::size_t k = 0; k < 4; ++k) {
    std::vector<double> part(lat.query_ms.begin() + k * quarter,
                             lat.query_ms.begin() + (k + 1) * quarter);
    std::cerr << " " << Percentile(part, 50) << "/" << Percentile(part, 95);
  }
  std::cerr << " ms\n";
  ResultLine line;
  line.Add("setup_s", Percentile(setup_s, 50), "s");
  line.Add("query_p50_ms", Percentile(lat.query_ms, 50), "ms");
  // p95, not p99: a burst's queries queue behind the same misses, so
  // the tail comes in clumps. On ac-uniform the 24 samples beyond p99
  // came from 5-6 bursts and the 48 beyond p98 from 9-13; p95's came
  // from 23-26, and from about 70 on zipf-read.
  line.Add("query_p95_ms", Percentile(lat.query_ms, 95), "ms");
  line.Add("ok_frac",
           1.0 - Ratio(static_cast<double>(lat.failed),
                       static_cast<double>(results.size())),
           "ratio");
  std::cout << line.Json(true, results.size(), lat.failed) << std::endl;
  return 0;
}

int RunTraced(const Args& args) {
  const Clock::time_point start = Clock::now();
  Clock::time_point phase = start;
  const skyline::Dataset data = GenerateData(*args.spec, args.seed);
  const Schedule schedule =
      BuildSchedule(*args.spec, args.seed, args.seconds);
  const skyline::ServerOptions options = BenchServerOptions();

  // Server pass: the timed run's loop, its timestamps kept as spans.
  auto server = std::make_unique<SkylineServer>(data, options);
  const std::uint64_t setup_tests = server->Stats().query.cold_tests;
  const std::vector<OpResult> results = DriveServer(*server, schedule);
  const double rss_mb = PeakRssMb();
  const skyline::ServerStatsSnapshot stats = server->Stats();
  const skyline::DatasetVersionPtr version =
      server->service().current_version();
  const std::vector<ProbeResult> probes = ProbeFinalEpoch(*server, schedule);
  const std::uint64_t probe_hits = server->Stats().fast_hits - stats.fast_hits;
  server.reset();
  std::cerr << "skybench: server pass " << SecondsSince(phase) << " s";
  phase = Clock::now();
  bool correct = CheckPass(data, schedule, results, probes, std::cerr);
  std::cerr << ", answer checks " << SecondsSince(phase) << " s ("
            << probes.size() << " probes, " << probe_hits
            << " from the cache)";
  phase = Clock::now();

  Tracer tracer;
  std::vector<double> admit_us;
  std::vector<double> late_ms;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const OpResult& r = results[i];
    const int root =
        tracer.Record("server.request", i + 1, -1, r.due_ns, r.resolved_ns);
    tracer.Record("server.admit", i + 1, root, r.submit_ns, r.admitted_ns);
    admit_us.push_back(static_cast<double>(r.admitted_ns - r.submit_ns) / 1e3);
    if (i < schedule.window.size()) {
      late_ms.push_back(static_cast<double>(r.submit_ns - r.due_ns) / 1e6);
    }
  }

  // Replay pass.
  ReplayCounts counts;
  correct = Replay(data, schedule, options.query, tracer, &counts, std::cerr) &&
            correct;
  std::cerr << ", replay pass " << SecondsSince(phase) << " s";
  phase = Clock::now();
  if (!args.spans.empty()) {
    std::ofstream out(args.spans);
    tracer.Write(out);
  }
  std::cerr << ", spans " << SecondsSince(phase) << " s; total "
            << SecondsSince(start) << " s\n";
  if (!correct) return 3;

  Latencies lat = Summarize(schedule, results);
  const skyline::QueryStatsSnapshot& q = stats.query;
  const double queries = static_cast<double>(q.queries);
  const double replayed = static_cast<double>(counts.queries);
  ResultLine line;
  line.Add("server.admit_us_p50", Percentile(admit_us, 50), "us");
  line.Add("server.admit_us_p99", Percentile(admit_us, 99), "us");
  line.Add("server.gen_late_ms_p99", Percentile(late_ms, 99), "ms");
  line.Add("server.gen_late_ms_max", Percentile(late_ms, 100), "ms");
  line.Add("server.fast_hit_frac",
           Ratio(static_cast<double>(stats.fast_hits),
                 static_cast<double>(stats.submitted)),
           "ratio");
  line.Add("server.batch_size_mean", stats.MeanBatchSize(), "count");
  // Write-tail latency as the timed run would measure it. Not gated: on
  // zipf-read an update's cost depends on the cuboids the window left
  // cached and on where glibc places the version copy, both of which
  // vary from run to run (README.md).
  line.Add("server.update_ms_p50", Percentile(lat.update_ms, 50), "ms");
  line.Add("server.update_ms_p95", Percentile(lat.update_ms, 95), "ms");
  line.Add("server.queue_wait_ms_p99",
           static_cast<double>(stats.queue_wait.PercentileNanos(99)) / 1e6,
           "ms");
  // With glibc's default malloc the peak depends on which thread's arena
  // held each large buffer, so it swings too much between runs to gate.
  line.Add("server.peak_rss_mb", rss_mb, "MB");
  line.Add("server.rejected", static_cast<double>(stats.rejected), "count");
  line.Add("server.shed", static_cast<double>(stats.shed_expired), "count");

  line.Add("query.hit_frac", Ratio(static_cast<double>(q.hits), queries),
           "ratio");
  line.Add("query.seeded_frac", Ratio(static_cast<double>(q.seeded), queries),
           "ratio");
  line.Add("query.cold_frac", Ratio(static_cast<double>(q.cold), queries),
           "ratio");
  line.Add("query.coalesced_frac",
           Ratio(static_cast<double>(q.coalesced), queries), "ratio");
  line.Add("query.evictions", static_cast<double>(q.evictions), "count");
  line.Add("query.dt_per_query",
           Ratio(static_cast<double>(q.seeded_tests + q.cold_tests -
                                     setup_tests),
                 queries),
           "count");
  line.Add("query.hit_us_p50", Percentile(counts.hit_us, 50), "us");
  line.Add("query.miss_ms_p50", Percentile(counts.miss_ms, 50), "ms");
  line.Add("query.miss_ms_p99", Percentile(counts.miss_ms, 99), "ms");
  line.Add("query.update_ms_p50", Percentile(counts.update_ms, 50), "ms");
  line.Add("query.update_ms_p95", Percentile(counts.update_ms, 95), "ms");
  line.Add("query.repaired", static_cast<double>(q.repaired), "count");
  line.Add("query.invalidated", static_cast<double>(q.invalidated), "count");
  line.Add("query.repair_frac",
           Ratio(static_cast<double>(q.repaired),
                 static_cast<double>(q.repaired + q.invalidated)),
           "ratio");
  line.Add("query.pinned_recomputes", static_cast<double>(q.pinned_recomputes),
           "count");
  line.Add("query.aborted_inflight", static_cast<double>(q.aborted_inflight),
           "count");
  line.Add("query.update_dt", static_cast<double>(q.update_tests), "count");
  line.Add("query.version_copy_mb",
           Ratio(counts.version_copy_bytes / kMiB,
                 static_cast<double>(counts.updates)),
           "MB");
  line.Add("query.resident_rows",
           static_cast<double>(version->data.num_points()), "count");
  line.Add("query.live_rows", static_cast<double>(version->num_live),
           "count");

  line.Add("skycube.tie_close_ms", tracer.SelfMillis("skycube.tie_close"),
           "ms");
  line.Add("skycube.tie_rows_per_call",
           Ratio(static_cast<double>(counts.tie_rows),
                 static_cast<double>(counts.tie_calls)),
           "count");
  line.Add("skycube.bnl_ms", tracer.SelfMillis("skycube.bnl"), "ms");
  line.Add("skycube.gather_ms", tracer.SelfMillis("skycube.gather"), "ms");
  line.Add("skycube.gather_mb", counts.gather_bytes / kMiB, "MB");

  const double sfs_ms = tracer.SelfMillis("subset.sfs");
  const double merge_ms = tracer.SelfMillis("subset.merge");
  const double scan_tests =
      static_cast<double>(counts.sfs_tests - counts.merge_tests);
  const double sfs_rows = static_cast<double>(counts.sfs_rows);
  const double index_probes = static_cast<double>(counts.index_queries);
  line.Add("subset.sfs_ms", sfs_ms, "ms");
  line.Add("subset.merge_ms", merge_ms, "ms");
  line.Add("subset.scan_ms", sfs_ms - merge_ms, "ms");
  line.Add("subset.dt_per_point",
           Ratio(static_cast<double>(counts.sfs_tests), sfs_rows), "count");
  line.Add("subset.merge_pruned_frac",
           Ratio(static_cast<double>(counts.merge_pruned), sfs_rows), "ratio");
  line.Add("subset.index_candidates_per_probe",
           Ratio(static_cast<double>(counts.index_candidates), index_probes),
           "count");
  line.Add("subset.index_nodes_per_probe",
           Ratio(static_cast<double>(counts.index_nodes), index_probes),
           "count");

  const double parallel_ms = tracer.SelfMillis("parallel.compute");
  line.Add("parallel.compute_ms", parallel_ms, "ms");
  line.Add("parallel.dt_ratio",
           Ratio(static_cast<double>(counts.parallel_tests),
                 static_cast<double>(counts.parallel_reference_tests)),
           "ratio");
  line.Add("parallel.time_ratio",
           Ratio(parallel_ms, tracer.SelfMillis("parallel.sfs_reference")),
           "ratio");

  const double tests = static_cast<double>(counts.service_tests);
  line.Add("core.tests", tests, "count");
  line.Add("core.bytes_scanned_mb", tests * kDims * sizeof(Value) / kMiB,
           "MB");
  line.Add("core.ns_per_test", Ratio((sfs_ms - merge_ms) * 1e6, scan_tests),
           "ns");

  line.Add("replay.hit_frac",
           Ratio(static_cast<double>(counts.hits), replayed), "ratio");
  line.Add("replay.seeded_frac",
           Ratio(static_cast<double>(counts.seeded), replayed), "ratio");
  line.Add("replay.cold_frac",
           Ratio(static_cast<double>(counts.cold), replayed), "ratio");
  line.Add("trace.query_p50_ms", Percentile(lat.query_ms, 50), "ms");
  line.Add("trace.query_p95_ms", Percentile(lat.query_ms, 95), "ms");
  line.Add("trace.query_p99_ms", Percentile(lat.query_ms, 99), "ms");
  std::cout << line.Json(true, results.size(), lat.failed) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: skybench --workload zipf-read|ac-uniform"
                 " --seed N --seconds S --trace 0|1 [--spans FILE]\n";
    return 2;
  }
  perfbench::PrintLabels(args);
  try {
    return args.trace == 1 ? perfbench::RunTraced(args)
                           : perfbench::RunTimed(args);
  } catch (const std::exception& e) {
    std::cerr << "skybench: " << e.what() << "\n";
    return 1;
  }
}

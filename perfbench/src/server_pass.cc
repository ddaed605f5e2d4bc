#include "perfbench/src/server_pass.h"

#include <sys/resource.h>

#include <algorithm>
#include <thread>
#include <utility>

#include "perfbench/src/oracle.h"
#include "perfbench/src/trace.h"

namespace perfbench {

namespace {

using skyline::ResponseHandle;
using skyline::ServerResponse;
using skyline::StatusCode;

void Fill(const Op& op, ServerResponse response, OpResult* out) {
  out->resolved_ns = Nanos(response.resolved_at);
  out->status = response.status;
  out->epoch = response.epoch;
  if (op.check) out->ids = std::move(response.ids);
}

ResponseHandle Issue(skyline::SkylineServer& server, const Op& op) {
  if (op.kind == Op::Kind::kQuery) return server.Submit(op.v);
  return server.SubmitUpdate(op.inserts, op.removes);
}

}  // namespace

skyline::ServerOptions BenchServerOptions() {
  skyline::ServerOptions options;
  options.workers = 2;
  options.query.threads = 2;
  return options;
}

const Op& OpAt(const Schedule& schedule, std::size_t i) {
  return i < schedule.window.size() ? schedule.window[i]
                                    : schedule.tail[i - schedule.window.size()];
}

std::vector<OpResult> DriveServer(skyline::SkylineServer& server,
                                  const Schedule& schedule) {
  const std::size_t total = schedule.window.size() + schedule.tail.size();
  std::vector<OpResult> results(total);
  std::vector<std::pair<std::size_t, ResponseHandle>> outstanding;
  // Drains resolved handles while the generator would otherwise sleep,
  // so answers the benchmark does not check are freed as they arrive.
  auto collect = [&] {
    ServerResponse response;
    for (std::size_t i = 0; i < outstanding.size();) {
      if (outstanding[i].second.TryGet(&response)) {
        const std::size_t op = outstanding[i].first;
        Fill(schedule.window[op], std::move(response), &results[op]);
        outstanding[i] = std::move(outstanding.back());
        outstanding.pop_back();
      } else {
        ++i;
      }
    }
  };

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < schedule.window.size(); ++i) {
    const Op& op = schedule.window[i];
    const Clock::time_point due = start + op.due;
    if (due - Clock::now() > std::chrono::milliseconds(2)) collect();
    std::this_thread::sleep_until(due);
    OpResult& r = results[i];
    r.due_ns = Nanos(due);
    r.submit_ns = Nanos(Clock::now());
    outstanding.emplace_back(i, Issue(server, op));
    r.admitted_ns = Nanos(Clock::now());
  }
  for (auto& [op, handle] : outstanding) {
    Fill(schedule.window[op], handle.Wait(), &results[op]);
  }

  for (std::size_t j = 0; j < schedule.tail.size(); ++j) {
    const Op& op = schedule.tail[j];
    OpResult& r = results[schedule.window.size() + j];
    r.due_ns = r.submit_ns = Nanos(Clock::now());
    ResponseHandle handle = Issue(server, op);
    r.admitted_ns = Nanos(Clock::now());
    Fill(op, handle.Wait(), &r);
  }
  return results;
}

std::vector<ProbeResult> ProbeFinalEpoch(skyline::SkylineServer& server,
                                         const Schedule& schedule) {
  std::vector<ResponseHandle> handles;
  for (Subspace v : schedule.probes) handles.push_back(server.Submit(v));
  std::vector<ProbeResult> out(handles.size());
  for (std::size_t i = 0; i < handles.size(); ++i) {
    ServerResponse response = handles[i].Wait();
    out[i].v = schedule.probes[i];
    out[i].status = response.status;
    out[i].epoch = response.epoch;
    out[i].ids = std::move(response.ids);
  }
  return out;
}

bool CheckPass(const skyline::Dataset& data, const Schedule& schedule,
               const std::vector<OpResult>& results,
               const std::vector<ProbeResult>& probes, std::ostream& err) {
  bool ok = true;
  std::vector<const Op*> updates;
  std::vector<AnswerCheck> checks;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Op& op = OpAt(schedule, i);
    const OpResult& r = results[i];
    if (op.kind == Op::Kind::kUpdate) {
      updates.push_back(&op);
      if (r.status == StatusCode::kOk && r.epoch != updates.size()) {
        err << "update " << i << " installed epoch " << r.epoch
            << ", expected " << updates.size() << "\n";
        ok = false;
      }
    } else if (op.check && r.status == StatusCode::kOk) {
      checks.push_back(AnswerCheck{i, op.v, r.epoch, r.ids});
    }
  }
  for (std::size_t j = 0; j < probes.size(); ++j) {
    const ProbeResult& p = probes[j];
    if (p.status != StatusCode::kOk || p.epoch != updates.size()) {
      err << "probe of cuboid " << p.v.ToString() << " resolved with status "
          << static_cast<int>(p.status) << " at epoch " << p.epoch
          << ", expected kOk at " << updates.size() << "\n";
      ok = false;
      continue;
    }
    checks.push_back(AnswerCheck{results.size() + j, p.v, p.epoch, p.ids});
  }
  const EpochOracle oracle(data, updates);
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  return VerifyAnswers(oracle, checks, threads, err) == 0 && ok;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

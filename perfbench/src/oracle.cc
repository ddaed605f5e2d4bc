#include "perfbench/src/oracle.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <thread>
#include <utility>

#include "src/skycube/skycube.h"

namespace perfbench {

EpochOracle::EpochOracle(const skyline::Dataset& initial,
                         const std::vector<const Op*>& updates)
    : initial_points_(initial.num_points()),
      rows_(initial),
      removed_at_(initial.num_points(), 0) {
  for (std::size_t k = 0; k < updates.size(); ++k) {
    inserted_from_.push_back(static_cast<PointId>(rows_.num_points()));
    const std::vector<Value>& ins = updates[k]->inserts;
    for (std::size_t i = 0; i < ins.size(); i += kDims) {
      rows_.Append(std::span<const Value>(ins.data() + i, kDims));
    }
    for (PointId r : updates[k]->removes) removed_at_[r] = k + 1;
  }
  inserted_from_.push_back(static_cast<PointId>(rows_.num_points()));
}

std::vector<PointId> EpochOracle::LiveIds(std::uint64_t epoch) const {
  std::vector<PointId> ids;
  ids.reserve(initial_points_);
  for (PointId p = 0; p < initial_points_; ++p) {
    if (removed_at_[p] == 0 || removed_at_[p] > epoch) ids.push_back(p);
  }
  const std::size_t applied = std::min<std::size_t>(
      epoch, inserted_from_.size() - 1);
  for (PointId p = inserted_from_[0]; p < inserted_from_[applied]; ++p) {
    ids.push_back(p);
  }
  return ids;
}

std::vector<PointId> SkylineOf(const skyline::Dataset& rows, Subspace v,
                               std::vector<PointId> ids) {
  // SubspaceSkyline's window scan, fed in ascending order of the
  // coordinate sum over v: a dominator's sum is strictly smaller, so no
  // window entry is ever evicted and the scan is fast. The resulting set
  // does not depend on the feed order.
  std::vector<std::pair<Value, PointId>> keyed;
  keyed.reserve(ids.size());
  for (PointId p : ids) {
    const Value* row = rows.row(p);
    Value sum = 0;
    v.ForEachDim([&](Dim i) { sum += row[i]; });
    keyed.emplace_back(sum, p);
  }
  std::sort(keyed.begin(), keyed.end());
  for (std::size_t i = 0; i < keyed.size(); ++i) ids[i] = keyed[i].second;
  std::vector<PointId> sky =
      skyline::SubspaceSkylineOverCandidates(rows, v, ids);
  std::sort(sky.begin(), sky.end());
  return sky;
}

std::vector<PointId> EpochOracle::Skyline(Subspace v,
                                          std::uint64_t epoch) const {
  return SkylineOf(rows_, v, LiveIds(epoch));
}

std::size_t VerifyAnswers(const EpochOracle& oracle,
                          const std::vector<AnswerCheck>& checks,
                          unsigned threads, std::ostream& err) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> slot;
  std::vector<std::pair<Subspace, std::uint64_t>> tasks;
  for (const AnswerCheck& c : checks) {
    if (slot.emplace(std::make_pair(c.v.bits(), c.epoch), tasks.size())
            .second) {
      tasks.emplace_back(c.v, c.epoch);
    }
  }
  // Widest cuboids first: they cost the most, so no thread is left
  // computing one alone at the end.
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].first.size() > tasks[b].first.size();
  });
  std::vector<std::vector<PointId>> truth(tasks.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < order.size();) {
      const std::size_t t = order[i];
      truth[t] = oracle.Skyline(tasks[t].first, tasks[t].second);
    }
  };
  std::vector<std::thread> pool;
  for (unsigned i = 1; i < std::max(1u, threads); ++i) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();

  std::size_t mismatches = 0;
  for (const AnswerCheck& c : checks) {
    const std::vector<PointId>& want =
        truth[slot.at(std::make_pair(c.v.bits(), c.epoch))];
    if (c.got != want) {
      ++mismatches;
      err << "wrong answer: request " << c.request << " cuboid "
          << c.v.ToString() << " epoch " << c.epoch << ": got "
          << c.got.size() << " ids, oracle " << want.size() << "\n";
    }
  }
  return mismatches;
}

}  // namespace perfbench

#include "src/algo/bbs.h"

#include <queue>

#include "src/algo/rtree.h"
#include "src/core/dominance.h"
#include "src/core/scores.h"

namespace skyline {

namespace {

struct Entry {
  Value mindist;
  // Exactly one of the two is set.
  const RTree::Node* node;
  PointId point;
};

Value SumOf(const Value* v, Dim d) {
  Value s = 0;
  for (Dim i = 0; i < d; ++i) s += v[i];
  return s;
}

}  // namespace

std::vector<PointId> Bbs::Compute(const Dataset& data,
                                  SkylineStats* stats) const {
  const Dim d = data.num_dims();
  if (stats != nullptr) *stats = SkylineStats{};
  if (data.num_points() == 0) return {};

  const RTree tree = RTree::BulkLoad(data, options_.partition_leaf_size);
  std::uint64_t corner_tests = 0;
  std::vector<PointId> result;

  // Is the given corner / point row strictly dominated by a result point?
  auto dominated_row = [&](const Value* row) {
    for (PointId s : result) {
      ++corner_tests;
      if (Dominates(data.row(s), row, d)) return true;
    }
    return false;
  };

  // Pops ascending mindist. On a tie, nodes come before points: a node
  // may hold an equal-sum dominator of a queued point. Points that tie
  // pop in TieBreaksBefore order, so a dominator whose one-ULP edge the
  // sum rounded away still comes first.
  const auto pops_after = [&](const Entry& a, const Entry& b) {
    if (a.mindist != b.mindist) return a.mindist > b.mindist;
    if ((a.node == nullptr) != (b.node == nullptr)) return a.node == nullptr;
    if (a.node != nullptr) return false;
    return TieBreaksBefore(data.row(b.point), b.point, data.row(a.point),
                           a.point, d);
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(pops_after)> heap(
      pops_after);
  heap.push({SumOf(tree.root()->mbr.lo.data(), d), tree.root(),
             kInvalidPoint});
  while (!heap.empty()) {
    const Entry e = heap.top();
    heap.pop();
    if (e.node != nullptr) {
      // A node whose lower corner is strictly dominated contains only
      // dominated points (every inside point weakly exceeds the corner).
      if (dominated_row(e.node->mbr.lo.data())) continue;
      if (e.node->IsLeaf()) {
        for (PointId p : e.node->points) {
          heap.push({SumOf(data.row(p), d), nullptr, p});
        }
      } else {
        for (const auto& child : e.node->children) {
          heap.push({SumOf(child->mbr.lo.data(), d), child.get(),
                     kInvalidPoint});
        }
      }
    } else {
      // Ascending sum order: every potential dominator of this point has
      // a strictly smaller sum and was already popped into the result.
      if (!dominated_row(data.row(e.point))) result.push_back(e.point);
    }
  }

  if (stats != nullptr) {
    stats->dominance_tests = corner_tests;
    stats->skyline_size = result.size();
  }
  return result;
}

}  // namespace skyline

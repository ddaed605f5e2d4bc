#include "src/subset/subset_index.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/core/contracts.h"
#include "src/core/cpu.h"

namespace skyline {

SubsetIndex::SubsetIndex(Dim num_dims, const AlignedDataset* rows)
    : num_dims_(num_dims),
      rows_(rows),
      qstride_(rows != nullptr && rows->has_quantized() ? rows->qstride()
                                                         : 0) {
  SKYLINE_ASSERT(rows == nullptr || rows->num_dims() == num_dims,
                 "SubsetIndex: bound dataset has a different dimensionality");
}

void SubsetIndex::AppendMember(Node* node, PointId id) const {
  SKYLINE_ASSERT(rows_ == nullptr || id < rows_->num_rows(),
                 "SubsetIndex: id names no row of the bound dataset");
  node->points.push_back(id);
  if (qstride_ != 0) {
    const std::uint8_t* row = rows_->qrow_unchecked(id);
    node->qrows.insert(node->qrows.end(), row, row + qstride_);
  }
}

void SubsetIndex::Add(PointId id, Subspace subspace) {
  SKYLINE_ASSERT(subspace.IsSubsetOf(Subspace::Full(num_dims_)),
                 "Add: subspace outside the index's full space");
  Node* node = &root_;
  // Walk the dimensions of the reversed subspace in increasing order,
  // creating nodes on demand (the get(i) of Algorithm 2).
  subspace.Complement(num_dims_).ForEachDim([&](Dim dim) {
    auto it = std::lower_bound(
        node->children.begin(), node->children.end(), dim,
        [](const auto& entry, Dim key) { return entry.first < key; });
    if (it == node->children.end() || it->first != dim) {
      it = node->children.emplace(it, dim, std::make_unique<Node>());
      ++num_nodes_;
    }
    node = it->second.get();
  });
  AppendMember(node, id);
  ++num_points_;
#ifdef SKYLINE_CHECKS
  shadow_.emplace(id, subspace.bits());
  ValidateAccounting();
#endif
}

void SubsetIndex::AddAlwaysCandidate(PointId id) {
  AppendMember(&root_, id);
  ++num_points_;
#ifdef SKYLINE_CHECKS
  // Root storage is equivalent to Add(id, Full): the entry qualifies for
  // every query subspace.
  shadow_.emplace(id, Subspace::Full(num_dims_).bits());
  ValidateAccounting();
#endif
}

void SubsetIndex::QueryNode(const Node& node, Subspace reversed,
                            std::vector<PointId>* out,
                            std::uint64_t* nodes_visited) {
  // Algorithm 4: collect this node's points, then descend into every
  // child whose dimension belongs to the reversed query subspace. Path
  // keys strictly increase, so each qualifying stored path is reached
  // exactly once.
  if (nodes_visited != nullptr) ++*nodes_visited;
  out->insert(out->end(), node.points.begin(), node.points.end());
  for (const auto& [dim, child] : node.children) {
    if (reversed.Contains(dim)) {
      QueryNode(*child, reversed, out, nodes_visited);
    }
  }
}

void SubsetIndex::Query(Subspace subspace, std::vector<PointId>* out,
                        std::uint64_t* nodes_visited) const {
  const std::size_t before = out->size();
  QueryNode(root_, subspace.Complement(num_dims_), out, nodes_visited);
#ifdef SKYLINE_CHECKS
  // Lemma 5.1 postcondition: the query returns exactly the entries whose
  // stored subspace is a superset of `subspace` — soundness per returned
  // id, completeness by count against the flat shadow oracle.
  std::size_t expected = 0;
  for (const auto& [sid, bits] : shadow_) {
    (void)sid;
    if (subspace.IsSubsetOf(Subspace(bits))) ++expected;
  }
  SKYLINE_DCHECK(out->size() - before == expected,
                 "Query: result count differs from the linear superset scan");
  for (std::size_t i = before; i < out->size(); ++i) {
    const auto range = shadow_.equal_range((*out)[i]);
    bool qualifies = false;
    for (auto it = range.first; it != range.second; ++it) {
      if (subspace.IsSubsetOf(Subspace(it->second))) qualifies = true;
    }
    SKYLINE_DCHECK(qualifies,
                   "Query: returned an id with no superset-keyed entry");
  }
#else
  (void)before;
#endif
}

void SubsetIndex::ProbeNode(const Node& node, Probe* probe) const {
  // QueryNode's walk, with the node's members scanned in place of being
  // appended: `candidates` counts the members before this node, i.e.
  // this node's offset in Query's output.
  ++probe->nodes;
  if (probe->result.first == kernels::kNoDominator && !node.points.empty()) {
    const kernels::BatchProbeResult r = kernels::DominatesAny(
        *rows_, node.points, node.qrows.data(), probe->q_row, probe->q_quant,
        num_dims_);
    probe->result.scanned += r.scanned;
    if (r.first != kernels::kNoDominator) {
      probe->result.first = probe->candidates + r.first;
    }
  }
  probe->candidates += node.points.size();
  for (const auto& [dim, child] : node.children) {
    if (probe->reversed.Contains(dim)) ProbeNode(*child, probe);
  }
}

kernels::BatchProbeResult SubsetIndex::FindDominator(
    Subspace subspace, PointId q, SkylineStats* stats) const {
  SKYLINE_ASSERT(rows_ != nullptr, "FindDominator: index has no bound dataset");
  SKYLINE_ASSERT(q < rows_->num_rows(), "FindDominator: probe out of range");
  Probe probe;
  probe.q_row = rows_->row_unchecked(q);
  // The probe is a row of the bound dataset, so its packed row is
  // already in the plane: nothing to quantize.
  if (qstride_ != 0 && cpu::PrefilterEnabled()) {
    probe.q_quant = rows_->qrow_unchecked(q);
  }
  probe.reversed = subspace.Complement(num_dims_);
  ProbeNode(root_, &probe);
  ++stats->index_queries;
  stats->index_candidates += probe.candidates;
  stats->index_nodes_visited += probe.nodes;
  stats->dominance_tests += probe.result.scanned;
  return probe.result;
}

void SubsetIndex::CollectSubtree(const Node& node, std::vector<PointId>* out,
                                 std::uint64_t* nodes_visited) {
  if (nodes_visited != nullptr) ++*nodes_visited;
  out->insert(out->end(), node.points.begin(), node.points.end());
  for (const auto& [dim, child] : node.children) {
    (void)dim;
    CollectSubtree(*child, out, nodes_visited);
  }
}

void SubsetIndex::QuerySupersetPaths(const Node& node, Subspace required,
                                     std::vector<PointId>* out,
                                     std::uint64_t* nodes_visited) {
  // Stored subspace ⊆ query  <=>  stored (reversed) path ⊇ reversed
  // query. Paths carry strictly increasing keys, so once the smallest
  // still-required dimension is behind a child's key range, that branch
  // can never satisfy the requirement.
  if (required.empty()) {
    CollectSubtree(node, out, nodes_visited);
    return;
  }
  if (nodes_visited != nullptr) ++*nodes_visited;
  const Dim next_required = required.Lowest();
  for (const auto& [dim, child] : node.children) {
    if (dim > next_required) break;  // children sorted; deeper keys only grow
    if (dim < next_required) {
      QuerySupersetPaths(*child, required, out, nodes_visited);
    } else {
      Subspace rest = required;
      rest.Remove(dim);
      QuerySupersetPaths(*child, rest, out, nodes_visited);
    }
  }
}

void SubsetIndex::QueryContained(Subspace subspace, std::vector<PointId>* out,
                                 std::uint64_t* nodes_visited) const {
  const std::size_t before = out->size();
  QuerySupersetPaths(root_, subspace.Complement(num_dims_), out,
                     nodes_visited);
#ifdef SKYLINE_CHECKS
  // Lemma 4.3 postcondition, mirrored: exactly the subset-keyed entries.
  std::size_t expected = 0;
  for (const auto& [sid, bits] : shadow_) {
    (void)sid;
    if (Subspace(bits).IsSubsetOf(subspace)) ++expected;
  }
  SKYLINE_DCHECK(
      out->size() - before == expected,
      "QueryContained: result count differs from the linear subset scan");
  for (std::size_t i = before; i < out->size(); ++i) {
    const auto range = shadow_.equal_range((*out)[i]);
    bool qualifies = false;
    for (auto it = range.first; it != range.second; ++it) {
      if (Subspace(it->second).IsSubsetOf(subspace)) qualifies = true;
    }
    SKYLINE_DCHECK(qualifies,
                   "QueryContained: returned an id with no subset-keyed entry");
  }
#else
  (void)before;
#endif
}

std::size_t SubsetIndex::CountSubtreeNodes(const Node& node) {
  std::size_t count = 1;
  for (const auto& [dim, child] : node.children) {
    (void)dim;
    count += CountSubtreeNodes(*child);
  }
  return count;
}

void SubsetIndex::MergeNodes(Node* dst, Node&& src, std::size_t* new_nodes) {
  dst->points.insert(dst->points.end(), src.points.begin(), src.points.end());
  dst->qrows.insert(dst->qrows.end(), src.qrows.begin(), src.qrows.end());
  for (auto& [dim, child] : src.children) {
    auto it = std::lower_bound(
        dst->children.begin(), dst->children.end(), dim,
        [](const auto& entry, Dim key) { return entry.first < key; });
    if (it == dst->children.end() || it->first != dim) {
      // No matching path on this side: adopt the whole subtree.
      *new_nodes += CountSubtreeNodes(*child);
      dst->children.emplace(it, dim, std::move(child));
    } else {
      MergeNodes(it->second.get(), std::move(*child), new_nodes);
    }
  }
}

void SubsetIndex::MergeFrom(SubsetIndex&& other) {
  SKYLINE_ASSERT(other.num_dims_ == num_dims_,
                 "MergeFrom: dimensionality mismatch");
  SKYLINE_ASSERT(other.rows_ == rows_ && other.qstride_ == qstride_,
                 "MergeFrom: indexes bound to different datasets");
  std::size_t new_nodes = 0;
  const std::size_t moved_points = other.num_points_;
  MergeNodes(&root_, std::move(other.root_), &new_nodes);
  num_nodes_ += new_nodes;
  num_points_ += moved_points;
  other.root_ = Node{};
  other.num_nodes_ = 0;
  other.num_points_ = 0;
#ifdef SKYLINE_CHECKS
  shadow_.insert(other.shadow_.begin(), other.shadow_.end());
  other.shadow_.clear();
  ValidateAccounting();
#endif
}

bool SubsetIndex::Remove(PointId id, Subspace subspace) {
  // Walk down the reversed path, recording every step so the emptied
  // tail can be reclaimed on the way back up.
  struct Step {
    Node* parent;
    std::size_t child;
  };
  std::array<Step, Subspace::kMaxDims> path;
  std::size_t depth = 0;
  Node* node = &root_;
  bool found_path = true;
  subspace.Complement(num_dims_).ForEachDim([&](Dim dim) {
    if (!found_path) return;
    auto it = std::lower_bound(
        node->children.begin(), node->children.end(), dim,
        [](const auto& entry, Dim key) { return entry.first < key; });
    if (it == node->children.end() || it->first != dim) {
      found_path = false;
      return;
    }
    path[depth++] = {node,
                     static_cast<std::size_t>(it - node->children.begin())};
    node = it->second.get();
  });
  if (!found_path) return false;
  auto it = std::find(node->points.begin(), node->points.end(), id);
  if (it == node->points.end()) return false;
  // Swap with the back, moving the back member's packed row with it.
  const std::size_t slot = static_cast<std::size_t>(it - node->points.begin());
  *it = node->points.back();
  node->points.pop_back();
  if (qstride_ != 0) {
    std::memmove(node->qrows.data() + slot * qstride_,
                 node->qrows.data() + node->points.size() * qstride_,
                 qstride_);
    node->qrows.resize(node->points.size() * qstride_);
  }
  --num_points_;
  // Reclaim the now-dead tail: a node with no points and no children can
  // never satisfy a query, so num_nodes() keeps meaning live nodes.
  while (depth > 0 && node->points.empty() && node->children.empty()) {
    const Step& step = path[--depth];
    step.parent->children.erase(step.parent->children.begin() +
                                static_cast<std::ptrdiff_t>(step.child));
    --num_nodes_;
    node = step.parent;
  }
#ifdef SKYLINE_CHECKS
  const auto range = shadow_.equal_range(id);
  for (auto sit = range.first; sit != range.second; ++sit) {
    if (sit->second == subspace.bits()) {
      shadow_.erase(sit);
      break;
    }
  }
  ValidateAccounting();
#endif
  return true;
}

#ifdef SKYLINE_CHECKS
void SubsetIndex::ValidateAccounting() const {
  struct Walker {
    Dim num_dims;
    const AlignedDataset* rows;
    std::size_t qstride;
    std::size_t nodes = 0;
    std::size_t points = 0;
    void Walk(const Node& node, int min_key) {
      points += node.points.size();
      // Every member's packed row travels with its id.
      SKYLINE_DCHECK(node.qrows.size() == node.points.size() * qstride,
                     "index: packed rows out of step with the node's ids");
      for (std::size_t i = 0; qstride != 0 && i < node.points.size(); ++i) {
        SKYLINE_DCHECK(std::memcmp(node.qrows.data() + i * qstride,
                                   rows->qrow_unchecked(node.points[i]),
                                   qstride) == 0,
                       "index: a member's packed row is not its id's row");
      }
      int last = min_key;
      for (const auto& [dim, child] : node.children) {
        SKYLINE_DCHECK(child != nullptr, "index: null child node");
        SKYLINE_DCHECK(dim < num_dims, "index: child key outside full space");
        SKYLINE_DCHECK(static_cast<int>(dim) > last,
                       "index: child keys not strictly increasing");
        // Reclamation invariant: an empty childless node can never
        // satisfy a query, so Add/Remove/MergeFrom must never leave
        // one behind (num_nodes() counts live nodes only).
        SKYLINE_DCHECK(!child->children.empty() || !child->points.empty(),
                       "index: dead (empty leaf) node not reclaimed");
        last = static_cast<int>(dim);
        ++nodes;
        Walk(*child, static_cast<int>(dim));
      }
    }
  };
  Walker w{num_dims_, rows_, qstride_};
  w.Walk(root_, -1);
  SKYLINE_DCHECK(w.nodes == num_nodes_,
                 "index: num_nodes_ accounting out of sync with the tree");
  SKYLINE_DCHECK(w.points == num_points_,
                 "index: num_points_ accounting out of sync with the tree");
  SKYLINE_DCHECK(shadow_.size() == num_points_,
                 "index: shadow oracle out of sync with num_points_");
}
#endif

}  // namespace skyline

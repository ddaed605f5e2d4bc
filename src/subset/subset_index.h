// SubsetIndex — the map-based prefix tree of Section 5 (Figure 3,
// Algorithms 2-4).
//
// Skyline points are stored under their *reversed* maximum dominating
// subspace D^¬ (the complement with respect to the full space), encoded
// as the strictly increasing sequence of its dimensions; each tree node
// is keyed by one dimension index and carries the points whose reversed
// subspace ends there. A query for a testing point with subspace D_q
// enumerates all stored paths that are subsets of D_q^¬ — equivalently,
// all skyline points whose subspace is a superset of D_q, which by
// Lemma 5.1 are the only skyline points that can possibly dominate the
// testing point.
//
// Add runs in O(|D^¬|) = O(d/2) on average (Lemma 5.2); Query visits
// O((d/2)^2) nodes on average (Lemma 5.3). Children are kept in a small
// sorted vector: with at most d entries per node this behaves like the
// paper's hash map (O(1)-ish access) while staying cache-friendly; see
// the bench_ablation_index comparison against a brute-force superset
// filter.
//
// Probing in place: an index bound to an AlignedDataset keeps each
// member's packed quantized row (AlignedDataset::qrow_unchecked, qstride
// bytes) next to its id, contiguous within the member's node and in the
// same order as the ids. FindDominator then answers "does any stored
// point dominate q?" by walking the nodes Query would visit, in Query's
// order, with one packed-row kernel call per node
// (kernels::DominatesAny): no candidate list is built, and an exact row
// is read only for the members the packed compare cannot reject.
// Results, dominance-test charges and the index counters equal those of
// Query followed by a scalar early-exit scan of its output.
//
// Thread safety: the const members (Query, QueryContained,
// FindDominator, num_*) touch no mutable state, so any number of
// threads may query one index concurrently as long as no thread
// mutates it — the parallel subset engine relies on this for its block
// probes. Mutations (Add, Remove, MergeFrom) require exclusive access.
#ifndef SKYLINE_SUBSET_SUBSET_INDEX_H_
#define SKYLINE_SUBSET_SUBSET_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#ifdef SKYLINE_CHECKS
#include <unordered_map>
#endif

#include "src/core/aligned_dataset.h"
#include "src/core/contracts.h"
#include "src/core/kernels.h"
#include "src/core/stats.h"
#include "src/core/subspace.h"
#include "src/core/types.h"

namespace skyline {

/// Container that stores point ids partitioned by subspace and retrieves,
/// for a query subspace Q, all ids stored with a subspace ⊇ Q.
class SubsetIndex {
 public:
  /// An index over subspaces of a `num_dims`-dimensional space. With
  /// `rows` (num_dims dimensions), every stored id names a row of that
  /// dataset and FindDominator is available; when `rows` carries its
  /// quantized plane at construction, each member also keeps a copy of
  /// its packed row. `rows` must outlive the index and stay unchanged.
  explicit SubsetIndex(Dim num_dims, const AlignedDataset* rows = nullptr);

  SubsetIndex(SubsetIndex&&) = default;
  SubsetIndex& operator=(SubsetIndex&&) = default;

  /// Algorithm 2: stores `id` under `subspace`. Storing the full space
  /// places the id at the root, so it is returned by every query — this
  /// is how the Merge pivots are registered, since a pivot must be
  /// compared with every testing point.
  void Add(PointId id, Subspace subspace);

  /// Registers an id that every query must return (path = empty reversed
  /// subspace, i.e. the root node).
  void AddAlwaysCandidate(PointId id);

  /// Algorithms 3 and 4: appends to `out` every id stored with a
  /// subspace ⊇ `subspace`. If `nodes_visited` is non-null it is
  /// incremented by the number of tree nodes touched.
  void Query(Subspace subspace, std::vector<PointId>* out,
             std::uint64_t* nodes_visited = nullptr) const;

  /// Query fused with the dominance scan over its output: walks the
  /// nodes Query(subspace) visits, in Query's order, testing each
  /// node's members against row `q` of the bound dataset with one
  /// kernels::DominatesAny call per node, and stops scanning at the
  /// first dominator. Returns what a scalar early-exit scan of Query's
  /// output returns (`first` is a position in it, `scanned` the members
  /// scanned up to and including it). Adds to `*stats` what that pair
  /// reports: one index query, Query's whole candidate count and node
  /// count (nodes after an early exit are counted, not scanned), and
  /// `scanned` dominance tests. The packed prefilter runs
  /// when the members carry rows and SKYLINE_PREFILTER allows it;
  /// otherwise the same walk runs exact compares. Requires a bound
  /// dataset.
  kernels::BatchProbeResult FindDominator(Subspace subspace, PointId q,
                                          SkylineStats* stats) const;

  /// The mirror query: appends every id stored with a subspace ⊆
  /// `subspace`. By Lemma 4.3 these are the only stored points a point
  /// carrying `subspace` could possibly dominate — which is what the
  /// streaming extension uses to find eviction candidates.
  void QueryContained(Subspace subspace, std::vector<PointId>* out,
                      std::uint64_t* nodes_visited = nullptr) const;

  /// Removes one occurrence of `id` stored under `subspace` (the exact
  /// subspace passed to Add). Returns false if it was not present.
  /// Emptied trailing nodes of the path are reclaimed eagerly: a node
  /// with no points and no children can never satisfy a query, so
  /// `num_nodes()` keeps meaning *live* nodes even under long
  /// add/remove streams (the streaming extension depends on this to
  /// stay memory-bounded).
  bool Remove(PointId id, Subspace subspace);

  /// Splices every entry of `other` (same dimensionality and bound
  /// dataset) into this index, leaving `other` empty. Equivalent to
  /// replaying every Add of `other` on this index, in tree order; shared
  /// paths are reused, so merging T thread-local indexes costs O(total
  /// nodes), not O(total adds).
  void MergeFrom(SubsetIndex&& other);

  Dim num_dims() const { return num_dims_; }

  /// Number of *live* tree nodes, excluding the root. Remove reclaims
  /// emptied paths eagerly, so this never counts dead structure.
  std::size_t num_nodes() const { return num_nodes_; }

  /// Number of stored point ids.
  std::size_t num_points() const { return num_points_; }

 private:
  struct Node {
    /// Children sorted by dimension key; keys along any root-to-node path
    /// strictly increase, so each stored subspace has a unique path.
    std::vector<std::pair<Dim, std::unique_ptr<Node>>> children;
    std::vector<PointId> points;
    /// Packed quantized rows of `points`, in the same order
    /// (points.size() * qstride_ bytes; empty when qstride_ == 0).
    std::vector<std::uint8_t> qrows;
  };

  /// State of one FindDominator walk.
  struct Probe {
    const Value* q_row = nullptr;
    const std::uint8_t* q_quant = nullptr;  ///< Null: exact compares only.
    Subspace reversed;
    kernels::BatchProbeResult result;
    std::uint64_t candidates = 0;
    std::uint64_t nodes = 0;
  };

  /// Appends `id` (and its packed row, when members carry rows).
  void AppendMember(Node* node, PointId id) const;

  void ProbeNode(const Node& node, Probe* probe) const;

  static void QueryNode(const Node& node, Subspace reversed,
                        std::vector<PointId>* out,
                        std::uint64_t* nodes_visited);

  static void QuerySupersetPaths(const Node& node, Subspace required,
                                 std::vector<PointId>* out,
                                 std::uint64_t* nodes_visited);

  static void CollectSubtree(const Node& node, std::vector<PointId>* out,
                             std::uint64_t* nodes_visited);

  /// Splices `src` into `dst`; increments `*new_nodes` for every node of
  /// `src` whose path did not yet exist under `dst`.
  static void MergeNodes(Node* dst, Node&& src, std::size_t* new_nodes);

  /// Nodes in the subtree rooted at `node`, including `node` itself.
  static std::size_t CountSubtreeNodes(const Node& node);

  Dim num_dims_;
  /// Dataset the ids name rows of (null: a plain id index).
  const AlignedDataset* rows_;
  /// Packed row width the members carry (0: they carry none).
  std::size_t qstride_;
  Node root_;
  std::size_t num_nodes_ = 0;
  std::size_t num_points_ = 0;

#ifdef SKYLINE_CHECKS
  /// Deep-check shadow: every stored (id, subspace) pair, kept in sync by
  /// Add/AddAlwaysCandidate/Remove/MergeFrom. Query postconditions verify
  /// soundness (returned ids are superset-keyed) and completeness
  /// (qualifying entry counts match) against this flat oracle.
  std::unordered_multimap<PointId, std::uint64_t> shadow_;

  /// Recounts nodes and points, and re-verifies the structural invariant
  /// (children sorted, path keys strictly increasing, keys < num_dims_,
  /// every member's packed row equal to its id's row) against the
  /// num_nodes_/num_points_ accounting.
  void ValidateAccounting() const;
#endif
};

}  // namespace skyline

#endif  // SKYLINE_SUBSET_SUBSET_INDEX_H_

// Subspace skylines and the skycube (Pei et al. / Yuan et al., VLDB 2005;
// discussed in the paper's related work). The skycube materializes the
// skyline of every non-empty subspace of the d dimensions — the
// structure subspace-skyline queries ("best hotels by price and rating
// only") are answered from.
//
// Two computation strategies are provided: independent per-cuboid
// evaluation, and a top-down sharing scheme that seeds each cuboid with
// its parent cuboid's skyline. Sharing is exact — including with
// duplicate projections, which the classic subset relationship
// sky(V) ⊆ sky(U) does not survive: a point can be in sky(V) while
// absent from every parent skyline if it ties on V with a parent-skyline
// member. The implementation repairs exactly that case by closing the
// candidate skyline under V-projection equality. That closure scans
// every row; it is skipped when V contains a dimension in which no two
// rows share a value (DistinctDims) — the distinct-value assumption of
// the skycube papers — because then each row ties on V only with
// itself and the closure adds nothing.
#ifndef SKYLINE_SKYCUBE_SKYCUBE_H_
#define SKYLINE_SKYCUBE_SKYCUBE_H_

#include <cstdint>
#include <vector>

#include "src/core/dataset.h"
#include "src/core/subspace.h"

namespace skyline {

/// Dominance restricted to a subspace: a <_V b iff a[i] <= b[i] for all
/// i in V with at least one strict dimension in V.
bool DominatesInSubspace(const Value* a, const Value* b, Subspace subspace);

/// Equality restricted to a subspace.
bool EqualInSubspace(const Value* a, const Value* b, Subspace subspace);

/// Skyline of `data` under dominance restricted to the non-empty
/// `subspace`. Adds the number of restricted dominance tests to `tests`
/// when non-null.
std::vector<PointId> SubspaceSkyline(const Dataset& data, Subspace subspace,
                                     std::uint64_t* tests = nullptr);

/// Skyline of the id list `candidates` under dominance restricted to
/// `subspace` (block nested loop). Returned ids keep candidate order and
/// are NOT sorted; `tests` (optional) accumulates the dominance tests
/// spent. This is the sharing primitive of the top-down skycube scheme
/// and of the query service's ancestor-seeded miss path.
std::vector<PointId> SubspaceSkylineOverCandidates(
    const Dataset& data, Subspace subspace,
    const std::vector<PointId>& candidates, std::uint64_t* tests = nullptr);

/// Pre-sizes the calling thread's SubspaceSkylineOverCandidates scratch
/// block (AlignedDataset::Reserve) for up to `rows` candidates of
/// `dims` dimensions, so a session of seeded queries at or below that
/// shape never reallocates. Idempotent and cheap when already warm.
void WarmSubspaceScratch(std::size_t rows, Dim dims);

/// The duplicate-projection tie repair of the top-down sharing scheme:
/// every point of `data` whose projection onto `subspace` equals that of
/// some member of `core`, ids ascending. With `core` being the
/// `subspace`-skyline of an ancestor cuboid's skyline, the result is
/// exactly sky(subspace) — see the header comment above and
/// docs/query_service.md for the chain argument that makes any ancestor
/// (not just a parent) a sound seed.
std::vector<PointId> CloseUnderProjectionTies(const Dataset& data,
                                              Subspace subspace,
                                              const std::vector<PointId>& core);

/// Tombstone-aware variant of the tie repair: only rows with
/// `live[id] != 0` are admitted, so a removed row can never resurrect
/// through a projection tie. `live` must have one flag per dataset row.
/// This is the query service's repair over a mutated DatasetVersion.
std::vector<PointId> CloseUnderProjectionTies(const Dataset& data,
                                              Subspace subspace,
                                              const std::vector<PointId>& core,
                                              const std::vector<char>& live);

/// The dimensions of `dims` in which no two rows of `data` share a value
/// (-0.0 counts as equal to +0.0), or the empty subspace if a checked
/// row holds a NaN in any dimension. Only the rows from `first_new` on
/// are checked, against each other and against the older rows: rows
/// [0, first_new) must already be pairwise distinct in `dims` and free
/// of NaN — `dims` is this function's answer for them, or any subset of
/// it (first_new = 0 checks every row). When a subspace V shares a
/// dimension with the answer, a row ties on V only with itself, so
/// CloseUnderProjectionTies over V returns its (live) core unchanged,
/// ids ascending.
Subspace DistinctDims(const Dataset& data, Subspace dims, PointId first_new);

/// Copies `data` restricted to the member dimensions of the non-empty
/// `subspace` (column order preserved, row ids unchanged) — the bridge
/// that lets the full-space subset-boosted engines answer subspace
/// skylines.
Dataset ProjectDataset(const Dataset& data, Subspace subspace);

/// How Skycube::Compute fills the cuboids.
enum class SkycubeStrategy {
  /// Every cuboid computed independently from the full dataset.
  kNaive,
  /// Top-down sharing: each cuboid's candidates are its parent cuboid's
  /// skyline, closed under projection equality (a no-op, skipped, on
  /// cuboids that contain a DistinctDims dimension of the data). Exact,
  /// and much cheaper whenever skylines are small relative to N.
  kTopDown,
};

/// The materialized skycube: one skyline per non-empty subspace.
/// Practical for d <= 20 (2^d - 1 cuboids are stored).
class Skycube {
 public:
  /// Computes all cuboids of `data`. `tests` (optional) receives the
  /// total number of restricted dominance tests spent.
  static Skycube Compute(const Dataset& data,
                         SkycubeStrategy strategy = SkycubeStrategy::kTopDown,
                         std::uint64_t* tests = nullptr);

  /// Skyline of the given non-empty subspace, ids ascending.
  const std::vector<PointId>& skyline(Subspace subspace) const;

  Dim num_dims() const { return num_dims_; }

  /// Number of materialized cuboids: 2^d - 1.
  std::size_t num_cuboids() const { return cuboids_.size() - 1; }

  /// Total ids stored across all cuboids.
  std::size_t total_size() const;

 private:
  Dim num_dims_ = 0;
  /// Indexed by subspace bitmask; entry 0 unused.
  std::vector<std::vector<PointId>> cuboids_;
};

}  // namespace skyline

#endif  // SKYLINE_SKYCUBE_SKYCUBE_H_

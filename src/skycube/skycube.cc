#include "src/core/contracts.h"
#include "src/skycube/skycube.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "src/core/aligned_dataset.h"
#include "src/core/cpu.h"
#include "src/core/kernels.h"

namespace skyline {

namespace {

/// Per-thread scratch block of SubspaceSkylineOverCandidates; function-
/// scoped so WarmSubspaceScratch can pre-size it for a whole session of
/// seeded queries.
AlignedDataset& SubspaceScratchBlock() {
  thread_local AlignedDataset block;
  return block;
}

}  // namespace

void WarmSubspaceScratch(std::size_t rows, Dim dims) {
  SubspaceScratchBlock().Reserve(rows, dims);
}

bool DominatesInSubspace(const Value* a, const Value* b, Subspace subspace) {
  bool strict = false;
  bool dominated = true;
  subspace.ForEachDim([&](Dim i) {
    if (a[i] > b[i]) dominated = false;
    if (a[i] < b[i]) strict = true;
  });
  return dominated && strict;
}

bool EqualInSubspace(const Value* a, const Value* b, Subspace subspace) {
  bool equal = true;
  subspace.ForEachDim([&](Dim i) {
    if (a[i] != b[i]) equal = false;
  });
  return equal;
}

std::vector<PointId> SubspaceSkylineOverCandidates(
    const Dataset& data, Subspace subspace,
    const std::vector<PointId>& candidates, std::uint64_t* tests) {
  if (candidates.empty() || subspace.empty()) {
    // Degenerate inputs keep the historical scalar behavior (an empty
    // subspace never dominates, so every candidate survives).
    std::vector<PointId> window;
    std::uint64_t local_tests = 0;
    for (PointId p : candidates) {
      local_tests += window.size();
      window.push_back(p);
    }
    if (tests != nullptr) *tests += local_tests;
    return window;
  }

  // Gather the candidate rows projected onto the subspace into an
  // aligned block once, then run the BNL window through the dispatched
  // batched kernels — dominance restricted to the subspace is exactly
  // full-space dominance on the projected rows. Thread-local scratch:
  // the seeded query path calls this once per query, and a warmed
  // thread reuses the block's capacity instead of reallocating
  // (AlignedDataset::Assign + WarmSubspaceScratch).
  AlignedDataset& block = SubspaceScratchBlock();
  thread_local std::vector<PointId> window;
  block.AssignProjected(data, subspace, candidates);
  const Dim d = block.num_dims();
  window.clear();
  std::uint64_t local_tests = 0;
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    const Value* q = block.row_unchecked(ci);
    // Lazy prefilter plane: built the first time the window is big
    // enough for the kernels to consult it (a flag test afterwards),
    // so small-window subspaces skip the build entirely.
    if (window.size() >= cpu::kPrefilterMinBlock) block.EnsureQuantized();
    // One charged test per window entry up to and including the first
    // dominator — identical to the scalar window scan.
    const kernels::BatchProbeResult probe =
        kernels::DominatesAny(block, window, q, d);
    local_tests += probe.scanned;
    std::size_t keep = 0;
    if (probe.first != kernels::kNoDominator) {
      // Dominated: replay the (uncharged) reverse evictions the scalar
      // scan applied to the entries it inspected before the dominator;
      // everything from the dominator onward stays.
      for (std::size_t i = 0; i < probe.first; ++i) {
        const PointId w = window[i];
        if (!kernels::Dominates(q, block.row_unchecked(w), d)) {
          window[keep++] = w;
        }
      }
      for (std::size_t i = probe.first; i < window.size(); ++i) {
        window[keep++] = window[i];
      }
      window.resize(keep);
      continue;
    }
    // Survivor: evict every window entry the candidate dominates
    // (uncharged, like the scalar scan), then append it.
    for (std::size_t i = 0; i < window.size(); ++i) {
      const PointId w = window[i];
      if (!kernels::Dominates(q, block.row_unchecked(w), d)) {
        window[keep++] = w;
      }
    }
    window.resize(keep);
    window.push_back(static_cast<PointId>(ci));
  }
  if (tests != nullptr) *tests += local_tests;
  std::vector<PointId> out;
  out.reserve(window.size());
  for (PointId ci : window) out.push_back(candidates[ci]);
  return out;
}

namespace {

/// Hash of the projection of a row onto a subspace (value bits, with
/// -0.0 folded into +0.0: the comparisons treat them as equal, so they
/// must share a bucket).
struct ProjectionHasher {
  const Dataset* data;
  Subspace subspace;

  std::size_t Hash(PointId p) const {
    const Value* row = data->row(p);
    std::size_t h = 0xcbf29ce484222325ull;
    subspace.ForEachDim([&](Dim i) {
      const Value value = row[i] == 0 ? Value{0} : row[i];
      std::uint64_t bits;
      std::memcpy(&bits, &value, sizeof(bits));
      h ^= bits;
      h *= 0x100000001b3ull;
    });
    return h;
  }
};

}  // namespace

namespace {

/// Shared body of the two tie-repair overloads; `live` may be null
/// (every row eligible) or must have one flag per dataset row.
std::vector<PointId> CloseUnderProjectionTiesImpl(
    const Dataset& data, Subspace subspace, const std::vector<PointId>& core,
    const std::vector<char>* live) {
  ProjectionHasher hasher{&data, subspace};
  std::unordered_multimap<std::size_t, PointId> core_by_hash;
  core_by_hash.reserve(core.size() * 2);
  for (PointId p : core) core_by_hash.emplace(hasher.Hash(p), p);
  std::vector<PointId> out;
  for (PointId p = 0; p < data.num_points(); ++p) {
    if (live != nullptr && (*live)[p] == 0) continue;
    const auto [begin, end] = core_by_hash.equal_range(hasher.Hash(p));
    for (auto it = begin; it != end; ++it) {
      if (EqualInSubspace(data.row(p), data.row(it->second), subspace)) {
        out.push_back(p);
        break;
      }
    }
  }
  return out;
}

}  // namespace

std::vector<PointId> CloseUnderProjectionTies(
    const Dataset& data, Subspace subspace,
    const std::vector<PointId>& core) {
  return CloseUnderProjectionTiesImpl(data, subspace, core, nullptr);
}

std::vector<PointId> CloseUnderProjectionTies(
    const Dataset& data, Subspace subspace, const std::vector<PointId>& core,
    const std::vector<char>& live) {
  SKYLINE_ASSERT(live.size() == data.num_points(),
                 "CloseUnderProjectionTies: live mask size != num_points");
  return CloseUnderProjectionTiesImpl(data, subspace, core, &live);
}

Dataset ProjectDataset(const Dataset& data, Subspace subspace) {
  SKYLINE_ASSERT(!subspace.empty(), "ProjectDataset: empty subspace");
  SKYLINE_ASSERT(subspace.IsSubsetOf(Subspace::Full(data.num_dims())),
                 "ProjectDataset: subspace outside the dataset's space");
  const Dim pd = subspace.size();
  std::vector<Value> values;
  values.reserve(data.num_points() * pd);
  for (PointId p = 0; p < data.num_points(); ++p) {
    const Value* row = data.row(p);
    subspace.ForEachDim([&](Dim i) { values.push_back(row[i]); });
  }
  return Dataset(pd, std::move(values));
}

std::vector<PointId> SubspaceSkyline(const Dataset& data, Subspace subspace,
                                     std::uint64_t* tests) {
  SKYLINE_ASSERT(!subspace.empty(), "SubspaceSkyline: empty subspace");
  std::vector<PointId> all(data.num_points());
  for (PointId i = 0; i < data.num_points(); ++i) all[i] = i;
  std::vector<PointId> result =
      SubspaceSkylineOverCandidates(data, subspace, all, tests);
  std::sort(result.begin(), result.end());
  return result;
}

Skycube Skycube::Compute(const Dataset& data, SkycubeStrategy strategy,
                         std::uint64_t* tests) {
  const Dim d = data.num_dims();
  SKYLINE_ASSERT(d >= 1 && d <= 20, "the skycube stores 2^d - 1 cuboids");
  Skycube cube;
  cube.num_dims_ = d;
  const std::size_t num_masks = std::size_t{1} << d;
  cube.cuboids_.resize(num_masks);

  if (strategy == SkycubeStrategy::kNaive) {
    for (std::uint64_t bits = 1; bits < num_masks; ++bits) {
      cube.cuboids_[bits] = SubspaceSkyline(data, Subspace(bits), tests);
    }
    return cube;
  }

  // Top-down: full space first, then decreasing subspace size; each
  // cuboid V seeds from the parent U = V + lowest missing dimension.
  std::vector<std::uint64_t> order;
  order.reserve(num_masks - 1);
  for (std::uint64_t bits = 1; bits < num_masks; ++bits) order.push_back(bits);
  std::sort(order.begin(), order.end(), [](std::uint64_t a, std::uint64_t b) {
    const int la = std::popcount(a), lb = std::popcount(b);
    if (la != lb) return la > lb;
    return a < b;
  });

  for (std::uint64_t bits : order) {
    const Subspace subspace(bits);
    if (subspace == Subspace::Full(d)) {
      cube.cuboids_[bits] = SubspaceSkyline(data, subspace, tests);
      continue;
    }
    const Dim missing = subspace.Complement(d).Lowest();
    Subspace parent = subspace;
    parent.Add(missing);
    const std::vector<PointId>& candidates = cube.cuboids_[parent.bits()];

    // Skyline of the candidates under V, closed under V-projection
    // equality over the whole dataset: a point that ties on V with a
    // core member is equally non-dominated.
    const std::vector<PointId> core =
        SubspaceSkylineOverCandidates(data, subspace, candidates, tests);
    cube.cuboids_[bits] = CloseUnderProjectionTies(data, subspace, core);
  }
  return cube;
}

const std::vector<PointId>& Skycube::skyline(Subspace subspace) const {
  SKYLINE_ASSERT(!subspace.empty(), "skyline: empty subspace");
  SKYLINE_ASSERT(subspace.bits() < cuboids_.size(),
                 "skyline: subspace outside the cube's dimensionality");
  return cuboids_[subspace.bits()];
}

std::size_t Skycube::total_size() const {
  std::size_t total = 0;
  for (const auto& cuboid : cuboids_) total += cuboid.size();
  return total;
}

}  // namespace skyline

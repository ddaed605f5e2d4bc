#include "src/core/contracts.h"
#include "src/skycube/skycube.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "src/core/aligned_dataset.h"
#include "src/core/cpu.h"
#include "src/core/kernels.h"

namespace skyline {

namespace {

/// Per-thread scratch of SubspaceSkylineOverCandidates: the gathered
/// block, the window's members (block rows) and their packed rows, in
/// window order. Function-scoped so WarmSubspaceScratch can pre-size it
/// for a whole session of seeded queries.
struct WindowScratch {
  AlignedDataset block;
  std::vector<PointId> window;
  std::vector<std::uint8_t> packed;
};

WindowScratch& SubspaceScratch() {
  thread_local WindowScratch scratch;
  return scratch;
}

}  // namespace

void WarmSubspaceScratch(std::size_t rows, Dim dims) {
  WindowScratch& scratch = SubspaceScratch();
  scratch.block.Reserve(rows, dims);
  scratch.window.reserve(rows);
  // Any packed row fits in kMaxQuantDims bytes.
  scratch.packed.reserve(rows * AlignedDataset::kMaxQuantDims);
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
  WindowScratch& scratch = SubspaceScratch();
  AlignedDataset& block = scratch.block;
  std::vector<PointId>& window = scratch.window;
  std::vector<std::uint8_t>& packed = scratch.packed;
  block.AssignProjected(data, subspace, candidates);
  const Dim d = block.num_dims();
  // The window keeps each member's packed row beside its id, as a
  // SubsetIndex node does, so a probe compares packed rows in place.
  // The plane is built up front, and only for seeds large enough to
  // amortize it; without it the probes run exact compares.
  const bool use_plane = cpu::PrefilterEnabled() &&
                         candidates.size() >= cpu::kPrefilterMinBlock &&
                         block.EnsureQuantized();
  const std::size_t qstride = use_plane ? block.qstride() : 0;
  window.clear();
  packed.clear();
  std::uint64_t local_tests = 0;
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    const Value* q = block.row_unchecked(ci);
    const std::uint8_t* q_quant =
        use_plane ? block.qrow_unchecked(ci) : nullptr;
    // One charged test per window entry up to and including the first
    // dominator — identical to the scalar window scan.
    const kernels::BatchProbeResult probe =
        kernels::DominatesAny(block, window, packed.data(), q, q_quant, d);
    local_tests += probe.scanned;
    // Drops the members before `end` that the candidate dominates
    // (uncharged, like the scalar scan); a packed row moves with its id.
    const auto evict_dominated = [&](std::size_t end) {
      std::size_t keep = 0;
      for (std::size_t i = 0; i < window.size(); ++i) {
        if (i < end &&
            kernels::Dominates(q, block.row_unchecked(window[i]), d)) {
          continue;
        }
        if (keep != i) {
          window[keep] = window[i];
          std::copy_n(packed.begin() + i * qstride, qstride,
                      packed.begin() + keep * qstride);
        }
        ++keep;
      }
      window.resize(keep);
      packed.resize(keep * qstride);
    };
    if (probe.first != kernels::kNoDominator) {
      // Dominated: replay the evictions the scalar scan applied to the
      // entries it inspected before the dominator; everything from the
      // dominator onward stays.
      evict_dominated(probe.first);
      continue;
    }
    // Survivor: evict every window entry the candidate dominates, then
    // append it.
    evict_dominated(window.size());
    window.push_back(static_cast<PointId>(ci));
    packed.insert(packed.end(), q_quant, q_quant + qstride);
  }
  if (tests != nullptr) *tests += local_tests;
  std::vector<PointId> out;
  out.reserve(window.size());
  for (PointId ci : window) out.push_back(candidates[ci]);
  return out;
}

namespace {

/// The bits of `value` with -0.0 folded into +0.0: the comparisons treat
/// the two zeros as equal, so they must hash alike.
std::uint64_t ValueKey(Value value) {
  if (value == 0) value = 0;
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Hash of the projection of a row onto a subspace.
struct ProjectionHasher {
  const Dataset* data;
  Subspace subspace;

  std::size_t Hash(PointId p) const {
    const Value* row = data->row(p);
    std::size_t h = 0xcbf29ce484222325ull;
    subspace.ForEachDim([&](Dim i) {
      h ^= ValueKey(row[i]);
      h *= 0x100000001b3ull;
    });
    return h;
  }
};

/// Open-addressing set of ValueKeys, reused by DistinctDims for every
/// dimension. It starts with kFirstSlots slots and grows once, to room
/// for `max_keys` at load 1/2, so a dimension that repeats a value early
/// never pays for a table sized to every row. The empty-slot marker is a
/// NaN pattern; NaN keys need no care, as any NaN empties DistinctDims'
/// answer.
class ValueKeySet {
 public:
  explicit ValueKeySet(std::size_t max_keys)
      : full_slots_(std::bit_ceil(std::max<std::size_t>(16, 2 * max_keys))) {}

  void Clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
  }

  /// Adds `key`; false if it was already present.
  bool Insert(std::uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    std::uint64_t& slot = FindSlot(key);
    if (slot == key) return false;
    slot = key;
    ++size_;
    return true;
  }

  bool Contains(std::uint64_t key) {
    return !slots_.empty() && FindSlot(key) == key;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kFirstSlots = std::size_t{1} << 12;

  /// The slot holding `key`, or the empty slot where it would go
  /// (multiply-shift hashing, linear probing).
  std::uint64_t& FindSlot(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = (key * 0x9e3779b97f4a7c15ull) >> shift_;;
         i = (i + 1) & mask) {
      if (slots_[i] == key || slots_[i] == kEmpty) return slots_[i];
    }
  }

  void Grow() {
    std::vector<std::uint64_t> old(
        slots_.empty() ? std::min(kFirstSlots, full_slots_) : full_slots_,
        kEmpty);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(slots_.size());
    for (std::uint64_t key : old) {
      if (key != kEmpty) FindSlot(key) = key;
    }
  }

  const std::size_t full_slots_;
  std::vector<std::uint64_t> slots_;
  int shift_ = 0;
  std::size_t size_ = 0;
};

/// New-row counts up to which DistinctDims compares rows directly
/// instead of hashing: a few inserted rows against every old row is one
/// sequential pass, where the table probes every old value once per
/// dimension.
constexpr std::size_t kDistinctCompareMaxRows = 12;

}  // namespace

Subspace DistinctDims(const Dataset& data, Subspace dims, PointId first_new) {
  const Dim d = data.num_dims();
  const std::size_t n = data.num_points();
  SKYLINE_ASSERT(first_new <= n, "DistinctDims: first_new beyond the rows");
  SKYLINE_ASSERT(dims.IsSubsetOf(Subspace::Full(d)),
                 "DistinctDims: dims outside the dataset's space");
  if (dims.empty() || first_new == n) return dims;
  const Value* values = data.values().data();
  Subspace distinct = dims;
  if (n - first_new <= kDistinctCompareMaxRows) {
    // One pass over the rows, each compared with every later new row.
    std::uint64_t repeated = 0;
    for (std::size_t p = 0; p < n; ++p) {
      const Value* a = values + p * d;
      for (std::size_t q = std::max<std::size_t>(first_new, p + 1); q < n;
           ++q) {
        const Value* b = values + q * d;
        for (Dim i = 0; i < d; ++i) {
          repeated |= std::uint64_t{a[i] == b[i]} << i;
        }
      }
    }
    distinct = dims.Difference(Subspace(repeated));
  } else {
    // Per dimension: hash the new rows' values, then probe the old
    // rows'. A dimension stops at its first repeated value.
    ValueKeySet seen(n - first_new);
    dims.ForEachDim([&](Dim i) {
      seen.Clear();
      bool repeated = false;
      for (std::size_t q = first_new; q < n && !repeated; ++q) {
        repeated = !seen.Insert(ValueKey(values[q * d + i]));
      }
      for (std::size_t p = 0; p < first_new && !repeated; ++p) {
        repeated = seen.Contains(ValueKey(values[p * d + i]));
      }
      if (repeated) distinct.Remove(i);
    });
  }
  // A NaN equals nothing, itself included, so the tie scan drops a core
  // member that holds one: the shortcut needs NaN-free rows. Checked
  // last because an empty answer needs no check — which also makes a
  // NaN read as a repeat above harmless.
  if (distinct.empty()) return distinct;
  bool has_nan = false;
  for (std::size_t k = std::size_t{first_new} * d; k < n * d; ++k) {
    has_nan |= std::isnan(values[k]);
  }
  return has_nan ? Subspace() : distinct;
}

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

  // One pass decides, for every cuboid at once, whether its tie closure
  // can add anything.
  const Subspace distinct = DistinctDims(data, Subspace::Full(d), 0);
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
    // core member is equally non-dominated. With a distinct dimension
    // in V the closure is the core itself.
    std::vector<PointId> core =
        SubspaceSkylineOverCandidates(data, subspace, candidates, tests);
    if ((subspace & distinct).empty()) {
      cube.cuboids_[bits] = CloseUnderProjectionTies(data, subspace, core);
    } else {
      std::sort(core.begin(), core.end());
      cube.cuboids_[bits] = std::move(core);
    }
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

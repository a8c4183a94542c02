#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/sync.hpp"
#include "core/schedule.hpp"
#include "sparse/types.hpp"

/// \file elastic.hpp
/// Elastic-execution support shared by the executors: folding full-width
/// per-thread work lists onto a smaller team (the executor-side image of
/// core::Schedule::foldTo — folded thread q owns every original rank p with
/// rank_map[p] == q, supersteps preserved) and a lazily built, immutable
/// cache of one such plan per (team size, fold policy). Folding is
/// lossless for any rank-granularity map: the folded execution computes
/// every row with the same operands in a dependency-respecting order, so
/// results are bitwise equal to the full-width solve under every policy.

namespace sts::exec::detail {

/// Per-thread superstep-major work lists, the executor's native shape:
/// verts[t] holds thread t's vertices with step boundaries step_ptr[t][s].
struct FoldedLists {
  std::vector<std::vector<sts::index_t>> verts;
  std::vector<std::vector<sts::offset_t>> step_ptr;
};

/// Folds `width`-thread work lists onto `team` threads by an explicit
/// rank map (`rank_map[p]` = folded thread of original rank p, size
/// `width`, values in [0, team)): folded thread q's superstep-s segment
/// concatenates the superstep-s segments of every original rank mapped to
/// q in ascending rank — the same concatenation order as
/// core::Schedule::foldWith, which test_elastic pins the implementations
/// to.
FoldedLists foldThreadLists(
    const std::vector<std::vector<sts::index_t>>& verts,
    const std::vector<std::vector<sts::offset_t>>& step_ptr,
    sts::index_t num_steps, int team, std::span<const int> rank_map);

/// Per-(superstep, rank) work of full-width thread lists, superstep-major
/// (size num_steps * width): the work of vertex v is the stored-entry count
/// of row v (row_ptr deltas — identical to dag::Dag::fromLowerTriangular
/// weights for solvable matrices, whose rows are never empty). Feeds
/// core::foldRankMap's kBinPack policy.
std::vector<core::weight_t> threadListLoads(
    const std::vector<std::vector<sts::index_t>>& verts,
    const std::vector<std::vector<sts::offset_t>>& step_ptr,
    sts::index_t num_steps, std::span<const sts::offset_t> row_ptr);

/// Throws std::invalid_argument unless 1 <= team <= width.
inline void requireTeamSize(int team, int width, const char* who) {
  if (team < 1 || team > width) {
    throw std::invalid_argument(std::string(who) + ": team size " +
                                std::to_string(team) +
                                " outside [1, " + std::to_string(width) + "]");
  }
}

/// Lazily built execution plans keyed by (team size, fold policy). Plans
/// are immutable once published, so the fast path is a single acquire
/// load; the first solve at a given key builds the plan under a mutex
/// (concurrent solves at other keys proceed on their published plans
/// meanwhile — only concurrent *builds* serialize). The full-width plan is
/// identical under every policy (folding onto the full width merges
/// nothing), so init() can register one caller-owned unfolded plan that
/// every (max_team, policy) slot shares instead of duplicating it.
template <typename Plan>
class TeamPlanCache {
 public:
  /// Sizes the cache for team sizes 1..max_team across all fold policies.
  /// `full_width`, when given, is published (non-owning) for team ==
  /// max_team under every policy; it must outlive the cache. Call once,
  /// from the executor constructor, before any concurrent use.
  void init(int max_team, const Plan* full_width = nullptr) {
    const auto teams = static_cast<std::size_t>(max_team) + 1;
    slots_ = std::make_unique<Slot[]>(
        teams * static_cast<std::size_t>(core::kNumFoldPolicies));
    max_team_ = max_team;
    if (full_width != nullptr) {
      for (int policy = 0; policy < core::kNumFoldPolicies; ++policy) {
        slots_[slotIndex(max_team, static_cast<core::FoldPolicy>(policy))]
            .published.store(full_width, std::memory_order_release);
      }
    }
  }

  /// The plan for (team, policy), building via `build(team, policy)` on
  /// first request.
  template <typename BuildFn>
  const Plan& get(int team, core::FoldPolicy policy, BuildFn&& build) const {
    Slot& slot = slots_[slotIndex(team, policy)];
    if (const Plan* plan = slot.published.load(std::memory_order_acquire)) {
      return *plan;
    }
    base::MutexLock lock(mu_);
    if (const Plan* plan = slot.published.load(std::memory_order_relaxed)) {
      return *plan;
    }
    slot.owned = std::make_unique<const Plan>(build(team, policy));
    slot.published.store(slot.owned.get(), std::memory_order_release);
    return *slot.owned;
  }

 private:
  std::size_t slotIndex(int team, core::FoldPolicy policy) const {
    return static_cast<std::size_t>(policy) *
               (static_cast<std::size_t>(max_team_) + 1) +
           static_cast<std::size_t>(team);
  }

  /// `published` is the lock-free read path (acquire/release pairing with
  /// the build under mu_); `owned` is the slot's storage, written only
  /// with mu_ held. The analysis cannot tie a nested struct's member to
  /// the enclosing cache's mutex, so the build mutex itself (base::Mutex
  /// + scoped MutexLock) carries the checked discipline here and the
  /// publication ordering stays a TSan-certified contract
  /// (tests/test_elastic.cpp, tests/test_tiled.cpp Concurrent suites).
  struct Slot {
    std::atomic<const Plan*> published{nullptr};
    std::unique_ptr<const Plan> owned;
  };
  mutable base::Mutex mu_;
  std::unique_ptr<Slot[]> slots_;
  int max_team_ = 0;
};

}  // namespace sts::exec::detail

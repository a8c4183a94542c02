#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "base/sync.hpp"
#include "check/check.hpp"

/// \file core_budget.hpp
/// The machine-wide core allocator of the serving subsystem. Each engine
/// worker sizes its batch team independently, so without coordination N
/// concurrent batches can oversubscribe the machine by up to
/// N * num_threads threads in aggregate — and even a correctly *counted*
/// set of teams tramples caches when the OS migrates anonymous threads
/// across cores between batches.
///
/// A CoreBudget runs in one of two modes:
///
///   * COUNTING mode (`CoreBudget(total)`): the PR 3 lease counter. A
///     batch acquires up to its desired team size (blocking until at least
///     one core is free), executes on exactly the granted width — folding
///     makes any width bitwise-lossless — and releases on completion. The
///     invariant: the sum of outstanding grants never exceeds the budget.
///
///   * CORE-SET mode (`CoreBudget(core_ids)`): the counter becomes an
///     allocator. The budget owns an explicit set of logical CPU ids
///     (user-supplied via EngineOptions::core_set, or detected from the
///     process affinity mask), and every Grant carries the concrete ids it
///     leased, always the lowest free ids. Outstanding grants are DISJOINT
///     id sets by construction — the stronger invariant "never overlap"
///     that placement needs — and releasing returns exactly those ids to
///     the free pool. The engine pins each batch's OpenMP team members to
///     their leased ids (exec::ScopedPin via SolveContext), which upgrades
///     the PR 3 guarantee "never oversubscribe" to "never overlap, never
///     migrate".
///
/// Both modes share the blocking/partial-grant semantics, the peak /
/// throttle telemetry, and the TSan-covered invariant tests
/// (tests/test_fold_policies.cpp, tests/test_affinity.cpp).

namespace sts::engine {

class CoreBudget {
 public:
  /// One outstanding lease. `count` is the granted width; `ids` are the
  /// leased logical CPUs (size == count in core-set mode, empty in
  /// counting/unlimited mode — an anonymous grant). Obtain from acquire(),
  /// return with release() exactly once.
  struct Grant {
    int count = 0;
    std::vector<int> ids;
  };

  /// Counting mode. `total` <= 0 means unlimited: acquire() grants every
  /// desired width immediately and tracks nothing.
  explicit CoreBudget(int total) : total_(total) {}

  /// Core-set mode over explicit logical CPU ids. Throws
  /// std::invalid_argument on an empty set, a negative id, or duplicates
  /// (a duplicated id would let two "disjoint" grants share a core).
  explicit CoreBudget(std::vector<int> core_ids)
      : total_(static_cast<int>(core_ids.size())),
        core_set_(std::move(core_ids)),
        free_ids_(core_set_) {
    if (core_set_.empty()) {
      throw std::invalid_argument("CoreBudget: empty core set");
    }
    std::sort(free_ids_.begin(), free_ids_.end());
    if (free_ids_.front() < 0) {
      throw std::invalid_argument("CoreBudget: negative core id");
    }
    if (std::adjacent_find(free_ids_.begin(), free_ids_.end()) !=
        free_ids_.end()) {
      throw std::invalid_argument("CoreBudget: duplicate core id");
    }
    std::sort(core_set_.begin(), core_set_.end());
  }

  CoreBudget(const CoreBudget&) = delete;
  CoreBudget& operator=(const CoreBudget&) = delete;

  /// Leases up to `desired` cores, blocking until at least one is free,
  /// then granting as many free cores as possible (never more than
  /// `desired`). In core-set mode the grant names the lowest free ids,
  /// disjoint from every other outstanding grant. The caller must
  /// release() the grant exactly once. Throws std::invalid_argument
  /// unless 1 <= desired.
  Grant acquire(int desired) {
    if (desired < 1) {
      throw std::invalid_argument("CoreBudget::acquire: bad width");
    }
    if (total_ <= 0) return Grant{desired, {}};
    base::MutexLock lock(mu_);
    // Explicit wait loop so the guarded read of in_use_ stays in this
    // (analyzed) scope — see base/sync.hpp.
    while (in_use_ >= total_) cv_.wait(lock.native());
    Grant grant;
    grant.count = std::min(desired, total_ - in_use_);
    if (!core_set_.empty()) {
      // Lowest free ids first: repeated bursts land on the same cores,
      // which is exactly the cross-batch cache stability pinning buys.
      const auto take = static_cast<std::size_t>(grant.count);
      grant.ids.assign(free_ids_.begin(),
                       free_ids_.begin() + static_cast<std::ptrdiff_t>(take));
      free_ids_.erase(free_ids_.begin(),
                      free_ids_.begin() + static_cast<std::ptrdiff_t>(take));
    }
    in_use_ += grant.count;
    peak_ = std::max(peak_, in_use_);
    if (grant.count < desired) ++throttled_;
#if STS_CHECKS
    // Checked builds audit disjointness across every live grant on each
    // lease — the "never overlap" invariant placement relies on.
    if (!core_set_.empty()) {
      live_grants_.push_back(grant.ids);
      check::enforce(check::auditCoreGrants(core_set_, live_grants_),
                     "CoreBudget::acquire");
    }
#endif
    return grant;
  }

  /// Returns a grant to the pool — in core-set mode the exact leased ids
  /// rejoin the free set — and wakes waiters. Throws std::invalid_argument
  /// if a core-set grant's ids do not match its count (a sliced or
  /// double-released grant).
  void release(Grant grant) {
    if (total_ <= 0 || grant.count <= 0) return;
    {
      base::MutexLock lock(mu_);
      if (!core_set_.empty()) {
        if (static_cast<int>(grant.ids.size()) != grant.count) {
          throw std::invalid_argument(
              "CoreBudget::release: grant ids do not match its count");
        }
        for (const int id : grant.ids) {
          free_ids_.insert(
              std::lower_bound(free_ids_.begin(), free_ids_.end(), id), id);
        }
#if STS_CHECKS
        const auto live = std::find(live_grants_.begin(), live_grants_.end(),
                                    grant.ids);
        check::enforce(
            live != live_grants_.end()
                ? check::CheckResult{}
                : check::CheckResult::failure(
                      "released a grant that was never live"),
            "CoreBudget::release");
        live_grants_.erase(live);
#endif
      }
      in_use_ -= grant.count;
    }
    cv_.notify_all();
  }

  /// RAII lease for exception-safe batch execution. `cores()` exposes the
  /// leased ids for pinning (empty in counting/unlimited mode).
  class Lease {
   public:
    Lease(CoreBudget& budget, int desired)
        : budget_(&budget), grant_(budget.acquire(desired)) {}
    ~Lease() { budget_->release(std::move(grant_)); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    int granted() const { return grant_.count; }
    std::span<const int> cores() const { return grant_.ids; }

   private:
    CoreBudget* budget_;
    Grant grant_;
  };

  bool limited() const { return total_ > 0; }
  int total() const { return total_; }
  /// Core-set mode: grants carry explicit disjoint CPU ids.
  bool hasCoreSet() const { return !core_set_.empty(); }
  /// The full core universe (sorted; empty in counting mode).
  std::span<const int> coreSet() const { return core_set_; }

  int inUse() const {
    base::MutexLock lock(mu_);
    return in_use_;
  }
  /// High-water mark of concurrently leased cores; never exceeds total()
  /// when limited — the invariant the TSan-covered budget tests pin.
  int peakInUse() const {
    base::MutexLock lock(mu_);
    return peak_;
  }
  /// Acquires granted less than they desired (the contention signal).
  std::uint64_t throttledAcquires() const {
    base::MutexLock lock(mu_);
    return throttled_;
  }

 private:
  const int total_;
  /// Immutable after construction (sorted); empty in counting mode.
  std::vector<int> core_set_;
  mutable base::Mutex mu_;
  std::condition_variable cv_;
  /// Free ids, kept sorted so grants take the lowest first.
  std::vector<int> free_ids_ STS_GUARDED_BY(mu_);
  int in_use_ STS_GUARDED_BY(mu_) = 0;
  int peak_ STS_GUARDED_BY(mu_) = 0;
  std::uint64_t throttled_ STS_GUARDED_BY(mu_) = 0;
#if STS_CHECKS
  /// Checked builds only: the id set of every outstanding core-set grant,
  /// audited for pairwise disjointness on each acquire/release.
  std::vector<std::vector<int>> live_grants_ STS_GUARDED_BY(mu_);
#endif
};

}  // namespace sts::engine

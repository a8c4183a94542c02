#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "exec/spin_barrier.hpp"
#include "sparse/types.hpp"

/// \file solve_context.hpp
/// Per-solve mutable state, separated from the immutable analysis product.
///
/// ## Reentrancy contract
///
/// The analysis phase (schedule + executor + permuted matrix) is built once
/// and never mutated by a solve. Everything a solve *does* mutate — the
/// superstep SpinBarrier, the P2P epoch-stamped completion flags, and the
/// permutation scratch vectors — lives here. The contract is:
///
///   * One SolveContext supports ONE solve at a time.
///   * N contexts permit N simultaneous solves against the same executor /
///     TriangularSolver: `solver.solve(b, x, ctx)` is `const` and touches no
///     solver state outside `ctx`, `b`, and `x`.
///   * A context carries a (num_threads, num_vertices) shape: num_threads
///     is a *capacity* — any solve with a team of at most that many threads
///     may use the context (elastic solves fold a wide schedule onto a
///     smaller team; see Schedule::foldTo) — while num_vertices must match
///     the executor exactly. Executors reject insufficient contexts.
///   * Contexts are reusable across sequential solves (state resets are
///     O(1) amortized: the barrier is sense-reversing, the P2P flags are
///     epoch-stamped) and cheap to pool — `engine::SolverEngine` keeps a
///     free list of them per registered solver.
///   * A context may carry a PINNED CORE SET (setPinnedCores): while one is
///     set, OpenMP team member t of a solve on this context pins itself to
///     `cores[t % cores.size()]` for the duration of the parallel region
///     (exec::ScopedPin — previous mask restored on exit, no-op when the
///     platform lacks affinity support). Pinning is pure placement: results
///     stay bitwise identical to the unpinned solve. Setting or clearing
///     the pin set follows the same one-solve-at-a-time rule as the rest of
///     the context state.
///
/// TriangularSolver's context-free `solve(b, x)` overloads run on a
/// built-in default context and therefore keep the historical
/// one-solve-at-a-time restriction; they exist so single-stream callers
/// need no ceremony. The executors have no such overloads.
class SolveContextTestPeer;

namespace sts::obs {
struct SolveTrace;
}  // namespace sts::obs

namespace sts::exec {

class BspExecutor;
class ContiguousBspExecutor;
class P2pExecutor;
class ScopedPin;
class SolveContext;
class TriangularSolver;
struct RowBlock;

namespace detail {
/// The BSP executors' superstep walker (bsp.cpp).
template <typename Step>
void superstepRegion(SolveContext& ctx, int team, sts::index_t steps,
                     Step step);
}  // namespace detail

class SolveContext {
 public:
  /// Shape-compatible with executors built for up to `num_threads` cores
  /// over `num_vertices` rows. The barrier is ready immediately; the P2P
  /// flag array and the permutation scratch are allocated on first use.
  SolveContext(int num_threads, sts::index_t num_vertices);

  SolveContext(const SolveContext&) = delete;
  SolveContext& operator=(const SolveContext&) = delete;

  int numThreads() const { return num_threads_; }
  sts::index_t numVertices() const { return n_; }

  /// Epoch of the most recent P2P solve (0 before any). Diagnostic.
  std::uint32_t currentEpoch() const { return epoch_; }

  /// Arms pinning for subsequent solves on this context: team member t of
  /// each solve pins itself to `cores[t % cores.size()]` while the parallel
  /// region runs (engine batches pass their CoreBudget lease here). Resets
  /// the pin counters. Not to be called concurrently with a solve on this
  /// context.
  void setPinnedCores(std::vector<int> cores);
  /// Disarms pinning and resets the pin counters (the ContextPool does this
  /// on release so pooled contexts never leak a stale placement).
  void clearPinnedCores();
  /// The armed core set (empty = unpinned solves).
  std::span<const int> pinnedCores() const { return pin_cores_; }

  /// Team members successfully pinned since the last setPinnedCores /
  /// clearPinnedCores (0 when unsupported — the portable fallback).
  std::uint64_t pinnedThreads() const {
    return pinned_threads_.load(std::memory_order_relaxed);
  }
  /// Pinned members that were executing OUTSIDE the armed core set when
  /// their pin was taken — OS migrations the pin corrected.
  std::uint64_t migratedThreads() const {
    return migrated_threads_.load(std::memory_order_relaxed);
  }

  /// Arms per-superstep compute/wait attribution for subsequent solves on
  /// this context: every executor region flushes its StepTracer totals
  /// into `sink` (see obs/trace.hpp). nullptr disarms — the default, and
  /// what ContextPool restores on release so pooled contexts never report
  /// into a dead batch's sink. Same one-solve-at-a-time rule as the rest
  /// of the context state.
  void setTrace(sts::obs::SolveTrace* sink) { trace_ = sink; }
  sts::obs::SolveTrace* trace() const { return trace_; }

 private:
  friend class BspExecutor;
  friend class ContiguousBspExecutor;
  friend class P2pExecutor;
  friend class TriangularSolver;
  friend class ::SolveContextTestPeer;  ///< epoch-wraparound tests only
  friend void gatherRows(std::span<const sts::index_t> map,
                         std::span<const RowBlock> blocks, SolveContext& ctx,
                         int team);
  template <typename Step>
  friend void detail::superstepRegion(SolveContext& ctx, int team,
                                      sts::index_t steps, Step step);

  /// Throws std::invalid_argument unless this context can host a solve of
  /// `num_threads` team members over `num_vertices` rows: the thread count
  /// is a capacity check (team <= numThreads()), the row count an exact
  /// match.
  void requireShape(int num_threads, sts::index_t num_vertices,
                    const char* who) const;

  /// Starts a P2P solve: allocates the flag array on first use and returns
  /// the fresh epoch. On uint32 wraparound the flags are cleared and the
  /// epoch restarts at 1, so a stale `done_[v]` can never alias a future
  /// epoch and release a waiter early.
  std::uint32_t beginP2pEpoch();

  /// Scratch sized to at least `size` doubles (grow-only): the facade's
  /// internal-order b and x, which its gather pass (gather.hpp) fills from
  /// the caller's b before the executor runs and reads back into the
  /// caller's x after it.
  std::span<double> bScratch(std::size_t size);
  std::span<double> xScratch(std::size_t size);

  /// Executors report each team member's ScopedPin outcome here from
  /// inside the parallel region (hence the relaxed atomics).
  void notePin(const ScopedPin& pin);

  /// A team join ThreadSanitizer can see. libgomp's join orders everything
  /// a member did in a region before the caller's next step, but TSan
  /// cannot see it, so it would report the caller reading the results, or
  /// freeing this context, as racing with a member's last access. As its
  /// last act in the region each member but 0 calls memberDone(), and
  /// member 0, the caller's own thread, calls awaitMembers(members). Member
  /// 0 then reaches libgomp's join last, so it never sleeps there waiting
  /// for a member (acquiring the count after the region instead cost
  /// about 8 us per gather at n = 74k).
  void memberDone() { members_done_.fetch_add(1, std::memory_order_release); }
  void awaitMembers(int members) {
    spinUntil([&] {
      return members_done_.load(std::memory_order_acquire) == members - 1;
    });
    members_done_.store(0, std::memory_order_relaxed);
  }

  int num_threads_ = 0;
  sts::index_t n_ = 0;
  SpinBarrier barrier_;

  /// Armed core set for pinned solves; empty = no pinning.
  std::vector<int> pin_cores_;
  /// Armed attribution sink; nullptr = attribution off.
  sts::obs::SolveTrace* trace_ = nullptr;
  std::atomic<std::uint64_t> pinned_threads_{0};
  std::atomic<std::uint64_t> migrated_threads_{0};
  /// Members that finished the current region; see memberDone().
  std::atomic<int> members_done_{0};

  /// done_[v] == epoch_ means v is computed in the current P2P solve.
  std::unique_ptr<std::atomic<std::uint32_t>[]> done_;
  std::uint32_t epoch_ = 0;

  std::vector<double> b_scratch_;
  std::vector<double> x_scratch_;
};

}  // namespace sts::exec

#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "exec/elastic.hpp"
#include "exec/solve_context.hpp"
#include "exec/tile.hpp"
#include "sparse/csr.hpp"

/// \file bsp.hpp
/// Barrier-synchronous SpTRSV executor: runs a validated Schedule with one
/// spin barrier per superstep boundary (the execution model of §2.2).
/// The per-thread work lists are precomputed at construction so that the
/// hot solve path touches only flat arrays.
///
/// Reentrancy contract (see solve_context.hpp): executors are immutable
/// after construction; the only per-solve mutable state is the superstep
/// barrier, which lives in the SolveContext. The context-taking overloads
/// are `const` and safe to call concurrently as long as every concurrent
/// solve uses its own context. The context-free overloads run on a shared
/// built-in context and therefore remain one-solve-at-a-time.
///
/// Elasticity: every context-taking overload accepts a per-solve `team`
/// size 1 <= team <= numThreads() and optionally a core::FoldPolicy
/// selecting the rank map (kModulo: p -> p mod team; kBinPack: LPT packing
/// of whole ranks by per-superstep nnz load — see elastic.hpp). Results
/// are bitwise equal to the full-width solve under every policy. Folded
/// plans are cached per (team size, policy) — construction cost is paid
/// once, concurrent solves at mixed team sizes and policies are safe.

namespace sts::exec {

using core::Schedule;
using sparse::CsrMatrix;
using sts::index_t;
using sts::offset_t;

class BspExecutor {
 public:
  /// `lower` must satisfy requireSolvableLower; `schedule` must be a valid
  /// schedule of the matrix's DAG (validateSchedule) — both are the
  /// caller's analysis-phase responsibility; the constructor re-checks the
  /// matrix but not the schedule (O(V·E) validation is opt-in).
  BspExecutor(const CsrMatrix& lower, const Schedule& schedule);

  /// x = L^{-1} b on a `team`-thread OpenMP team (the schedule folded to
  /// `team` ranks under `policy`); `ctx` carries the superstep barrier.
  /// Concurrent solves need distinct contexts. Throws
  /// std::invalid_argument unless 1 <= team <= numThreads().
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int team, core::FoldPolicy policy) const;
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int team) const;
  /// Full-width team.
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx) const;
  /// Convenience overload on the built-in context (one solve at a time).
  void solve(std::span<const double> b, std::span<double> x) const;

  /// SpTRSM: X = L^{-1} B, both n x nrhs row-major. The schedule is
  /// RHS-count agnostic — each vertex simply carries nrhs times the work,
  /// so the barrier cost is amortized across the nrhs solves.
  void solveMultiRhs(std::span<const double> b, std::span<double> x,
                     index_t nrhs, SolveContext& ctx, int team,
                     core::FoldPolicy policy) const;
  void solveMultiRhs(std::span<const double> b, std::span<double> x,
                     index_t nrhs, SolveContext& ctx, int team) const;
  void solveMultiRhs(std::span<const double> b, std::span<double> x,
                     index_t nrhs, SolveContext& ctx) const;
  void solveMultiRhs(std::span<const double> b, std::span<double> x,
                     index_t nrhs) const;

  /// Tiled SpTRSM: B and X are packed as `layout` column tiles (tile.hpp).
  /// One parallel region runs the per-superstep row loop once per tile —
  /// still one barrier per superstep regardless of tile count, and the CSR
  /// walk gains the register-blocked kernel (computeRowMultiTiled). Column
  /// tileBegin(t) + c of the unpacked result is bitwise equal to
  /// solveMultiRhs's column.
  void solveMultiRhsTiled(std::span<const double> b, std::span<double> x,
                          const TileLayout& layout, SolveContext& ctx,
                          int team, core::FoldPolicy policy) const;

  /// A fresh context shaped for this executor.
  std::unique_ptr<SolveContext> createContext() const {
    return std::make_unique<SolveContext>(num_threads_, lower_.rows());
  }

  int numThreads() const { return num_threads_; }
  index_t numSupersteps() const { return num_supersteps_; }

 private:
  /// The folded work lists for (team, policy), cached per key; team ==
  /// numThreads() shares the unfolded `full_` lists across policies.
  const detail::FoldedLists& foldedPlan(int team,
                                        core::FoldPolicy policy) const;

  const CsrMatrix& lower_;
  int num_threads_ = 0;
  index_t num_supersteps_ = 0;
  /// The full-width per-thread work lists (verts[t] with superstep
  /// boundaries step_ptr[t][s]); also the shared team == numThreads() plan.
  detail::FoldedLists full_;
  /// Per-(superstep, rank) nnz loads of `full_` (superstep-major); feeds
  /// the kBinPack rank maps.
  std::vector<core::weight_t> rank_loads_;
  detail::TeamPlanCache<detail::FoldedLists> folded_;
  /// Backs the context-free overloads; mutable per-solve state only.
  mutable SolveContext default_ctx_;
};

/// Executor for the reordered problem (§5): every (superstep, core) group
/// is a contiguous row range of the permuted matrix, so the work lists are
/// just range boundaries — the best-locality configuration. Same
/// reentrancy contract as BspExecutor.
class ContiguousBspExecutor {
 public:
  ContiguousBspExecutor(const CsrMatrix& permuted_lower,
                        index_t num_supersteps, int num_cores,
                        std::vector<offset_t> group_ptr);

  /// Folded team solve: thread q executes the row ranges of every original
  /// rank the policy's rank map assigns to q, per superstep. 1 <= team <=
  /// numThreads().
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int team, core::FoldPolicy policy) const;
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int team) const;
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx) const;
  void solve(std::span<const double> b, std::span<double> x) const;

  /// SpTRSM over the contiguous row ranges: X = L^{-1} B, n x nrhs
  /// row-major, one barrier per superstep regardless of nrhs.
  void solveMultiRhs(std::span<const double> b, std::span<double> x,
                     index_t nrhs, SolveContext& ctx, int team,
                     core::FoldPolicy policy) const;
  void solveMultiRhs(std::span<const double> b, std::span<double> x,
                     index_t nrhs, SolveContext& ctx, int team) const;
  void solveMultiRhs(std::span<const double> b, std::span<double> x,
                     index_t nrhs, SolveContext& ctx) const;
  void solveMultiRhs(std::span<const double> b, std::span<double> x,
                     index_t nrhs) const;

  /// Tiled SpTRSM over the contiguous row ranges: same contract as
  /// BspExecutor::solveMultiRhsTiled (one barrier per superstep, tile loop
  /// inside, bitwise per column).
  void solveMultiRhsTiled(std::span<const double> b, std::span<double> x,
                          const TileLayout& layout, SolveContext& ctx,
                          int team, core::FoldPolicy policy) const;

  std::unique_ptr<SolveContext> createContext() const {
    return std::make_unique<SolveContext>(num_threads_, lower_.rows());
  }

  int numThreads() const { return num_threads_; }
  index_t numSupersteps() const { return num_supersteps_; }

 private:
  /// Folded plan for team < numThreads(): folded thread q's superstep-s
  /// work is a short list of contiguous row runs (one per surviving
  /// original rank, adjacent runs merged). Must implement the same rank
  /// map and concatenation order as Schedule::foldWith / foldThreadLists —
  /// test_elastic pins the implementations to each other.
  struct FoldedRanges {
    /// Runs of group (s, q) are ranges[range_ptr[s * team + q] ..
    /// range_ptr[s * team + q + 1]).
    std::vector<offset_t> range_ptr;
    std::vector<std::pair<index_t, index_t>> ranges;  ///< [lo, hi) rows
  };
  const FoldedRanges& foldedPlan(int team, core::FoldPolicy policy) const;

  const CsrMatrix& lower_;
  index_t num_supersteps_ = 0;
  int num_threads_ = 0;
  std::vector<offset_t> group_ptr_;
  /// Per-(superstep, rank) nnz loads of the row ranges (superstep-major);
  /// feeds the kBinPack rank maps.
  std::vector<core::weight_t> rank_loads_;
  detail::TeamPlanCache<FoldedRanges> folded_;
  mutable SolveContext default_ctx_;
};

}  // namespace sts::exec

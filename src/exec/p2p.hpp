#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "dag/dag.hpp"
#include "exec/elastic.hpp"
#include "exec/solve_context.hpp"
#include "exec/tile.hpp"
#include "sparse/csr.hpp"

/// \file p2p.hpp
/// Asynchronous point-to-point executor in the style of SpMP [PSSD14]:
/// no global barriers — each thread walks its own vertex list in level
/// order and spin-waits only on the cross-thread parents that survive the
/// approximate transitive reduction. Completion flags are epoch-stamped so
/// that repeated solves need no O(n) reset; on uint32 epoch wraparound the
/// SolveContext clears the flags so a stale stamp can never alias a fresh
/// epoch.
///
/// Reentrancy contract (see solve_context.hpp): the executor is immutable
/// after construction; the epoch counter and completion flags live in the
/// SolveContext, so concurrent solves with distinct contexts are safe. The
/// context-free overloads share a built-in context and remain
/// one-solve-at-a-time.
///
/// Elasticity: the context-taking overloads accept a per-solve `team` size
/// and optionally a core::FoldPolicy; the vertex lists fold by the
/// policy's rank map (superstep-major order preserved) while the wait
/// lists stay fixed — a dependency whose source folds onto the waiter's
/// own thread is computed earlier in that thread's list, so its spin
/// resolves immediately. Deadlock freedom carries over for any
/// rank-granularity map because folded cross-thread parents still sit in
/// strictly earlier supersteps.

namespace sts::exec {

using core::Schedule;
using dag::Dag;
using sparse::CsrMatrix;
using sts::index_t;
using sts::offset_t;

class P2pExecutor {
 public:
  /// `schedule` provides the per-thread vertex order (its superstep
  /// structure is ignored at run time); `sync_dag` lists the dependency
  /// edges to wait on (typically the transitively reduced DAG; passing the
  /// full DAG is valid but waits on more edges).
  P2pExecutor(const CsrMatrix& lower, const Schedule& schedule,
              const Dag& sync_dag);

  /// x = L^{-1} b on a `team`-thread folded execution; `ctx` carries the
  /// epoch-stamped completion flags. Concurrent solves need distinct
  /// contexts. 1 <= team <= numThreads().
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int team, core::FoldPolicy policy) const;
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int team) const;
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx) const;
  void solve(std::span<const double> b, std::span<double> x) const;

  /// SpTRSM: X = L^{-1} B, both n x nrhs row-major; one completion-flag
  /// store per vertex regardless of nrhs.
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
  /// The completion flags are epoch-granular — they cannot express "row i
  /// done for tile t" — so the executor runs one full dependency-resolved
  /// pass per tile, each under a fresh epoch. That trades extra flag
  /// traffic for the cache-resident tile operand and the register-blocked
  /// CSR kernel; column tileBegin(t) + c of the unpacked result is bitwise
  /// equal to solveMultiRhs's column.
  void solveMultiRhsTiled(std::span<const double> b, std::span<double> x,
                          const TileLayout& layout, SolveContext& ctx,
                          int team, core::FoldPolicy policy) const;

  std::unique_ptr<SolveContext> createContext() const {
    return std::make_unique<SolveContext>(num_threads_, lower_.rows());
  }

  int numThreads() const { return num_threads_; }

  /// Total cross-thread dependencies the executor waits on (diagnostic:
  /// shows the sparsification effect of the transitive reduction).
  offset_t numCrossDependencies() const { return cross_deps_; }

 private:
  const detail::FoldedLists& foldedPlan(int team,
                                        core::FoldPolicy policy) const;
  /// One dependency-resolved pass over a single n x w tile under a fresh
  /// epoch (the register-blocked per-tile leg of solveMultiRhsTiled).
  void solveTileCsrPass(std::span<const double> b_tile,
                        std::span<double> x_tile, std::size_t w,
                        SolveContext& ctx, int team,
                        core::FoldPolicy policy) const;

  const CsrMatrix& lower_;
  int num_threads_ = 0;
  index_t num_supersteps_ = 0;
  offset_t cross_deps_ = 0;

  /// Full-width per-thread vertex execution order, with superstep
  /// boundaries kept so the lists can fold onto smaller teams
  /// (elastic.hpp); also the shared team == numThreads() plan.
  detail::FoldedLists full_;
  /// Per-(superstep, rank) nnz loads of `full_` for kBinPack rank maps.
  std::vector<core::weight_t> rank_loads_;
  /// wait_list of vertex v: cross-thread parents in the sync DAG, stored
  /// flat: wait_adj_[wait_ptr_[v] .. wait_ptr_[v+1]).
  std::vector<offset_t> wait_ptr_;
  std::vector<index_t> wait_adj_;
  detail::TeamPlanCache<detail::FoldedLists> folded_;

  mutable SolveContext default_ctx_;
};

}  // namespace sts::exec

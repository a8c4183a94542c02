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
/// SolveContext, so concurrent solves with distinct contexts are safe.
///
/// Elasticity: both entry points take a per-solve `team` size; the vertex
/// lists fold by core::foldRankMap (superstep-major order preserved)
/// while the wait lists stay fixed — a dependency whose source folds onto
/// the waiter's own thread is computed earlier in that thread's list, so
/// its spin resolves immediately. Deadlock freedom carries over for any
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
             SolveContext& ctx, int team) const;

  /// Tiled SpTRSM: B and X are packed as `layout` column tiles (tile.hpp);
  /// a one-tile TileLayout(n, nrhs, nrhs) is the row-major n x nrhs block.
  /// The completion flags are epoch-granular — they cannot express "row i
  /// done for tile t" — so the executor runs one full dependency-resolved
  /// pass per tile, each under a fresh epoch. That trades extra flag
  /// traffic for the cache-resident tile operand and the register-blocked
  /// CSR kernel; column tileBegin(t) + c of the unpacked result is bitwise
  /// equal to solve() on that column.
  void solveMultiRhsTiled(std::span<const double> b, std::span<double> x,
                          const TileLayout& layout, SolveContext& ctx,
                          int team) const;

  std::unique_ptr<SolveContext> createContext() const {
    return std::make_unique<SolveContext>(num_threads_, lower_.rows());
  }

  int numThreads() const { return num_threads_; }

  /// Total cross-thread dependencies the executor waits on (diagnostic:
  /// shows the sparsification effect of the transitive reduction).
  offset_t numCrossDependencies() const { return cross_deps_; }

 private:
  const detail::FoldedLists& foldedPlan(int team) const;
  /// The executor's one parallel region: a dependency-resolved pass over
  /// `plan` under a fresh epoch, in which each member runs `row(i)` on its
  /// vertices once their cross-thread parents are done (p2p.cpp).
  template <typename RowFn>
  void pass(const detail::FoldedLists& plan, SolveContext& ctx, int team,
            RowFn row) const;

  const CsrMatrix& lower_;
  int num_threads_ = 0;
  index_t num_supersteps_ = 0;
  offset_t cross_deps_ = 0;

  /// Full-width per-thread vertex execution order, with superstep
  /// boundaries kept so the lists can fold onto smaller teams
  /// (elastic.hpp); also the shared team == numThreads() plan.
  detail::FoldedLists full_;
  /// Per-(superstep, rank) nnz loads of `full_` for the fold rank maps.
  std::vector<core::weight_t> rank_loads_;
  /// wait_list of vertex v: cross-thread parents in the sync DAG, stored
  /// flat: wait_adj_[wait_ptr_[v] .. wait_ptr_[v+1]).
  std::vector<offset_t> wait_ptr_;
  std::vector<index_t> wait_adj_;
  detail::TeamPlanCache<detail::FoldedLists> folded_;
};

}  // namespace sts::exec

#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/schedule.hpp"
#include "exec/elastic.hpp"
#include "exec/solve_context.hpp"
#include "exec/tile.hpp"
#include "sparse/csr.hpp"

/// \file bsp.hpp
/// Barrier-synchronous SpTRSV executors: run a validated Schedule with one
/// spin barrier per superstep boundary (the execution model of §2.2).
/// Both executors run one superstep walker (bsp.cpp) and differ only in
/// where a member's rows come from: vertex lists (BspExecutor) or, after
/// the §5 reordering, row ranges (ContiguousBspExecutor). The work lists
/// are precomputed at construction so that the hot solve path touches
/// only flat arrays.
///
/// Reentrancy contract (see solve_context.hpp): executors are immutable
/// after construction; the only per-solve mutable state is the superstep
/// barrier, which lives in the SolveContext. Both entry points are `const`
/// and safe to call concurrently as long as every concurrent solve uses
/// its own context.
///
/// Elasticity: every solve takes a `team` size 1 <= team <= numThreads()
/// and runs the schedule folded onto that many members by
/// core::foldRankMap over the per-(superstep, rank) nnz loads (see
/// elastic.hpp). Results are bitwise equal to the full-width solve. Folded
/// plans are cached per team size — construction cost is paid once, and
/// concurrent solves at mixed team sizes are safe.

namespace sts::exec {

using core::Schedule;
using sparse::CsrMatrix;
using sts::index_t;
using sts::offset_t;

namespace detail {

/// The row-range image of FoldedLists: member q's superstep-s rows are the
/// runs ranges[range_ptr[s * team + q] .. range_ptr[s * team + q + 1]),
/// each a [lo, hi) row range.
struct FoldedRanges {
  int team = 0;
  std::vector<offset_t> range_ptr;
  std::vector<std::pair<index_t, index_t>> ranges;
};

}  // namespace detail

class BspExecutor {
 public:
  /// `lower` must satisfy requireSolvableLower; `schedule` must be a valid
  /// schedule of the matrix's DAG (validateSchedule) — both are the
  /// caller's analysis-phase responsibility; the constructor re-checks the
  /// matrix but not the schedule (O(V·E) validation is opt-in).
  BspExecutor(const CsrMatrix& lower, const Schedule& schedule);

  /// x = L^{-1} b on a `team`-thread OpenMP team (the schedule folded to
  /// `team` ranks); `ctx` carries the superstep barrier. Concurrent solves
  /// need distinct contexts. Throws std::invalid_argument unless
  /// 1 <= team <= numThreads().
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int team) const;

  /// Tiled SpTRSM: X = L^{-1} B with B and X packed as `layout` column
  /// tiles (tile.hpp); a one-tile TileLayout(n, nrhs, nrhs) is the
  /// row-major n x nrhs block. The tile loop runs inside each superstep —
  /// one barrier per superstep regardless of tile count — through the
  /// register-blocked computeRowMultiTiled. Column tileBegin(t) + c of the
  /// unpacked result is bitwise equal to solve() on that column.
  void solveMultiRhsTiled(std::span<const double> b, std::span<double> x,
                          const TileLayout& layout, SolveContext& ctx,
                          int team) const;

  /// A fresh context shaped for this executor.
  std::unique_ptr<SolveContext> createContext() const {
    return std::make_unique<SolveContext>(num_threads_, lower_.rows());
  }

  int numThreads() const { return num_threads_; }
  index_t numSupersteps() const { return num_supersteps_; }

 private:
  /// The folded work lists for `team`, cached per team; team ==
  /// numThreads() is the unfolded `full_` lists.
  const detail::FoldedLists& foldedPlan(int team) const;

  const CsrMatrix& lower_;
  int num_threads_ = 0;
  index_t num_supersteps_ = 0;
  /// The full-width per-thread work lists (verts[t] with superstep
  /// boundaries step_ptr[t][s]); also the shared team == numThreads() plan.
  detail::FoldedLists full_;
  /// Per-(superstep, rank) nnz loads of `full_` (superstep-major); feeds
  /// the fold rank maps.
  std::vector<core::weight_t> rank_loads_;
  detail::TeamPlanCache<detail::FoldedLists> folded_;
};

/// Executor for the reordered problem (§5): every (superstep, core) group
/// is a contiguous row range of the permuted matrix, so the work lists are
/// just range boundaries — the best-locality configuration. Same
/// reentrancy contract and entry points as BspExecutor.
class ContiguousBspExecutor {
 public:
  ContiguousBspExecutor(const CsrMatrix& permuted_lower,
                        index_t num_supersteps, int num_cores,
                        std::vector<offset_t> group_ptr);

  /// Folded team solve: thread q executes the row ranges of every original
  /// rank the fold's rank map assigns to q, per superstep. 1 <= team <=
  /// numThreads().
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int team) const;

  /// Tiled SpTRSM over the row ranges: same contract as
  /// BspExecutor::solveMultiRhsTiled.
  void solveMultiRhsTiled(std::span<const double> b, std::span<double> x,
                          const TileLayout& layout, SolveContext& ctx,
                          int team) const;

  std::unique_ptr<SolveContext> createContext() const {
    return std::make_unique<SolveContext>(num_threads_, lower_.rows());
  }

  int numThreads() const { return num_threads_; }
  index_t numSupersteps() const { return num_supersteps_; }

 private:
  /// The row ranges for `team`: folded member q's superstep-s work is a
  /// short list of contiguous row runs (one per surviving original rank,
  /// adjacent runs merged). Must implement the same rank map and
  /// concatenation order as Schedule::foldWith / foldThreadLists —
  /// test_elastic pins the implementations to each other. team ==
  /// numThreads() is the unfolded `full_` ranges.
  const detail::FoldedRanges& foldedPlan(int team) const;

  const CsrMatrix& lower_;
  index_t num_supersteps_ = 0;
  int num_threads_ = 0;
  std::vector<offset_t> group_ptr_;
  /// Per-(superstep, rank) nnz loads of the row ranges (superstep-major);
  /// feeds the fold rank maps.
  std::vector<core::weight_t> rank_loads_;
  /// The full-width ranges, one run per non-empty group.
  detail::FoldedRanges full_;
  detail::TeamPlanCache<detail::FoldedRanges> folded_;
};

}  // namespace sts::exec

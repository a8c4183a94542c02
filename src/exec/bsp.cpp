#include "exec/bsp.hpp"

#include <omp.h>

#include <numeric>
#include <stdexcept>

#include "exec/affinity.hpp"
#include "exec/row_kernels.hpp"
#include "exec/serial.hpp"
#include "fault/failpoint.hpp"
#include "obs/trace.hpp"

namespace sts::exec {

namespace detail {

/// The superstep walker, the one parallel region of both BSP executors
/// (§2.2's execution model): for s = 0 .. steps - 1, member t runs
/// step(t, s), its rows of superstep s, and then the team crosses the
/// context's barrier. Row sources and RHS shapes differ only in `step`.
///
/// Every `step` below captures the kernel's spans by value ([=, &rows]).
/// With [&] captures their addresses stay live across the row loop, and
/// GCC 12 then reloads col_idx's base from the stack on every nonzero of
/// the contiguous vector walk (seen in objdump); a prototype built that
/// way measured paper_sweep's solve time about 6% higher. Captured by
/// value, the nnz loop compiles to the same instructions as a region
/// written out by hand.
template <typename Step>
void superstepRegion(SolveContext& ctx, int team, index_t steps, Step step) {
  const std::span<const int> pin_set = ctx.pinnedCores();
  SpinBarrier& barrier = ctx.barrier_;
  omp_set_dynamic(0);
#pragma omp parallel num_threads(team)
  {
    const int t = omp_get_thread_num();
    {
      const ScopedPin pin(pin_set, t);
      ctx.notePin(pin);
      obs::StepTracer tracer(ctx.trace());
      int sense = barrier.initialSense();
      for (index_t s = 0; s < steps; ++s) {
        step(t, s);
        tracer.computeDone(static_cast<std::uint64_t>(s));
        if (team > 1) {
          barrier.wait(sense, team);
          tracer.waitDone(static_cast<std::uint64_t>(s));
        }
      }
    }
    if (t != 0) {
      ctx.memberDone();
    } else {
      ctx.awaitMembers(team);
    }
  }
}

}  // namespace detail

namespace {

using detail::FoldedLists;
using detail::FoldedRanges;
using detail::requireVectorSizes;

/// Row source of BspExecutor: member t's superstep-s vertices, in order.
template <typename RowFn>
void forEachRow(const FoldedLists& plan, int t, index_t s, RowFn row) {
  const auto& verts = plan.verts[static_cast<size_t>(t)];
  const auto& ptr = plan.step_ptr[static_cast<size_t>(t)];
  const auto end = static_cast<size_t>(ptr[static_cast<size_t>(s) + 1]);
  for (auto k = static_cast<size_t>(ptr[static_cast<size_t>(s)]); k < end;
       ++k) {
    row(verts[k]);
  }
}

/// Row source of ContiguousBspExecutor: member t's superstep-s row runs.
template <typename RowFn>
void forEachRow(const FoldedRanges& plan, int t, index_t s, RowFn row) {
  const size_t g = static_cast<size_t>(s) * static_cast<size_t>(plan.team) +
                   static_cast<size_t>(t);
  const auto end = static_cast<size_t>(plan.range_ptr[g + 1]);
  for (auto k = static_cast<size_t>(plan.range_ptr[g]); k < end; ++k) {
    const auto [lo, hi] = plan.ranges[k];
    for (index_t i = lo; i < hi; ++i) row(i);
  }
}

/// The vector shape: x = L^{-1} b, one computeRow per row.
template <typename Rows>
void walkVector(const CsrMatrix& lower, const Rows& rows,
                std::span<const double> b, std::span<double> x,
                SolveContext& ctx, int team, index_t steps) {
  const auto row_ptr = lower.rowPtr();
  const auto col_idx = lower.colIdx();
  const auto values = lower.values();
  detail::superstepRegion(ctx, team, steps, [=, &rows](int t, index_t s) {
    forEachRow(rows, t, s, [=](index_t i) {
      detail::computeRow(row_ptr, col_idx, values, b, x, i);
    });
    // Superstep latency-spike failpoint (delay actions only: a throw
    // escaping the omp region would terminate). A rank-filtered delay
    // here models a straggler thread stretching every barrier. It stays
    // out of the tile shape, so an armed delay never reaches coalesced
    // engine batches.
    STS_FAILPOINT_RANK("exec.superstep", t);
  });
}

/// The tile shape: per superstep, every tile of `tiles` in turn through
/// the register-blocked computeRowMultiTiled.
template <typename Rows>
void walkTiles(const CsrMatrix& lower, const Rows& rows,
               const TileViews& tiles, SolveContext& ctx, int team,
               index_t steps) {
  const auto row_ptr = lower.rowPtr();
  const auto col_idx = lower.colIdx();
  const auto values = lower.values();
  detail::superstepRegion(
      ctx, team, steps, [=, &rows, &tiles](int t, index_t s) {
        for (std::size_t k = 0; k < tiles.width.size(); ++k) {
          const auto bt = tiles.b[k];
          const auto xt = tiles.x[k];
          const auto w = tiles.width[k];
          forEachRow(rows, t, s, [=](index_t i) {
            detail::computeRowMultiTiled(row_ptr, col_idx, values, bt, xt,
                                         i, w);
          });
        }
      });
}

/// The (superstep, rank) row groups of `group_ptr` on `team` members:
/// member q's superstep-s runs concatenate the groups of every rank p with
/// rank_map[p] == q in ascending p, merging adjacent runs.
FoldedRanges foldRanges(std::span<const offset_t> group_ptr, index_t steps,
                        int width, int team, std::span<const int> rank_map) {
  // Inverted map: ranks of slot q in ascending order, so each superstep
  // is walked O(width) overall rather than O(team * width).
  std::vector<std::vector<int>> slot_ranks(static_cast<size_t>(team));
  for (int p = 0; p < width; ++p) {
    slot_ranks[static_cast<size_t>(rank_map[static_cast<size_t>(p)])]
        .push_back(p);
  }
  FoldedRanges plan;
  plan.team = team;
  plan.range_ptr.reserve(static_cast<size_t>(steps) *
                             static_cast<size_t>(team) + 1);
  plan.range_ptr.push_back(0);
  for (index_t s = 0; s < steps; ++s) {
    for (int q = 0; q < team; ++q) {
      for (const int p : slot_ranks[static_cast<size_t>(q)]) {
        const size_t g = static_cast<size_t>(s) * static_cast<size_t>(width) +
                         static_cast<size_t>(p);
        const auto lo = static_cast<index_t>(group_ptr[g]);
        const auto hi = static_cast<index_t>(group_ptr[g + 1]);
        if (lo == hi) continue;
        if (plan.range_ptr.back() !=
                static_cast<offset_t>(plan.ranges.size()) &&
            plan.ranges.back().second == lo) {
          plan.ranges.back().second = hi;  // merge adjacent runs
        } else {
          plan.ranges.emplace_back(lo, hi);
        }
      }
      plan.range_ptr.push_back(static_cast<offset_t>(plan.ranges.size()));
    }
  }
  return plan;
}

}  // namespace

BspExecutor::BspExecutor(const CsrMatrix& lower, const Schedule& schedule)
    : lower_(lower),
      num_threads_(schedule.numCores()),
      num_supersteps_(schedule.numSupersteps()) {
  requireSolvableLower(lower);
  if (schedule.numVertices() != lower.rows()) {
    throw std::invalid_argument("BspExecutor: schedule/matrix size mismatch");
  }
  full_.verts.resize(static_cast<size_t>(num_threads_));
  full_.step_ptr.resize(static_cast<size_t>(num_threads_));
  for (int t = 0; t < num_threads_; ++t) {
    auto& verts = full_.verts[static_cast<size_t>(t)];
    auto& ptr = full_.step_ptr[static_cast<size_t>(t)];
    ptr.push_back(0);
    for (index_t s = 0; s < num_supersteps_; ++s) {
      const auto group = schedule.group(s, t);
      verts.insert(verts.end(), group.begin(), group.end());
      ptr.push_back(static_cast<offset_t>(verts.size()));
    }
  }
  rank_loads_ = detail::threadListLoads(full_.verts, full_.step_ptr,
                                        num_supersteps_, lower.rowPtr());
  folded_.init(num_threads_, &full_);
}

const FoldedLists& BspExecutor::foldedPlan(int team) const {
  return folded_.get(team, [this](int t) {
    STS_TRACE_SPAN1("plan", "fold_build", "team", t);
    const auto map =
        core::foldRankMap(num_supersteps_, num_threads_, t, rank_loads_);
    return detail::foldThreadLists(full_.verts, full_.step_ptr,
                                   num_supersteps_, t, map);
  });
}

void BspExecutor::solve(std::span<const double> b, std::span<double> x,
                        SolveContext& ctx, int team) const {
  requireVectorSizes(lower_, b, x, "BspExecutor::solve");
  detail::requireTeamSize(team, num_threads_, "BspExecutor::solve");
  ctx.requireShape(team, lower_.rows(), "BspExecutor::solve");
  walkVector(lower_, foldedPlan(team), b, x, ctx, team, num_supersteps_);
}

void BspExecutor::solveMultiRhsTiled(std::span<const double> b,
                                     std::span<double> x,
                                     const TileLayout& layout,
                                     SolveContext& ctx, int team) const {
  requireTileShapes(lower_.rows(), layout, b, x,
                    "BspExecutor::solveMultiRhsTiled");
  detail::requireTeamSize(team, num_threads_,
                          "BspExecutor::solveMultiRhsTiled");
  ctx.requireShape(team, lower_.rows(), "BspExecutor::solveMultiRhsTiled");
  walkTiles(lower_, foldedPlan(team), makeTileViews(layout, b, x), ctx, team,
            num_supersteps_);
}

ContiguousBspExecutor::ContiguousBspExecutor(const CsrMatrix& permuted_lower,
                                             index_t num_supersteps,
                                             int num_cores,
                                             std::vector<offset_t> group_ptr)
    : lower_(permuted_lower),
      num_supersteps_(num_supersteps),
      num_threads_(num_cores),
      group_ptr_(std::move(group_ptr)) {
  requireSolvableLower(permuted_lower);
  const size_t groups = static_cast<size_t>(num_supersteps) *
                        static_cast<size_t>(num_cores);
  if (group_ptr_.size() != groups + 1 || group_ptr_.front() != 0 ||
      group_ptr_.back() != static_cast<offset_t>(permuted_lower.rows())) {
    throw std::invalid_argument("ContiguousBspExecutor: bad group_ptr");
  }
  // Group (s, p) covers a contiguous row range, so its load is one rowPtr
  // difference: the groups are already superstep-major in group_ptr_.
  const auto row_ptr = lower_.rowPtr();
  rank_loads_.resize(groups);
  for (size_t g = 0; g < groups; ++g) {
    const auto lo = static_cast<size_t>(group_ptr_[g]);
    const auto hi = static_cast<size_t>(group_ptr_[g + 1]);
    rank_loads_[g] = static_cast<core::weight_t>(row_ptr[hi] - row_ptr[lo]);
  }
  std::vector<int> identity(static_cast<size_t>(num_threads_));
  std::iota(identity.begin(), identity.end(), 0);
  full_ = foldRanges(group_ptr_, num_supersteps_, num_threads_, num_threads_,
                     identity);
  folded_.init(num_threads_, &full_);
}

const FoldedRanges& ContiguousBspExecutor::foldedPlan(int team) const {
  return folded_.get(team, [this](int t) {
    STS_TRACE_SPAN1("plan", "fold_build", "team", t);
    const auto map =
        core::foldRankMap(num_supersteps_, num_threads_, t, rank_loads_);
    return foldRanges(group_ptr_, num_supersteps_, num_threads_, t, map);
  });
}

void ContiguousBspExecutor::solve(std::span<const double> b,
                                  std::span<double> x, SolveContext& ctx,
                                  int team) const {
  requireVectorSizes(lower_, b, x, "ContiguousBspExecutor::solve");
  detail::requireTeamSize(team, num_threads_, "ContiguousBspExecutor::solve");
  ctx.requireShape(team, lower_.rows(), "ContiguousBspExecutor::solve");
  walkVector(lower_, foldedPlan(team), b, x, ctx, team, num_supersteps_);
}

void ContiguousBspExecutor::solveMultiRhsTiled(std::span<const double> b,
                                               std::span<double> x,
                                               const TileLayout& layout,
                                               SolveContext& ctx,
                                               int team) const {
  requireTileShapes(lower_.rows(), layout, b, x,
                    "ContiguousBspExecutor::solveMultiRhsTiled");
  detail::requireTeamSize(team, num_threads_,
                          "ContiguousBspExecutor::solveMultiRhsTiled");
  ctx.requireShape(team, lower_.rows(),
                   "ContiguousBspExecutor::solveMultiRhsTiled");
  walkTiles(lower_, foldedPlan(team), makeTileViews(layout, b, x), ctx, team,
            num_supersteps_);
}

}  // namespace sts::exec

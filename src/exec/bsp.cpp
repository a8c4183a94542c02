#include "exec/bsp.hpp"

#include <omp.h>

#include <stdexcept>

#include "exec/affinity.hpp"
#include "exec/row_kernels.hpp"
#include "exec/serial.hpp"
#include "fault/failpoint.hpp"
#include "obs/trace.hpp"

namespace sts::exec {

using detail::computeRow;
using detail::computeRowMulti;
using detail::requireVectorSizes;

BspExecutor::BspExecutor(const CsrMatrix& lower, const Schedule& schedule)
    : lower_(lower),
      num_threads_(schedule.numCores()),
      num_supersteps_(schedule.numSupersteps()),
      default_ctx_(schedule.numCores(), lower.rows()) {
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

const detail::FoldedLists& BspExecutor::foldedPlan(
    int team, core::FoldPolicy policy) const {
  return folded_.get(team, policy, [this](int t, core::FoldPolicy p) {
    STS_TRACE_SPAN1("plan", "fold_build", "team", t);
    const auto map =
        core::foldRankMap(num_supersteps_, num_threads_, t, p, rank_loads_);
    return detail::foldThreadLists(full_.verts, full_.step_ptr,
                                   num_supersteps_, t, map);
  });
}

void BspExecutor::solve(std::span<const double> b, std::span<double> x,
                        SolveContext& ctx, int team,
                        core::FoldPolicy policy) const {
  requireVectorSizes(lower_, b, x, 1, "BspExecutor::solve");
  detail::requireTeamSize(team, num_threads_, "BspExecutor::solve");
  ctx.requireShape(team, lower_.rows(), "BspExecutor::solve");
  const detail::FoldedLists& plan = foldedPlan(team, policy);
  const auto row_ptr = lower_.rowPtr();
  const auto col_idx = lower_.colIdx();
  const auto values = lower_.values();
  const index_t steps = num_supersteps_;
  const bool sync = team > 1;
  const std::span<const int> pin_set = ctx.pinnedCores();
  SpinBarrier& barrier = ctx.barrier_;

  omp_set_dynamic(0);
#pragma omp parallel num_threads(team)
  {
    const auto t = static_cast<size_t>(omp_get_thread_num());
    const ScopedPin pin(pin_set, static_cast<int>(t));
    ctx.notePin(pin);
    obs::StepTracer tracer(ctx.trace());
    int sense = barrier.initialSense();
    const auto& verts = plan.verts[t];
    const auto& ptr = plan.step_ptr[t];
    for (index_t s = 0; s < steps; ++s) {
      const auto begin = static_cast<size_t>(ptr[static_cast<size_t>(s)]);
      const auto end = static_cast<size_t>(ptr[static_cast<size_t>(s) + 1]);
      for (size_t k = begin; k < end; ++k) {
        computeRow(row_ptr, col_idx, values, b, x, verts[k]);
      }
      // Superstep latency-spike failpoint (delay actions only: a throw
      // escaping this omp region would terminate). A rank-filtered delay
      // here models a straggler thread stretching every barrier.
      STS_FAILPOINT_RANK("exec.superstep", t);
      tracer.computeDone(static_cast<std::uint64_t>(s));
      if (sync) {
        barrier.wait(sense, team);
        tracer.waitDone(static_cast<std::uint64_t>(s));
      }
    }
  }
}

void BspExecutor::solve(std::span<const double> b, std::span<double> x,
                        SolveContext& ctx, int team) const {
  solve(b, x, ctx, team, core::FoldPolicy::kModulo);
}

void BspExecutor::solve(std::span<const double> b, std::span<double> x,
                        SolveContext& ctx) const {
  solve(b, x, ctx, num_threads_, core::FoldPolicy::kModulo);
}

void BspExecutor::solve(std::span<const double> b, std::span<double> x) const {
  solve(b, x, default_ctx_, num_threads_, core::FoldPolicy::kModulo);
}

void BspExecutor::solveMultiRhs(std::span<const double> b,
                                std::span<double> x, index_t nrhs,
                                SolveContext& ctx, int team,
                                core::FoldPolicy policy) const {
  requireVectorSizes(lower_, b, x, nrhs, "BspExecutor::solveMultiRhs");
  detail::requireTeamSize(team, num_threads_, "BspExecutor::solveMultiRhs");
  ctx.requireShape(team, lower_.rows(), "BspExecutor::solveMultiRhs");
  const detail::FoldedLists& plan = foldedPlan(team, policy);
  const auto row_ptr = lower_.rowPtr();
  const auto col_idx = lower_.colIdx();
  const auto values = lower_.values();
  const index_t steps = num_supersteps_;
  const bool sync = team > 1;
  const auto r = static_cast<size_t>(nrhs);
  const std::span<const int> pin_set = ctx.pinnedCores();
  SpinBarrier& barrier = ctx.barrier_;

  omp_set_dynamic(0);
#pragma omp parallel num_threads(team)
  {
    const auto t = static_cast<size_t>(omp_get_thread_num());
    const ScopedPin pin(pin_set, static_cast<int>(t));
    ctx.notePin(pin);
    obs::StepTracer tracer(ctx.trace());
    int sense = barrier.initialSense();
    const auto& verts = plan.verts[t];
    const auto& ptr = plan.step_ptr[t];
    for (index_t s = 0; s < steps; ++s) {
      const auto begin = static_cast<size_t>(ptr[static_cast<size_t>(s)]);
      const auto end = static_cast<size_t>(ptr[static_cast<size_t>(s) + 1]);
      for (size_t k = begin; k < end; ++k) {
        computeRowMulti(row_ptr, col_idx, values, b, x, verts[k], r);
      }
      tracer.computeDone(static_cast<std::uint64_t>(s));
      if (sync) {
        barrier.wait(sense, team);
        tracer.waitDone(static_cast<std::uint64_t>(s));
      }
    }
  }
}

void BspExecutor::solveMultiRhsTiled(std::span<const double> b,
                                     std::span<double> x,
                                     const TileLayout& layout,
                                     SolveContext& ctx, int team,
                                     core::FoldPolicy policy) const {
  requireTileShapes(lower_.rows(), layout, b, x,
                    "BspExecutor::solveMultiRhsTiled");
  detail::requireTeamSize(team, num_threads_,
                          "BspExecutor::solveMultiRhsTiled");
  ctx.requireShape(team, lower_.rows(), "BspExecutor::solveMultiRhsTiled");
  const detail::FoldedLists& plan = foldedPlan(team, policy);
  const auto row_ptr = lower_.rowPtr();
  const auto col_idx = lower_.colIdx();
  const auto values = lower_.values();
  const index_t steps = num_supersteps_;
  const bool sync = team > 1;
  const TileViews tiles = makeTileViews(layout, b, x);
  const std::size_t ntiles = tiles.width.size();
  const std::span<const int> pin_set = ctx.pinnedCores();
  SpinBarrier& barrier = ctx.barrier_;

  omp_set_dynamic(0);
#pragma omp parallel num_threads(team)
  {
    const auto t = static_cast<size_t>(omp_get_thread_num());
    const ScopedPin pin(pin_set, static_cast<int>(t));
    ctx.notePin(pin);
    obs::StepTracer tracer(ctx.trace());
    int sense = barrier.initialSense();
    const auto& verts = plan.verts[t];
    const auto& ptr = plan.step_ptr[t];
    for (index_t s = 0; s < steps; ++s) {
      const auto begin = static_cast<size_t>(ptr[static_cast<size_t>(s)]);
      const auto end = static_cast<size_t>(ptr[static_cast<size_t>(s) + 1]);
      for (std::size_t tk = 0; tk < ntiles; ++tk) {
        const auto bt = tiles.b[tk];
        const auto xt = tiles.x[tk];
        const auto w = tiles.width[tk];
        for (size_t k = begin; k < end; ++k) {
          detail::computeRowMultiTiled(row_ptr, col_idx, values, bt, xt,
                                       verts[k], w);
        }
      }
      tracer.computeDone(static_cast<std::uint64_t>(s));
      if (sync) {
        barrier.wait(sense, team);
        tracer.waitDone(static_cast<std::uint64_t>(s));
      }
    }
  }
}

void BspExecutor::solveMultiRhs(std::span<const double> b,
                                std::span<double> x, index_t nrhs,
                                SolveContext& ctx, int team) const {
  solveMultiRhs(b, x, nrhs, ctx, team, core::FoldPolicy::kModulo);
}

void BspExecutor::solveMultiRhs(std::span<const double> b,
                                std::span<double> x, index_t nrhs,
                                SolveContext& ctx) const {
  solveMultiRhs(b, x, nrhs, ctx, num_threads_, core::FoldPolicy::kModulo);
}

void BspExecutor::solveMultiRhs(std::span<const double> b,
                                std::span<double> x, index_t nrhs) const {
  solveMultiRhs(b, x, nrhs, default_ctx_, num_threads_,
                core::FoldPolicy::kModulo);
}

ContiguousBspExecutor::ContiguousBspExecutor(const CsrMatrix& permuted_lower,
                                             index_t num_supersteps,
                                             int num_cores,
                                             std::vector<offset_t> group_ptr)
    : lower_(permuted_lower),
      num_supersteps_(num_supersteps),
      num_threads_(num_cores),
      group_ptr_(std::move(group_ptr)),
      default_ctx_(num_cores, permuted_lower.rows()) {
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
  folded_.init(num_threads_);
}

const ContiguousBspExecutor::FoldedRanges&
ContiguousBspExecutor::foldedPlan(int team, core::FoldPolicy policy) const {
  return folded_.get(team, policy, [this](int t, core::FoldPolicy pol) {
    STS_TRACE_SPAN1("plan", "fold_build", "team", t);
    const auto map =
        core::foldRankMap(num_supersteps_, num_threads_, t, pol, rank_loads_);
    // Inverted map: ranks of slot q in ascending order, so each superstep
    // is walked O(numThreads()) overall rather than O(t * numThreads()).
    std::vector<std::vector<int>> slot_ranks(static_cast<size_t>(t));
    for (int p = 0; p < num_threads_; ++p) {
      slot_ranks[static_cast<size_t>(map[static_cast<size_t>(p)])]
          .push_back(p);
    }
    FoldedRanges plan;
    plan.range_ptr.reserve(static_cast<size_t>(num_supersteps_) *
                               static_cast<size_t>(t) + 1);
    plan.range_ptr.push_back(0);
    for (index_t s = 0; s < num_supersteps_; ++s) {
      for (int q = 0; q < t; ++q) {
        for (const int p : slot_ranks[static_cast<size_t>(q)]) {
          const size_t g = static_cast<size_t>(s) *
                               static_cast<size_t>(num_threads_) +
                           static_cast<size_t>(p);
          const auto lo = static_cast<index_t>(group_ptr_[g]);
          const auto hi = static_cast<index_t>(group_ptr_[g + 1]);
          if (lo == hi) continue;
          if (!plan.ranges.empty() &&
              plan.range_ptr.back() !=
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
  });
}

void ContiguousBspExecutor::solve(std::span<const double> b,
                                  std::span<double> x, SolveContext& ctx,
                                  int team, core::FoldPolicy policy) const {
  requireVectorSizes(lower_, b, x, 1, "ContiguousBspExecutor::solve");
  detail::requireTeamSize(team, num_threads_, "ContiguousBspExecutor::solve");
  ctx.requireShape(team, lower_.rows(), "ContiguousBspExecutor::solve");
  const auto row_ptr = lower_.rowPtr();
  const auto col_idx = lower_.colIdx();
  const auto values = lower_.values();
  const index_t steps = num_supersteps_;
  const bool sync = team > 1;
  const std::span<const int> pin_set = ctx.pinnedCores();
  SpinBarrier& barrier = ctx.barrier_;

  omp_set_dynamic(0);
  if (team == num_threads_) {
    const int cores = num_threads_;
#pragma omp parallel num_threads(cores)
    {
      const int t = omp_get_thread_num();
      const ScopedPin pin(pin_set, t);
      ctx.notePin(pin);
      obs::StepTracer tracer(ctx.trace());
      int sense = barrier.initialSense();
      for (index_t s = 0; s < steps; ++s) {
        const size_t g = static_cast<size_t>(s) * static_cast<size_t>(cores) +
                         static_cast<size_t>(t);
        const auto lo = static_cast<index_t>(group_ptr_[g]);
        const auto hi = static_cast<index_t>(group_ptr_[g + 1]);
        for (index_t i = lo; i < hi; ++i) {
          computeRow(row_ptr, col_idx, values, b, x, i);
        }
        // Superstep latency-spike failpoint (delay actions only; a throw
        // escaping this omp region would terminate the process).
        STS_FAILPOINT_RANK("exec.superstep", t);
        tracer.computeDone(static_cast<std::uint64_t>(s));
        if (sync) {
          barrier.wait(sense, team);
          tracer.waitDone(static_cast<std::uint64_t>(s));
        }
      }
    }
    return;
  }

  const FoldedRanges& plan = foldedPlan(team, policy);
#pragma omp parallel num_threads(team)
  {
    const int t = omp_get_thread_num();
    const ScopedPin pin(pin_set, t);
    ctx.notePin(pin);
    obs::StepTracer tracer(ctx.trace());
    int sense = barrier.initialSense();
    for (index_t s = 0; s < steps; ++s) {
      const size_t g = static_cast<size_t>(s) * static_cast<size_t>(team) +
                       static_cast<size_t>(t);
      const auto begin = static_cast<size_t>(plan.range_ptr[g]);
      const auto end = static_cast<size_t>(plan.range_ptr[g + 1]);
      for (size_t k = begin; k < end; ++k) {
        const auto [lo, hi] = plan.ranges[k];
        for (index_t i = lo; i < hi; ++i) {
          computeRow(row_ptr, col_idx, values, b, x, i);
        }
      }
      STS_FAILPOINT_RANK("exec.superstep", t);
      tracer.computeDone(static_cast<std::uint64_t>(s));
      if (sync) {
        barrier.wait(sense, team);
        tracer.waitDone(static_cast<std::uint64_t>(s));
      }
    }
  }
}

void ContiguousBspExecutor::solve(std::span<const double> b,
                                  std::span<double> x, SolveContext& ctx,
                                  int team) const {
  solve(b, x, ctx, team, core::FoldPolicy::kModulo);
}

void ContiguousBspExecutor::solve(std::span<const double> b,
                                  std::span<double> x,
                                  SolveContext& ctx) const {
  solve(b, x, ctx, num_threads_, core::FoldPolicy::kModulo);
}

void ContiguousBspExecutor::solve(std::span<const double> b,
                                  std::span<double> x) const {
  solve(b, x, default_ctx_, num_threads_, core::FoldPolicy::kModulo);
}

void ContiguousBspExecutor::solveMultiRhs(std::span<const double> b,
                                          std::span<double> x, index_t nrhs,
                                          SolveContext& ctx, int team,
                                          core::FoldPolicy policy) const {
  requireVectorSizes(lower_, b, x, nrhs,
                     "ContiguousBspExecutor::solveMultiRhs");
  detail::requireTeamSize(team, num_threads_,
                          "ContiguousBspExecutor::solveMultiRhs");
  ctx.requireShape(team, lower_.rows(),
                   "ContiguousBspExecutor::solveMultiRhs");
  const auto row_ptr = lower_.rowPtr();
  const auto col_idx = lower_.colIdx();
  const auto values = lower_.values();
  const index_t steps = num_supersteps_;
  const bool sync = team > 1;
  const auto r = static_cast<size_t>(nrhs);
  const std::span<const int> pin_set = ctx.pinnedCores();
  SpinBarrier& barrier = ctx.barrier_;

  omp_set_dynamic(0);
  if (team == num_threads_) {
    const int cores = num_threads_;
#pragma omp parallel num_threads(cores)
    {
      const int t = omp_get_thread_num();
      const ScopedPin pin(pin_set, t);
      ctx.notePin(pin);
      obs::StepTracer tracer(ctx.trace());
      int sense = barrier.initialSense();
      for (index_t s = 0; s < steps; ++s) {
        const size_t g = static_cast<size_t>(s) * static_cast<size_t>(cores) +
                         static_cast<size_t>(t);
        const auto lo = static_cast<index_t>(group_ptr_[g]);
        const auto hi = static_cast<index_t>(group_ptr_[g + 1]);
        for (index_t i = lo; i < hi; ++i) {
          computeRowMulti(row_ptr, col_idx, values, b, x, i, r);
        }
        tracer.computeDone(static_cast<std::uint64_t>(s));
        if (sync) {
          barrier.wait(sense, team);
          tracer.waitDone(static_cast<std::uint64_t>(s));
        }
      }
    }
    return;
  }

  const FoldedRanges& plan = foldedPlan(team, policy);
#pragma omp parallel num_threads(team)
  {
    const int t = omp_get_thread_num();
    const ScopedPin pin(pin_set, t);
    ctx.notePin(pin);
    obs::StepTracer tracer(ctx.trace());
    int sense = barrier.initialSense();
    for (index_t s = 0; s < steps; ++s) {
      const size_t g = static_cast<size_t>(s) * static_cast<size_t>(team) +
                       static_cast<size_t>(t);
      const auto begin = static_cast<size_t>(plan.range_ptr[g]);
      const auto end = static_cast<size_t>(plan.range_ptr[g + 1]);
      for (size_t k = begin; k < end; ++k) {
        const auto [lo, hi] = plan.ranges[k];
        for (index_t i = lo; i < hi; ++i) {
          computeRowMulti(row_ptr, col_idx, values, b, x, i, r);
        }
      }
      tracer.computeDone(static_cast<std::uint64_t>(s));
      if (sync) {
        barrier.wait(sense, team);
        tracer.waitDone(static_cast<std::uint64_t>(s));
      }
    }
  }
}

void ContiguousBspExecutor::solveMultiRhsTiled(std::span<const double> b,
                                               std::span<double> x,
                                               const TileLayout& layout,
                                               SolveContext& ctx, int team,
                                               core::FoldPolicy policy) const {
  requireTileShapes(lower_.rows(), layout, b, x,
                    "ContiguousBspExecutor::solveMultiRhsTiled");
  detail::requireTeamSize(team, num_threads_,
                          "ContiguousBspExecutor::solveMultiRhsTiled");
  ctx.requireShape(team, lower_.rows(),
                   "ContiguousBspExecutor::solveMultiRhsTiled");
  const auto row_ptr = lower_.rowPtr();
  const auto col_idx = lower_.colIdx();
  const auto values = lower_.values();
  const index_t steps = num_supersteps_;
  const bool sync = team > 1;
  const TileViews tiles = makeTileViews(layout, b, x);
  const std::size_t ntiles = tiles.width.size();
  const std::span<const int> pin_set = ctx.pinnedCores();
  SpinBarrier& barrier = ctx.barrier_;

  omp_set_dynamic(0);
  if (team == num_threads_) {
    const int cores = num_threads_;
#pragma omp parallel num_threads(cores)
    {
      const int t = omp_get_thread_num();
      const ScopedPin pin(pin_set, t);
      ctx.notePin(pin);
      obs::StepTracer tracer(ctx.trace());
      int sense = barrier.initialSense();
      for (index_t s = 0; s < steps; ++s) {
        const size_t g = static_cast<size_t>(s) * static_cast<size_t>(cores) +
                         static_cast<size_t>(t);
        const auto lo = static_cast<index_t>(group_ptr_[g]);
        const auto hi = static_cast<index_t>(group_ptr_[g + 1]);
        for (std::size_t tk = 0; tk < ntiles; ++tk) {
          const auto bt = tiles.b[tk];
          const auto xt = tiles.x[tk];
          const auto w = tiles.width[tk];
          for (index_t i = lo; i < hi; ++i) {
            detail::computeRowMultiTiled(row_ptr, col_idx, values, bt, xt, i,
                                         w);
          }
        }
        tracer.computeDone(static_cast<std::uint64_t>(s));
        if (sync) {
          barrier.wait(sense, team);
          tracer.waitDone(static_cast<std::uint64_t>(s));
        }
      }
    }
    return;
  }

  const FoldedRanges& plan = foldedPlan(team, policy);
#pragma omp parallel num_threads(team)
  {
    const int t = omp_get_thread_num();
    const ScopedPin pin(pin_set, t);
    ctx.notePin(pin);
    obs::StepTracer tracer(ctx.trace());
    int sense = barrier.initialSense();
    for (index_t s = 0; s < steps; ++s) {
      const size_t g = static_cast<size_t>(s) * static_cast<size_t>(team) +
                       static_cast<size_t>(t);
      const auto begin = static_cast<size_t>(plan.range_ptr[g]);
      const auto end = static_cast<size_t>(plan.range_ptr[g + 1]);
      for (std::size_t tk = 0; tk < ntiles; ++tk) {
        const auto bt = tiles.b[tk];
        const auto xt = tiles.x[tk];
        const auto w = tiles.width[tk];
        for (size_t k = begin; k < end; ++k) {
          const auto [lo, hi] = plan.ranges[k];
          for (index_t i = lo; i < hi; ++i) {
            detail::computeRowMultiTiled(row_ptr, col_idx, values, bt, xt, i,
                                         w);
          }
        }
      }
      tracer.computeDone(static_cast<std::uint64_t>(s));
      if (sync) {
        barrier.wait(sense, team);
        tracer.waitDone(static_cast<std::uint64_t>(s));
      }
    }
  }
}

void ContiguousBspExecutor::solveMultiRhs(std::span<const double> b,
                                          std::span<double> x, index_t nrhs,
                                          SolveContext& ctx, int team) const {
  solveMultiRhs(b, x, nrhs, ctx, team, core::FoldPolicy::kModulo);
}

void ContiguousBspExecutor::solveMultiRhs(std::span<const double> b,
                                          std::span<double> x, index_t nrhs,
                                          SolveContext& ctx) const {
  solveMultiRhs(b, x, nrhs, ctx, num_threads_, core::FoldPolicy::kModulo);
}

void ContiguousBspExecutor::solveMultiRhs(std::span<const double> b,
                                          std::span<double> x,
                                          index_t nrhs) const {
  solveMultiRhs(b, x, nrhs, default_ctx_, num_threads_,
                core::FoldPolicy::kModulo);
}

}  // namespace sts::exec

#include "exec/p2p.hpp"

#include <omp.h>

#include <numeric>
#include <stdexcept>

#include "exec/affinity.hpp"
#include "exec/row_kernels.hpp"
#include "exec/serial.hpp"
#include "exec/spin_barrier.hpp"
#include "obs/trace.hpp"

namespace sts::exec {

namespace {

/// Re-establishes the team-join happens-before edge through atomics after
/// a P2P region. The OpenMP implicit barrier already joined the team, but
/// libgomp's futex-based barrier is invisible to ThreadSanitizer (it is
/// not TSan-instrumented), so the caller's reads of x would appear to race
/// with worker writes. Each thread's final completion-flag store is a
/// release covering all of its x writes; acquiring those flags here — they
/// are already set, so the loops do not spin — rebuilds the same edge in
/// TSan's model. The BSP paths need no equivalent: their last superstep
/// ends on SpinBarrier, whose atomics TSan sees.
void acquireTeamWrites(const detail::FoldedLists& plan,
                       const std::atomic<std::uint32_t>* done,
                       std::uint32_t epoch) {
  for (const auto& verts : plan.verts) {
    if (verts.empty()) continue;
    while (done[static_cast<size_t>(verts.back())].load(
               std::memory_order_acquire) != epoch) {
    }
  }
}

}  // namespace

P2pExecutor::P2pExecutor(const CsrMatrix& lower, const Schedule& schedule,
                         const Dag& sync_dag)
    : lower_(lower),
      num_threads_(schedule.numCores()),
      num_supersteps_(schedule.numSupersteps()),
      default_ctx_(schedule.numCores(), lower.rows()) {
  requireSolvableLower(lower);
  const index_t n = lower.rows();
  if (schedule.numVertices() != n || sync_dag.numVertices() != n) {
    throw std::invalid_argument("P2pExecutor: size mismatch");
  }

  full_.verts.resize(static_cast<size_t>(num_threads_));
  full_.step_ptr.resize(static_cast<size_t>(num_threads_));
  for (int t = 0; t < num_threads_; ++t) {
    auto& verts = full_.verts[static_cast<size_t>(t)];
    auto& ptr = full_.step_ptr[static_cast<size_t>(t)];
    ptr.push_back(0);
    for (index_t s = 0; s < schedule.numSupersteps(); ++s) {
      const auto group = schedule.group(s, t);
      verts.insert(verts.end(), group.begin(), group.end());
      ptr.push_back(static_cast<offset_t>(verts.size()));
    }
  }
  rank_loads_ = detail::threadListLoads(full_.verts, full_.step_ptr,
                                        num_supersteps_, lower.rowPtr());
  folded_.init(num_threads_, &full_);

  // Cross-thread parents in the sync DAG, flattened per vertex.
  wait_ptr_.assign(static_cast<size_t>(n) + 1, 0);
  for (index_t v = 0; v < n; ++v) {
    offset_t cnt = 0;
    for (const index_t u : sync_dag.parents(v)) {
      cnt += (schedule.coreOf(u) != schedule.coreOf(v)) ? 1 : 0;
    }
    wait_ptr_[static_cast<size_t>(v) + 1] = cnt;
  }
  std::partial_sum(wait_ptr_.begin(), wait_ptr_.end(), wait_ptr_.begin());
  wait_adj_.resize(static_cast<size_t>(wait_ptr_.back()));
  {
    offset_t k = 0;
    for (index_t v = 0; v < n; ++v) {
      for (const index_t u : sync_dag.parents(v)) {
        if (schedule.coreOf(u) != schedule.coreOf(v)) {
          wait_adj_[static_cast<size_t>(k++)] = u;
        }
      }
    }
  }
  cross_deps_ = wait_ptr_.back();
}

const detail::FoldedLists& P2pExecutor::foldedPlan(
    int team, core::FoldPolicy policy) const {
  return folded_.get(team, policy, [this](int t, core::FoldPolicy p) {
    STS_TRACE_SPAN1("plan", "fold_build", "team", t);
    const auto map =
        core::foldRankMap(num_supersteps_, num_threads_, t, p, rank_loads_);
    return detail::foldThreadLists(full_.verts, full_.step_ptr,
                                   num_supersteps_, t, map);
  });
}

void P2pExecutor::solve(std::span<const double> b, std::span<double> x,
                        SolveContext& ctx, int team,
                        core::FoldPolicy policy) const {
  detail::requireVectorSizes(lower_, b, x, 1, "P2pExecutor::solve");
  detail::requireTeamSize(team, num_threads_, "P2pExecutor::solve");
  ctx.requireShape(team, lower_.rows(), "P2pExecutor::solve");
  const detail::FoldedLists& plan = foldedPlan(team, policy);
  const auto row_ptr = lower_.rowPtr();
  const auto col_idx = lower_.colIdx();
  const auto values = lower_.values();
  const std::uint32_t epoch = ctx.beginP2pEpoch();
  const std::span<const int> pin_set = ctx.pinnedCores();
  std::atomic<std::uint32_t>* const done = ctx.done_.get();

  // A dynamically shrunk team would strand the spin-waits on vertices of
  // the missing threads; pin the team size like the BSP paths do.
  omp_set_dynamic(0);
#pragma omp parallel num_threads(team)
  {
    const auto t = static_cast<size_t>(omp_get_thread_num());
    const ScopedPin pin(pin_set, static_cast<int>(t));
    ctx.notePin(pin);
    obs::StepTracer tracer(ctx.trace());
    const auto& verts = plan.verts[t];
    for (const index_t i : verts) {
      // Wait for cross-thread dependencies (sparsified by the reduction).
      // Under a folded team some of these sources live on this very
      // thread, earlier in the list — their flags are already set.
      for (offset_t k = wait_ptr_[static_cast<size_t>(i)];
           k < wait_ptr_[static_cast<size_t>(i) + 1]; ++k) {
        const auto u = static_cast<size_t>(wait_adj_[static_cast<size_t>(k)]);
        if (done[u].load(std::memory_order_acquire) != epoch) {
          tracer.spinBegin();
          spinUntil([&] {
            return done[u].load(std::memory_order_acquire) == epoch;
          });
          tracer.spinEnd(static_cast<std::uint64_t>(i));
        }
      }
      detail::computeRow(row_ptr, col_idx, values, b, x, i);
      done[static_cast<size_t>(i)].store(epoch, std::memory_order_release);
    }
    tracer.finishP2p(static_cast<std::uint64_t>(num_supersteps_));
  }
  acquireTeamWrites(plan, done, epoch);
}

void P2pExecutor::solve(std::span<const double> b, std::span<double> x,
                        SolveContext& ctx, int team) const {
  solve(b, x, ctx, team, core::FoldPolicy::kModulo);
}

void P2pExecutor::solve(std::span<const double> b, std::span<double> x,
                        SolveContext& ctx) const {
  solve(b, x, ctx, num_threads_);
}

void P2pExecutor::solve(std::span<const double> b, std::span<double> x) const {
  solve(b, x, default_ctx_, num_threads_);
}

void P2pExecutor::solveMultiRhs(std::span<const double> b,
                                std::span<double> x, index_t nrhs,
                                SolveContext& ctx, int team,
                                core::FoldPolicy policy) const {
  detail::requireVectorSizes(lower_, b, x, nrhs, "P2pExecutor::solveMultiRhs");
  detail::requireTeamSize(team, num_threads_, "P2pExecutor::solveMultiRhs");
  ctx.requireShape(team, lower_.rows(), "P2pExecutor::solveMultiRhs");
  const detail::FoldedLists& plan = foldedPlan(team, policy);
  const auto row_ptr = lower_.rowPtr();
  const auto col_idx = lower_.colIdx();
  const auto values = lower_.values();
  const auto r = static_cast<size_t>(nrhs);
  const std::uint32_t epoch = ctx.beginP2pEpoch();
  const std::span<const int> pin_set = ctx.pinnedCores();
  std::atomic<std::uint32_t>* const done = ctx.done_.get();

  // A dynamically shrunk team would strand the spin-waits on vertices of
  // the missing threads; pin the team size like the BSP paths do.
  omp_set_dynamic(0);
#pragma omp parallel num_threads(team)
  {
    const auto t = static_cast<size_t>(omp_get_thread_num());
    const ScopedPin pin(pin_set, static_cast<int>(t));
    ctx.notePin(pin);
    obs::StepTracer tracer(ctx.trace());
    const auto& verts = plan.verts[t];
    for (const index_t i : verts) {
      for (offset_t k = wait_ptr_[static_cast<size_t>(i)];
           k < wait_ptr_[static_cast<size_t>(i) + 1]; ++k) {
        const auto u = static_cast<size_t>(wait_adj_[static_cast<size_t>(k)]);
        if (done[u].load(std::memory_order_acquire) != epoch) {
          tracer.spinBegin();
          spinUntil([&] {
            return done[u].load(std::memory_order_acquire) == epoch;
          });
          tracer.spinEnd(static_cast<std::uint64_t>(i));
        }
      }
      detail::computeRowMulti(row_ptr, col_idx, values, b, x, i, r);
      done[static_cast<size_t>(i)].store(epoch, std::memory_order_release);
    }
    tracer.finishP2p(static_cast<std::uint64_t>(num_supersteps_));
  }
  acquireTeamWrites(plan, done, epoch);
}

void P2pExecutor::solveMultiRhsTiled(std::span<const double> b,
                                     std::span<double> x,
                                     const TileLayout& layout,
                                     SolveContext& ctx, int team,
                                     core::FoldPolicy policy) const {
  requireTileShapes(lower_.rows(), layout, b, x,
                    "P2pExecutor::solveMultiRhsTiled");
  detail::requireTeamSize(team, num_threads_,
                          "P2pExecutor::solveMultiRhsTiled");
  ctx.requireShape(team, lower_.rows(), "P2pExecutor::solveMultiRhsTiled");
  // One full pass per tile, each under its own epoch: the flags cannot
  // track partial-tile completion, and re-resolving the (sparsified)
  // dependency structure per tile is the price of the cache-resident tile.
  const index_t ntiles = layout.numTiles();
  for (index_t t = 0; t < ntiles; ++t) {
    const auto bt = layout.tileSpan(b, t);
    const auto xt = layout.tileSpan(x, t);
    const auto w = static_cast<std::size_t>(layout.tileWidth(t));
    solveTileCsrPass(bt, xt, w, ctx, team, policy);
  }
}

void P2pExecutor::solveTileCsrPass(std::span<const double> b_tile,
                                   std::span<double> x_tile, std::size_t w,
                                   SolveContext& ctx, int team,
                                   core::FoldPolicy policy) const {
  const detail::FoldedLists& plan = foldedPlan(team, policy);
  const auto row_ptr = lower_.rowPtr();
  const auto col_idx = lower_.colIdx();
  const auto values = lower_.values();
  const std::uint32_t epoch = ctx.beginP2pEpoch();
  const std::span<const int> pin_set = ctx.pinnedCores();
  std::atomic<std::uint32_t>* const done = ctx.done_.get();

  // A dynamically shrunk team would strand the spin-waits on vertices of
  // the missing threads; pin the team size like the BSP paths do.
  omp_set_dynamic(0);
#pragma omp parallel num_threads(team)
  {
    const auto t = static_cast<size_t>(omp_get_thread_num());
    const ScopedPin pin(pin_set, static_cast<int>(t));
    ctx.notePin(pin);
    obs::StepTracer tracer(ctx.trace());
    const auto& verts = plan.verts[t];
    for (const index_t i : verts) {
      for (offset_t k = wait_ptr_[static_cast<size_t>(i)];
           k < wait_ptr_[static_cast<size_t>(i) + 1]; ++k) {
        const auto u = static_cast<size_t>(wait_adj_[static_cast<size_t>(k)]);
        if (done[u].load(std::memory_order_acquire) != epoch) {
          tracer.spinBegin();
          spinUntil([&] {
            return done[u].load(std::memory_order_acquire) == epoch;
          });
          tracer.spinEnd(static_cast<std::uint64_t>(i));
        }
      }
      detail::computeRowMultiTiled(row_ptr, col_idx, values, b_tile, x_tile,
                                   i, w);
      done[static_cast<size_t>(i)].store(epoch, std::memory_order_release);
    }
    tracer.finishP2p(static_cast<std::uint64_t>(num_supersteps_));
  }
  acquireTeamWrites(plan, done, epoch);
}

void P2pExecutor::solveMultiRhs(std::span<const double> b,
                                std::span<double> x, index_t nrhs,
                                SolveContext& ctx, int team) const {
  solveMultiRhs(b, x, nrhs, ctx, team, core::FoldPolicy::kModulo);
}

void P2pExecutor::solveMultiRhs(std::span<const double> b,
                                std::span<double> x, index_t nrhs,
                                SolveContext& ctx) const {
  solveMultiRhs(b, x, nrhs, ctx, num_threads_);
}

void P2pExecutor::solveMultiRhs(std::span<const double> b,
                                std::span<double> x, index_t nrhs) const {
  solveMultiRhs(b, x, nrhs, default_ctx_, num_threads_);
}

}  // namespace sts::exec

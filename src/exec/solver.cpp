#include "exec/solver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/bsplist.hpp"
#include "baselines/hdagg.hpp"
#include "baselines/wavefront.hpp"
#include "check/check.hpp"
#include "core/coarsen.hpp"
#include "exec/gather.hpp"
#include "exec/serial.hpp"
#include "obs/trace.hpp"
#include "sparse/permute.hpp"

namespace sts::exec {

std::string schedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kGrowLocal: return "GrowLocal";
    case SchedulerKind::kFunnelGrowLocal: return "Funnel+GL";
    case SchedulerKind::kWavefront: return "Wavefront";
    case SchedulerKind::kHdagg: return "HDagg";
    case SchedulerKind::kSpmp: return "SpMP";
    case SchedulerKind::kBspList: return "BSPg";
    case SchedulerKind::kSerial: return "Serial";
  }
  return "?";
}

namespace {

/// dst[i] = src[map[i]]: one crossing of the internal order, on the
/// solve's team.
void gatherVector(std::span<const index_t> map, std::span<const double> src,
                  std::span<double> dst, SolveContext& ctx, int team) {
  const RowBlock block{src.data(), 1, dst.data(), 1, 1};
  gatherRows(map, {&block, 1}, ctx, team);
}

/// Throws unless `columns` holds layout.cols() vectors of `rows` doubles
/// and `tiled` is the packed buffer of an n == `rows` layout.
template <typename Column>
void requireColumnShapes(std::span<const Column> columns,
                         std::span<const double> tiled,
                         const TileLayout& layout, index_t rows,
                         const char* who) {
  bool ok = layout.rows() == rows && tiled.size() == layout.totalDoubles() &&
            columns.size() == static_cast<size_t>(layout.cols());
  for (const Column& column : columns) {
    ok = ok && column.size() == static_cast<size_t>(rows);
  }
  if (!ok) {
    throw std::invalid_argument(std::string(who) +
                                ": column/tile layout size mismatch");
  }
}

/// The schedule of `dag` by the scheduler `options` selects. A kSpmp run
/// also leaves its result in `spmp`: the P2P executor needs its reduced DAG.
core::Schedule runScheduler(const dag::Dag& dag, const SolverOptions& options,
                            const core::GrowLocalOptions& gl,
                            std::optional<baselines::SpmpResult>& spmp) {
  switch (options.scheduler) {
    case SchedulerKind::kGrowLocal:
      if (options.num_schedule_blocks > 1) {
        core::BlockScheduleOptions block;
        block.num_blocks = options.num_schedule_blocks;
        block.growlocal = gl;
        return core::blockGrowLocalSchedule(dag, block);
      }
      return core::growLocalSchedule(dag, gl);
    case SchedulerKind::kFunnelGrowLocal:
      return core::funnelGrowLocalSchedule(dag, gl);
    case SchedulerKind::kWavefront:
      return baselines::wavefrontSchedule(
          dag, baselines::WavefrontOptions{.num_cores = options.num_threads});
    case SchedulerKind::kHdagg: {
      baselines::HdaggOptions ho;
      ho.num_cores = options.num_threads;
      return baselines::hdaggSchedule(dag, ho);
    }
    case SchedulerKind::kSpmp: {
      baselines::SpmpOptions so;
      so.num_cores = options.num_threads;
      spmp = baselines::spmpSchedule(dag, so);
      return spmp->schedule;
    }
    case SchedulerKind::kBspList:
      return baselines::bspListSchedule(
          dag, baselines::BspListOptions{.num_cores = options.num_threads});
    case SchedulerKind::kSerial:
      return core::Schedule::serial(dag);
  }
  throw std::invalid_argument("TriangularSolver: unknown scheduler kind");
}

}  // namespace

TriangularSolver TriangularSolver::analyze(const CsrMatrix& matrix,
                                           const SolverOptions& options) {
  using Clock = std::chrono::high_resolution_clock;
  if (options.num_threads <= 0) {
    throw std::invalid_argument("TriangularSolver: num_threads must be > 0");
  }
  STS_TRACE_SPAN1("plan", "analyze", "rows",
                  static_cast<std::uint64_t>(matrix.rows()));
  TriangularSolver solver;
  solver.n_ = matrix.rows();
  solver.options_ = options;
  const bool reorder = options.reorder &&
                       options.scheduler != SchedulerKind::kSpmp &&
                       options.scheduler != SchedulerKind::kSerial;

  // Normalize to a lower triangular system. A lower input that the §5
  // reordering will replace is read in place rather than copied.
  if (matrix.isLowerTriangular()) {
    if (!reorder) solver.matrix_ = std::make_shared<const CsrMatrix>(matrix);
    solver.total_new_to_old_ = sparse::identityPermutation(matrix.rows());
  } else if (matrix.isUpperTriangular()) {
    std::vector<index_t> reversal(static_cast<size_t>(matrix.rows()));
    for (index_t i = 0; i < matrix.rows(); ++i) {
      reversal[static_cast<size_t>(i)] = matrix.rows() - 1 - i;
    }
    solver.matrix_ = std::make_shared<const CsrMatrix>(
        matrix.symmetricPermuted(reversal));
    solver.total_new_to_old_ = std::move(reversal);
    solver.permuted_ = true;
  } else {
    throw std::invalid_argument("TriangularSolver: matrix is not triangular");
  }
  const CsrMatrix& lower = solver.matrix_ ? *solver.matrix_ : matrix;
  requireSolvableLower(lower);

  const auto t0 = Clock::now();
  core::GrowLocalOptions gl = options.growlocal;
  gl.num_cores = options.num_threads;
  std::optional<baselines::SpmpResult> spmp;
  double stats_seconds = 0.0;
  {
    // The DAG lives only in this scope, so it is freed before the
    // reordered matrix is allocated.
    const dag::Dag dag = dag::Dag::fromLowerTriangular(lower);
    solver.schedule_ = runScheduler(dag, options, gl, spmp);
    if (options.validate) {
      const auto validation = core::validateSchedule(dag, solver.schedule_);
      if (!validation.ok) {
        throw std::logic_error("TriangularSolver: scheduler produced an "
                               "invalid schedule: " + validation.message);
      }
    }
#if STS_CHECKS
    // Checked builds audit every analysis, not just validate-opted ones,
    // and through the independent check:: re-derivation rather than the
    // library's own validator (check/check.hpp).
    check::enforce(check::validateSchedule(dag, solver.schedule_),
                   "TriangularSolver::analyze");
#endif
    const auto s0 = Clock::now();
    solver.stats_ = core::computeScheduleStats(dag, solver.schedule_,
                                               gl.sync_cost_l);
    stats_seconds = std::chrono::duration<double>(Clock::now() - s0).count();
  }

  if (reorder) {
    core::ReorderedProblem problem =
        core::reorderForLocality(lower, solver.schedule_);
    solver.total_new_to_old_ = sparse::composePermutations(
        solver.total_new_to_old_, problem.new_to_old);
    solver.permuted_ = true;
    // Replaces (and frees) the reversed upper input, if there was one;
    // `lower` is not read past this point.
    solver.matrix_ =
        std::make_shared<const CsrMatrix>(std::move(problem.matrix));
    solver.contiguous_ = std::make_unique<ContiguousBspExecutor>(
        *solver.matrix_, problem.num_supersteps, problem.num_cores,
        std::move(problem.group_ptr));
    solver.exec_threads_ = solver.contiguous_->numThreads();
  } else if (options.scheduler == SchedulerKind::kSpmp) {
    solver.p2p_ = std::make_unique<P2pExecutor>(
        *solver.matrix_, solver.schedule_, spmp->reduced_dag);
    solver.exec_threads_ = solver.p2p_->numThreads();
  } else {
    solver.bsp_ =
        std::make_unique<BspExecutor>(*solver.matrix_, solver.schedule_);
    solver.exec_threads_ = solver.bsp_->numThreads();
  }
  solver.analysis_seconds_ =
      std::chrono::duration<double>(Clock::now() - t0).count() - stats_seconds;
  solver.old_to_new_ = sparse::inversePermutation(solver.total_new_to_old_);

  // The lossless clamp: schedules keep their analyzed width (folding
  // re-targets them to any t <= numThreads() at solve time), but the
  // default execution team never exceeds the machine — oversubscribed
  // barrier waiters would otherwise yield-spin against absent cores.
  const auto hw = static_cast<int>(std::thread::hardware_concurrency());
  solver.default_team_ =
      hw > 0 ? std::min(solver.exec_threads_, hw) : solver.exec_threads_;

  solver.default_ctx_ = solver.createContext();
  return solver;
}

int TriangularSolver::clampTeam(int threads) const {
  if (threads < 1) {
    throw std::invalid_argument(
        "TriangularSolver: per-solve team size must be >= 1");
  }
  return std::min(threads, exec_threads_);
}

std::unique_ptr<SolveContext> TriangularSolver::createContext() const {
  return std::make_unique<SolveContext>(exec_threads_, n_);
}

void TriangularSolver::solve(std::span<const double> b, std::span<double> x,
                             SolveContext& ctx, int threads) const {
  if (static_cast<index_t>(b.size()) != n_ ||
      static_cast<index_t>(x.size()) != n_) {
    throw std::invalid_argument("TriangularSolver::solve: size mismatch");
  }
  if (!permuted_) {
    solvePermuted(b, x, ctx, threads);
    return;
  }
  const int team = clampTeam(threads);
  const auto n = static_cast<size_t>(n_);
  const auto b_int = ctx.bScratch(n);
  const auto x_int = ctx.xScratch(n);
  gatherVector(total_new_to_old_, b, b_int, ctx, team);
  solvePermuted(b_int, x_int, ctx, team);
  gatherVector(old_to_new_, x_int, x, ctx, team);
}

void TriangularSolver::solve(std::span<const double> b, std::span<double> x,
                             SolveContext& ctx) const {
  solve(b, x, ctx, default_team_);
}

void TriangularSolver::solve(std::span<const double> b,
                             std::span<double> x) const {
  solve(b, x, defaultContext(), default_team_);
}

void TriangularSolver::solveMultiRhs(std::span<const double> b,
                                     std::span<double> x, index_t nrhs,
                                     SolveContext& ctx, int threads) const {
  const auto n = static_cast<size_t>(n_);
  if (nrhs <= 0 || b.size() != n * static_cast<size_t>(nrhs) ||
      x.size() != b.size()) {
    throw std::invalid_argument(
        "TriangularSolver::solveMultiRhs: size mismatch");
  }
  const int team = clampTeam(threads);
  const TileLayout layout = tileLayout(nrhs);
  const auto r = static_cast<size_t>(nrhs);
  const auto b_tiled = ctx.bScratch(n * r);
  const auto x_tiled = ctx.xScratch(n * r);
  // Tile t is columns [c0, c0 + w) of the row-major matrix, so one gather
  // each way permutes and packs (or unpacks) every tile.
  std::vector<RowBlock> pack, unpack;
  for (index_t t = 0; t < layout.numTiles(); ++t) {
    const auto w = static_cast<size_t>(layout.tileWidth(t));
    const auto c0 = static_cast<size_t>(layout.tileBegin(t));
    pack.push_back({b.data() + c0, r, b_tiled.data() + layout.tileOffset(t),
                    w, w});
    unpack.push_back({x_tiled.data() + layout.tileOffset(t), w, x.data() + c0,
                      r, w});
  }
  gatherRows(total_new_to_old_, pack, ctx, team);
  solveTiles(b_tiled, x_tiled, layout, ctx, team);
  gatherRows(old_to_new_, unpack, ctx, team);
}

void TriangularSolver::solveMultiRhs(std::span<const double> b,
                                     std::span<double> x, index_t nrhs,
                                     SolveContext& ctx) const {
  solveMultiRhs(b, x, nrhs, ctx, default_team_);
}

void TriangularSolver::solveMultiRhs(std::span<const double> b,
                                     std::span<double> x,
                                     index_t nrhs) const {
  solveMultiRhs(b, x, nrhs, defaultContext(), default_team_);
}

TileLayout TriangularSolver::tileLayout(index_t nrhs,
                                        index_t tile_cols) const {
  const index_t width = tile_cols > 0        ? tile_cols
                        : options_.tile_cols > 0 ? options_.tile_cols
                                                 : pickTileCols(n_);
  return TileLayout(n_, nrhs, width);
}

void TriangularSolver::packTiles(std::span<const std::span<const double>> b,
                                 std::span<double> b_tiled,
                                 const TileLayout& layout, SolveContext& ctx,
                                 int threads) const {
  requireColumnShapes(b, b_tiled, layout, n_,
                      "TriangularSolver::packTiles");
  std::vector<RowBlock> blocks;
  for (index_t j = 0; j < layout.cols(); ++j) {
    const index_t t = layout.tileOfCol(j);
    blocks.push_back({b[static_cast<size_t>(j)].data(), 1,
                      b_tiled.data() + layout.tileOffset(t) +
                          static_cast<size_t>(layout.colInTile(j)),
                      static_cast<size_t>(layout.tileWidth(t)), 1});
  }
  gatherRows(total_new_to_old_, blocks, ctx, clampTeam(threads));
}

void TriangularSolver::unpackTiles(std::span<const double> x_tiled,
                                   std::span<const std::span<double>> x,
                                   const TileLayout& layout, SolveContext& ctx,
                                   int threads) const {
  requireColumnShapes(x, x_tiled, layout, n_,
                      "TriangularSolver::unpackTiles");
  std::vector<RowBlock> blocks;
  for (index_t j = 0; j < layout.cols(); ++j) {
    const index_t t = layout.tileOfCol(j);
    blocks.push_back({x_tiled.data() + layout.tileOffset(t) +
                          static_cast<size_t>(layout.colInTile(j)),
                      static_cast<size_t>(layout.tileWidth(t)),
                      x[static_cast<size_t>(j)].data(), 1, 1});
  }
  gatherRows(old_to_new_, blocks, ctx, clampTeam(threads));
}

void TriangularSolver::solveTiles(std::span<const double> b_tiled,
                                  std::span<double> x_tiled,
                                  const TileLayout& layout, SolveContext& ctx,
                                  int threads) const {
  if (layout.cols() == 1) {
    // A width-1 tile is the internal-order vector itself: the vector
    // kernel beats the register-blocked tiled one at a single column.
    requireTileShapes(n_, layout, b_tiled, x_tiled,
                      "TriangularSolver::solveTiles");
    solvePermuted(b_tiled, x_tiled, ctx, threads);
    return;
  }
  const int team = clampTeam(threads);
  if (contiguous_) {
    contiguous_->solveMultiRhsTiled(b_tiled, x_tiled, layout, ctx, team);
  } else if (p2p_) {
    p2p_->solveMultiRhsTiled(b_tiled, x_tiled, layout, ctx, team);
  } else {
    bsp_->solveMultiRhsTiled(b_tiled, x_tiled, layout, ctx, team);
  }
}

void TriangularSolver::solvePermuted(std::span<const double> b,
                                     std::span<double> x, SolveContext& ctx,
                                     int threads) const {
  if (static_cast<index_t>(b.size()) != n_ ||
      static_cast<index_t>(x.size()) != n_) {
    throw std::invalid_argument(
        "TriangularSolver::solvePermuted: size mismatch");
  }
  const int team = clampTeam(threads);
  if (contiguous_) {
    contiguous_->solve(b, x, ctx, team);
  } else if (p2p_) {
    p2p_->solve(b, x, ctx, team);
  } else {
    bsp_->solve(b, x, ctx, team);
  }
}

void TriangularSolver::solvePermuted(std::span<const double> b,
                                     std::span<double> x,
                                     SolveContext& ctx) const {
  solvePermuted(b, x, ctx, default_team_);
}

void TriangularSolver::solvePermuted(std::span<const double> b,
                                     std::span<double> x) const {
  solvePermuted(b, x, defaultContext(), default_team_);
}

void TriangularSolver::solveMultiRhsTiled(std::span<const double> b,
                                          std::span<double> x, index_t nrhs,
                                          SolveContext& ctx, int threads,
                                          FoldPolicy /*policy*/,
                                          StorageKind /*storage*/) const {
  solveMultiRhs(b, x, nrhs, ctx, threads);
}

void TriangularSolver::solveTiles(std::span<const double> b_tiled,
                                  std::span<double> x_tiled,
                                  const TileLayout& layout, SolveContext& ctx,
                                  int threads, FoldPolicy /*policy*/,
                                  StorageKind /*storage*/) const {
  solveTiles(b_tiled, x_tiled, layout, ctx, threads);
}

std::size_t TriangularSolver::storageBytesMoved(
    int /*threads*/, FoldPolicy /*policy*/, StorageKind /*storage*/) const {
  return csrBytesMoved(matrix_->rows(), matrix_->nnz());
}

}  // namespace sts::exec

#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "baselines/spmp.hpp"
#include "core/block.hpp"
#include "core/growlocal.hpp"
#include "core/reorder.hpp"
#include "core/schedule.hpp"
#include "exec/bsp.hpp"
#include "exec/p2p.hpp"
#include "exec/solve_context.hpp"
#include "exec/storage.hpp"
#include "sparse/csr.hpp"

/// \file solver.hpp
/// The downstream-user facade: analyze a triangular matrix once, then solve
/// with the same sparsity pattern many times (the SpTRSV use case the paper
/// targets — preconditioner applications, Gauss–Seidel sweeps, repeated
/// FEM solves, §1).
///
///   auto solver = sts::exec::TriangularSolver::analyze(L, options);
///   solver.solve(b, x);   // fast path, repeatable
///
/// Reentrancy contract (see solve_context.hpp): after analyze() the solver
/// is immutable; every solve entry point has a `const` overload taking a
/// SolveContext that carries all per-solve mutable state. N contexts from
/// createContext() permit N simultaneous solves on one analyzed solver —
/// the basis of the `engine::SolverEngine` serving subsystem:
///
///   auto ctx = solver.createContext();      // one per in-flight solve
///   solver.solve(b, x, *ctx);               // thread-safe across contexts
///
/// The context-free overloads run on a built-in default context and keep
/// the historical one-solve-at-a-time restriction.
///
/// ## Elasticity contract
///
/// The analyzed schedule is re-targetable: every context-taking solve also
/// accepts a per-solve team size `threads`, 1 <= threads <= numThreads(),
/// executing the schedule folded onto that many OpenMP threads
/// (Schedule::foldTo; folded work lists are cached per (team size, fold
/// policy) inside the executors). How ranks map onto the smaller team is a
/// core::FoldPolicy — SolverOptions::fold_policy sets the solver-wide
/// default (kModulo preserves historical behavior; kBinPack LPT-packs
/// whole ranks by per-superstep work, cutting folded imbalance), and every
/// team-taking overload has a sibling taking an explicit policy. Folding
/// is lossless under every policy — results are bitwise equal to the
/// full-width solve for every team size and scheduler kind. Overloads
/// without an explicit team run at defaultTeam(): numThreads() clamped to
/// the host's hardware concurrency, so analyzing for more threads than the
/// machine has no longer yield-spins barrier waiters against absent cores.
/// Values of `threads` above numThreads() clamp to numThreads(); values
/// below 1 throw std::invalid_argument.
///
/// ## Affinity
///
/// Placement is a context property, not a solver one: arm a SolveContext
/// with a core set (SolveContext::setPinnedCores) and every solve on that
/// context pins OpenMP team member t to `cores[t % cores.size()]` for the
/// duration of the parallel region (no-op without platform support —
/// STS_HAS_AFFINITY). Pinning never changes results; the serving engine
/// uses it to keep concurrent batches on disjoint leased core sets (see
/// engine/core_budget.hpp and docs/ARCHITECTURE.md, contract 3).
///
/// Upper triangular inputs are normalized internally by the reversal
/// permutation (backward substitution is forward substitution on the
/// reversed system).

namespace sts::exec {

using core::Schedule;
using sparse::CsrMatrix;
using sts::index_t;

/// Which scheduling algorithm the analysis phase runs.
enum class SchedulerKind {
  kGrowLocal,        ///< the paper's contribution (§3)
  kFunnelGrowLocal,  ///< Funnel coarsening + GrowLocal (§4, §7.3)
  kWavefront,        ///< classic level sets [AS89]
  kHdagg,            ///< HDagg baseline [ZCL+22]
  kSpmp,             ///< SpMP baseline [PSSD14]; executes asynchronously
  kBspList,          ///< BSPg-style list scheduler [PAKY24]
  kSerial,           ///< no parallelism; reference configuration
};

std::string schedulerKindName(SchedulerKind kind);

struct SolverOptions {
  SchedulerKind scheduler = SchedulerKind::kGrowLocal;
  /// Width the schedule is analyzed for. May exceed the machine: execution
  /// clamps the *default* team to hardware_concurrency() (see
  /// TriangularSolver::defaultTeam) by folding, which is lossless, so an
  /// oversubscribed analysis no longer yield-spins barrier waiters against
  /// absent cores.
  int num_threads = 2;
  /// Apply the §5 locality reordering (recommended; GrowLocal's headline
  /// configuration). Ignored for kSpmp (which relies on the original
  /// ordering) and kSerial.
  bool reorder = true;
  /// Diagonal blocks scheduled in parallel during analysis (§3.1); 1
  /// disables block decomposition. Only applies to GrowLocal variants.
  int num_schedule_blocks = 1;
  core::GrowLocalOptions growlocal;
  /// Validate the schedule during analysis (O(V+E); cheap insurance).
  bool validate = true;
  /// Default rank map for elastic (folded-team) solves; overloads taking an
  /// explicit core::FoldPolicy override it per solve. kModulo keeps PR 2's
  /// p mod t fold; kBinPack packs ranks by per-superstep load.
  core::FoldPolicy fold_policy = core::FoldPolicy::kModulo;
  /// The matrix layout every solve walks: the analyzed CSR, always
  /// (storage.hpp). Not a setting; it stays readable so that callers
  /// passing it to the StorageKind forwards below keep compiling.
  static constexpr StorageKind storage = StorageKind::kSharedCsr;
  /// RHS column-tile width of the tiled multi-RHS path (tile.hpp); 0 sizes
  /// it automatically from the detected cache geometry (pickTileCols,
  /// overridable by STS_TILE_COLS). Explicit tileLayout() arguments
  /// override this per call. Tiling is a pure layout choice — results stay
  /// bitwise identical for every width.
  index_t tile_cols = 0;
};

/// The analyze-once product: an immutable bundle of (normalized matrix,
/// validated Schedule, executor with cached fold plans, permutation). All
/// solve entry points are `const`; everything a solve mutates lives in the
/// SolveContext it runs on, and no part of the solver is built after
/// analyze(). Move-constructible; executor references into the matrix
/// stay valid across moves (shared_ptr-held payloads).
class TriangularSolver {
 public:
  /// Runs the analysis phase: normalize to lower triangular, build the DAG,
  /// schedule, (optionally) reorder, and construct the executor.
  /// Throws std::invalid_argument for non-triangular or singular-diagonal
  /// inputs.
  static TriangularSolver analyze(const CsrMatrix& matrix,
                                  const SolverOptions& options = {});

  /// A fresh per-solve context shaped for this solver's executor. Each
  /// in-flight solve needs its own; contexts are reusable sequentially.
  std::unique_ptr<SolveContext> createContext() const;

  /// x = T^{-1} b in the ORIGINAL row ordering (permutations are internal).
  /// The context overload is safe to call concurrently with any other
  /// context-carrying solve on this instance. `threads` selects the
  /// per-solve team and `policy` the fold rank map (elasticity contract
  /// above); overloads without them run at defaultTeam() under
  /// options().fold_policy.
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int threads, core::FoldPolicy policy) const;
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int threads) const;
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx) const;
  /// Built-in-context convenience: one solve per instance at a time.
  void solve(std::span<const double> b, std::span<double> x) const;

  /// X = T^{-1} B for nrhs right-hand sides, b and x row-major n x nrhs in
  /// the ORIGINAL row ordering. One schedule traversal serves all nrhs
  /// solves, amortizing every barrier/flag crossing (Table 7.7's
  /// block-parallel idea); column c of X is bitwise equal to solve() on
  /// column c of B.
  void solveMultiRhs(std::span<const double> b, std::span<double> x,
                     index_t nrhs, SolveContext& ctx, int threads,
                     core::FoldPolicy policy) const;
  void solveMultiRhs(std::span<const double> b, std::span<double> x,
                     index_t nrhs, SolveContext& ctx, int threads) const;
  void solveMultiRhs(std::span<const double> b, std::span<double> x,
                     index_t nrhs, SolveContext& ctx) const;
  void solveMultiRhs(std::span<const double> b, std::span<double> x,
                     index_t nrhs) const;

  /// Tiled SpTRSM: like solveMultiRhs (row-major n x nrhs in the ORIGINAL
  /// ordering, bitwise-identical columns) but the solve runs on the
  /// cache-sized column tiles of tileLayout(nrhs). One parallel gather
  /// each way (gather.hpp) both permutes and packs or unpacks every tile,
  /// so tiling adds no pass beyond what the permuted path already pays.
  void solveMultiRhsTiled(std::span<const double> b, std::span<double> x,
                          index_t nrhs, SolveContext& ctx, int threads,
                          core::FoldPolicy policy) const;
  void solveMultiRhsTiled(std::span<const double> b, std::span<double> x,
                          index_t nrhs, SolveContext& ctx) const;

  /// Tiled SpTRSM on PRE-TILED, PRE-PERMUTED buffers: b and x are packed as
  /// `layout` column tiles (layout.rows() == numRows()) in the INTERNAL row
  /// order. The serving engine fills b_tiled with packTiles and reads
  /// x_tiled back with unpackTiles, with no row-major staging matrix. A
  /// one-column layout is the internal-order vector and runs solvePermuted,
  /// whose vector kernel beats the tiled one at nrhs = 1.
  void solveTiles(std::span<const double> b_tiled, std::span<double> x_tiled,
                  const TileLayout& layout, SolveContext& ctx, int threads,
                  core::FoldPolicy policy) const;

  /// solveTiles' b side for callers holding one ORIGINAL-order vector per
  /// right-hand side: column j of `layout` (layout.cols() == b.size(), each
  /// of numRows() doubles) is gathered from b[j] into the INTERNAL order of
  /// b_tiled, in one parallel pass on `threads` members of ctx's team.
  void packTiles(std::span<const std::span<const double>> b,
                 std::span<double> b_tiled, const TileLayout& layout,
                 SolveContext& ctx, int threads) const;
  /// The x side: column j of x_tiled lands in x[j] in the ORIGINAL order,
  /// each member writing one contiguous row range of every x[j].
  void unpackTiles(std::span<const double> x_tiled,
                   std::span<const std::span<double>> x,
                   const TileLayout& layout, SolveContext& ctx,
                   int threads) const;

  /// The tile partition an nrhs-column tiled solve uses: width from
  /// `tile_cols` if > 0, else options().tile_cols, else the cache-sized
  /// pickTileCols default.
  TileLayout tileLayout(index_t nrhs, index_t tile_cols = 0) const;

  /// Solve with b and x in the solver's INTERNAL (schedule-permuted) row
  /// order: position i corresponds to original row permutation()[i].
  /// Workflows that keep their vectors in permuted space across many solves
  /// — as the paper's evaluation does (§5: "execute the SpTRSV computation
  /// on the permuted problem") — skip the two gather passes (gather.hpp)
  /// that solve() runs around it. Identical to solve() when no permutation
  /// was applied.
  void solvePermuted(std::span<const double> b, std::span<double> x,
                     SolveContext& ctx, int threads,
                     core::FoldPolicy policy) const;
  void solvePermuted(std::span<const double> b, std::span<double> x,
                     SolveContext& ctx, int threads) const;
  void solvePermuted(std::span<const double> b, std::span<double> x,
                     SolveContext& ctx) const;
  void solvePermuted(std::span<const double> b, std::span<double> x) const;

  // Forwards for callers that still pass a StorageKind: bench/ledger's
  // three call sites. Each ignores it. Drop the block once a change of its
  // own moves those call sites to the storage-free overloads above.
  void solveMultiRhsTiled(std::span<const double> b, std::span<double> x,
                          index_t nrhs, SolveContext& ctx, int threads,
                          core::FoldPolicy policy, StorageKind storage) const;
  void solveTiles(std::span<const double> b_tiled, std::span<double> x_tiled,
                  const TileLayout& layout, SolveContext& ctx, int threads,
                  core::FoldPolicy policy, StorageKind storage) const;
  /// Matrix bytes of one full sweep of the CSR: csrBytesMoved(n, nnz).
  std::size_t storageBytesMoved(int threads, core::FoldPolicy policy,
                                StorageKind storage) const;

  /// new_to_old map of the internal order (identity when not permuted).
  std::span<const index_t> permutation() const { return total_new_to_old_; }
  bool isPermuted() const { return permuted_; }

  index_t numRows() const { return n_; }
  /// Width the schedule was analyzed for (== schedule().numCores()); the
  /// maximum per-solve team size.
  int numThreads() const { return exec_threads_; }
  /// Effective team of the overloads without an explicit team size:
  /// numThreads() clamped to the host's hardware concurrency. Folding makes
  /// the clamp lossless (bitwise-identical results on the same schedule).
  int defaultTeam() const { return default_team_; }
  const SolverOptions& options() const { return options_; }
  const Schedule& schedule() const { return schedule_; }
  const core::ScheduleStats& stats() const { return stats_; }
  /// Wall-clock seconds spent in analyze() (scheduling + reordering +
  /// executor); feeds the amortization-threshold experiments (Eq. 7.1).
  double analysisSeconds() const { return analysis_seconds_; }

 private:
  TriangularSolver() = default;

  SolveContext& defaultContext() const { return *default_ctx_; }
  /// Maps a caller-requested team to a valid executor team: values above
  /// numThreads() clamp down (lossless); values below 1 throw.
  int clampTeam(int threads) const;

  index_t n_ = 0;
  SolverOptions options_;
  Schedule schedule_;
  core::ScheduleStats stats_;
  double analysis_seconds_ = 0.0;
  /// Thread count of the constructed executor (== schedule_.numCores()).
  int exec_threads_ = 1;
  /// exec_threads_ clamped to hardware_concurrency(); see defaultTeam().
  int default_team_ = 1;

  /// Normalization: x solves the original system iff the permuted solve
  /// runs on *matrix_ with b permuted by total_new_to_old_.
  bool permuted_ = false;
  std::vector<index_t> total_new_to_old_;
  /// Its inverse, so that bringing x back is a gather as well: every
  /// member of the pass writes one contiguous range of the caller's x.
  std::vector<index_t> old_to_new_;
  /// Heap-allocated so executor references stay valid across solver moves.
  std::shared_ptr<const CsrMatrix> matrix_;

  std::unique_ptr<BspExecutor> bsp_;
  std::unique_ptr<ContiguousBspExecutor> contiguous_;
  std::unique_ptr<P2pExecutor> p2p_;

  /// Backs the context-free convenience overloads.
  std::unique_ptr<SolveContext> default_ctx_;
};

}  // namespace sts::exec

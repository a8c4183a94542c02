#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "datagen/grids.hpp"
#include "datagen/random_matrices.hpp"
#include "engine/solver_engine.hpp"
#include "exec/solver.hpp"
#include "exec/tile.hpp"
#include "test_util.hpp"

/// \file test_tiled.cpp
/// The tiled multi-RHS contract (exec/tile.hpp): column tiles are
/// independent n x w sub-problems, so every column of a tiled solve is
/// bitwise a vector solve() of that column, for every executor kind, team
/// size, and RHS count — including degenerate single-tile batches and
/// explicit narrow tiles that force multi-tile execution. Plus the
/// layout/pack/unpack arithmetic, sysfs cache-geometry detection
/// fallbacks, the STS_TILE_COLS override, concurrent multi-RHS and vector
/// solves (TSan-covered in CI), the engine's direct-into-tiles pack path
/// with its pack/unpack stats attribution, and the fold-aware GrowLocal
/// never-loses guarantee.

namespace sts {
namespace {

using exec::SchedulerKind;
using exec::SolverOptions;
using exec::StorageKind;
using exec::TileLayout;
using exec::TriangularSolver;

struct ExecutorConfig {
  std::string name;
  SolverOptions options;
};

std::vector<ExecutorConfig> executorConfigs(int width) {
  std::vector<ExecutorConfig> configs;
  {
    SolverOptions opts;
    opts.scheduler = SchedulerKind::kGrowLocal;
    opts.num_threads = width;
    opts.reorder = true;
    configs.push_back({"contiguous", opts});
  }
  {
    SolverOptions opts;
    opts.scheduler = SchedulerKind::kGrowLocal;
    opts.num_threads = width;
    opts.reorder = false;
    configs.push_back({"bsp", opts});
  }
  {
    SolverOptions opts;
    opts.scheduler = SchedulerKind::kWavefront;
    opts.num_threads = width;
    opts.reorder = false;
    configs.push_back({"bsp-wavefront", opts});
  }
  {
    SolverOptions opts;
    opts.scheduler = SchedulerKind::kSpmp;
    opts.num_threads = width;
    configs.push_back({"p2p", opts});
  }
  return configs;
}

std::vector<double> makeRhs(size_t n, index_t nrhs, unsigned salt = 0) {
  std::vector<double> b(n * static_cast<size_t>(nrhs));
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + 0.125 * static_cast<double>((i * 7 + salt) % 23) -
           0.5 * static_cast<double>((i + salt) % 3);
  }
  return b;
}

/// The reference every multi-RHS path is pinned to: solve() on each column
/// of the row-major n x nrhs block `b`, on a `team`-wide team.
std::vector<double> columnSolves(const TriangularSolver& solver,
                                 exec::SolveContext& ctx,
                                 const std::vector<double>& b, index_t nrhs,
                                 int team) {
  const auto n = static_cast<size_t>(solver.numRows());
  const auto r = static_cast<size_t>(nrhs);
  std::vector<double> x(b.size()), bc(n), xc(n);
  for (size_t c = 0; c < r; ++c) {
    for (size_t i = 0; i < n; ++i) bc[i] = b[i * r + c];
    solver.solve(bc, xc, ctx, team);
    for (size_t i = 0; i < n; ++i) x[i * r + c] = xc[i];
  }
  return x;
}

TEST(TileLayout, GeometryPackUnpackRoundtrip) {
  const TileLayout layout(5, 11, 4);
  EXPECT_EQ(layout.rows(), 5);
  EXPECT_EQ(layout.cols(), 11);
  EXPECT_EQ(layout.tileCols(), 4);
  EXPECT_EQ(layout.numTiles(), 3);
  EXPECT_EQ(layout.tileBegin(2), 8);
  EXPECT_EQ(layout.tileWidth(0), 4);
  EXPECT_EQ(layout.tileWidth(2), 3);  // ragged tail tile
  EXPECT_EQ(layout.tileOfCol(9), 2);
  EXPECT_EQ(layout.colInTile(9), 1);
  EXPECT_EQ(layout.tileOffset(1), 5u * 4u);
  EXPECT_EQ(layout.tileDoubles(2), 5u * 3u);
  EXPECT_EQ(layout.totalDoubles(), 5u * 11u);
  EXPECT_EQ(layout.bytesMoved(), 2u * 55u * sizeof(double));

  const auto b = makeRhs(5, 11, 3);
  std::vector<double> tiled(layout.totalDoubles());
  std::vector<double> back(b.size());
  layout.pack(b, tiled);
  // Spot-check the tiled addressing: element (row i, col c) lives at
  // tileOffset(t) + i*w + colInTile(c).
  for (index_t i = 0; i < 5; ++i) {
    for (index_t c = 0; c < 11; ++c) {
      const auto t = layout.tileOfCol(c);
      const auto w = static_cast<size_t>(layout.tileWidth(t));
      const auto at = layout.tileOffset(t) + static_cast<size_t>(i) * w +
                      static_cast<size_t>(layout.colInTile(c));
      EXPECT_EQ(tiled[at], b[static_cast<size_t>(i) * 11 +
                             static_cast<size_t>(c)]);
    }
  }
  layout.unpack(tiled, back);
  EXPECT_EQ(back, b);
}

TEST(TileLayout, CapsAtNrhsAndValidates) {
  // tile_cols wider than the batch degrades to one full-width tile.
  const TileLayout wide(7, 3, 64);
  EXPECT_EQ(wide.tileCols(), 3);
  EXPECT_EQ(wide.numTiles(), 1);
  EXPECT_EQ(wide.tileWidth(0), 3);

  EXPECT_THROW(TileLayout(-1, 2, 2), std::invalid_argument);
  EXPECT_THROW(TileLayout(5, 0, 2), std::invalid_argument);
  EXPECT_THROW(TileLayout(5, 2, 0), std::invalid_argument);

  const TileLayout layout(4, 6, 2);
  std::vector<double> wrong(5);
  std::vector<double> right(layout.totalDoubles());
  EXPECT_THROW(layout.pack(wrong, right), std::invalid_argument);
  EXPECT_THROW(layout.unpack(right, wrong), std::invalid_argument);
}

TEST(TileGeometry, CacheDetectionHasSaneValuesAndFallbacks) {
  const exec::CacheGeometry& geo = exec::cacheGeometry();
  // Detected or fallback, the fields the tile sizing divides by must be
  // positive and ordered sanely.
  EXPECT_GT(geo.l1d_bytes, 0u);
  EXPECT_GT(geo.l2_bytes, 0u);
  EXPECT_GT(geo.l3_bytes, 0u);
  EXPECT_GE(geo.line_bytes, 8u);
  EXPECT_LE(geo.l1d_bytes, geo.l3_bytes);
  EXPECT_GE(geo.l2_shared_cpus, 1);
  // The process-wide snapshot is cached: same object every call.
  EXPECT_EQ(&geo, &exec::cacheGeometry());
}

TEST(TileGeometry, PickTileColsRespectsEnvOverride) {
  ASSERT_EQ(setenv("STS_TILE_COLS", "5", 1), 0);
  EXPECT_EQ(exec::pickTileCols(1000), 5);
  ASSERT_EQ(setenv("STS_TILE_COLS", "0", 1), 0);  // invalid: ignored
  const index_t auto_cols = exec::pickTileCols(1000);
  ASSERT_EQ(unsetenv("STS_TILE_COLS"), 0);
  EXPECT_EQ(exec::pickTileCols(1000), auto_cols);
  // The auto heuristic clamps to [16, 128] in multiples of 8.
  EXPECT_GE(auto_cols, 16);
  EXPECT_LE(auto_cols, 128);
  EXPECT_EQ(auto_cols % 8, 0);
}

TEST(TiledSolve, BitwiseMatchesColumnSolvesForEveryConfig) {
  const int width = 4;
  const auto matrices = {
      datagen::grid2dLaplacian5(14, 17).lowerTriangle(),
      datagen::erdosRenyiLower({.n = 350, .p = 8e-3, .seed = 21}),
      datagen::narrowBandLower({.n = 300, .p = 0.2, .b = 8.0, .seed = 22}),
  };
  for (const auto& lower : matrices) {
    const auto n = static_cast<size_t>(lower.rows());
    for (const auto& config : executorConfigs(width)) {
      // tile_cols = 3 forces multi-tile execution (with ragged tails at
      // nrhs 8 and 17); 0 exercises the auto heuristic, whose floor of 16
      // degenerates every nrhs here but 17 to a single tile.
      for (const index_t tile_cols : {3, 0}) {
        SolverOptions opts = config.options;
        opts.tile_cols = tile_cols;
        const auto solver = TriangularSolver::analyze(lower, opts);
        auto ctx = solver.createContext();
        for (const int team : {1, width}) {
          for (const index_t nrhs : {1, 3, 8, 17}) {
            const auto b = makeRhs(n, nrhs);
            std::vector<double> x_tiled(b.size());
            solver.solveMultiRhs(b, x_tiled, nrhs, *ctx, team);
            ASSERT_EQ(x_tiled, columnSolves(solver, *ctx, b, nrhs, team))
                << config.name << " tile_cols " << tile_cols << " team "
                << team << " nrhs " << nrhs;
          }
        }
      }
    }
  }
}

TEST(TiledSolve, SolveTilesMatchesOnPrePackedBuffers) {
  // The zero-copy entry: pack in schedule order outside, solve, unpack —
  // exactly the engine's fused path, checked against the reference walk.
  const auto lower = datagen::bandedLower(280, 10, 0.6, 31);
  const auto n = static_cast<size_t>(lower.rows());
  SolverOptions opts;
  opts.num_threads = 4;
  opts.reorder = true;  // exercises the permutation composition
  opts.tile_cols = 4;
  const auto solver = TriangularSolver::analyze(lower, opts);
  auto ctx = solver.createContext();
  const index_t nrhs = 10;
  const auto r = static_cast<size_t>(nrhs);
  const auto b = makeRhs(n, nrhs, 9);

  const auto x_ref = columnSolves(solver, *ctx, b, nrhs, solver.numThreads());

  const TileLayout layout = solver.tileLayout(nrhs);
  EXPECT_EQ(layout.tileCols(), 4);
  EXPECT_EQ(layout.numTiles(), 3);
  const auto perm = solver.permutation();
  std::vector<double> b_perm(b.size());
  for (size_t i = 0; i < n; ++i) {
    const size_t row = solver.isPermuted() ? static_cast<size_t>(perm[i]) : i;
    for (size_t c = 0; c < r; ++c) b_perm[i * r + c] = b[row * r + c];
  }
  std::vector<double> b_tiled(layout.totalDoubles());
  std::vector<double> x_tiled(layout.totalDoubles());
  layout.pack(b_perm, b_tiled);
  solver.solveTiles(b_tiled, x_tiled, layout, *ctx, solver.numThreads());
  std::vector<double> x_perm(b.size());
  layout.unpack(x_tiled, x_perm);
  std::vector<double> x(b.size());
  for (size_t i = 0; i < n; ++i) {
    const size_t row = solver.isPermuted() ? static_cast<size_t>(perm[i]) : i;
    for (size_t c = 0; c < r; ++c) x[row * r + c] = x_perm[i * r + c];
  }
  EXPECT_EQ(x, x_ref);

  // Shape mismatches must throw, not corrupt.
  std::vector<double> short_buf(layout.totalDoubles() - 1);
  EXPECT_THROW(solver.solveTiles(short_buf, x_tiled, layout, *ctx,
                                 solver.numThreads()),
               std::invalid_argument);
}

TEST(TiledSolve, BytesMovedAccountingIsConsistent) {
  const auto lower = datagen::erdosRenyiLower({.n = 250, .p = 1e-2,
                                               .seed = 17});
  SolverOptions opts;
  opts.num_threads = 2;
  const auto solver = TriangularSolver::analyze(lower, opts);
  // Through the forward the benchmark ledger still calls.
  const auto csr = solver.storageBytesMoved(2, exec::FoldPolicy::kBinPack,
                                            StorageKind::kSharedCsr);
  EXPECT_EQ(csr, exec::csrBytesMoved(lower.rows(), lower.nnz()));
}

TEST(TiledSolveConcurrent, MixedLayoutSolvesAreSafe) {
  // Multi-RHS and vector solves race on one solver with distinct contexts,
  // mixing teams: the lazy fold caches and the tiled scratch buffers must
  // not interfere — TSan covers this in CI.
  const auto lower = datagen::erdosRenyiLower({.n = 400, .p = 6e-3,
                                               .seed = 41});
  const auto n = static_cast<size_t>(lower.rows());
  SolverOptions opts;
  opts.num_threads = 4;
  opts.reorder = false;
  opts.tile_cols = 3;
  const auto solver = TriangularSolver::analyze(lower, opts);

  const index_t nrhs = 7;
  const auto b = makeRhs(n, nrhs);
  std::vector<double> expected;
  {
    auto ctx = solver.createContext();
    expected = columnSolves(solver, *ctx, b, nrhs, solver.numThreads());
  }

  constexpr int kWorkers = 8;
  std::vector<std::future<std::vector<double>>> results;
  for (int w = 0; w < kWorkers; ++w) {
    results.push_back(std::async(std::launch::async, [&, w] {
      auto ctx = solver.createContext();
      std::vector<double> x(b.size());
      const int team = 1 + w % solver.numThreads();
      for (int rep = 0; rep < 3; ++rep) {
        if (w % 2 == 0) {
          solver.solveMultiRhs(b, x, nrhs, *ctx, team);
        } else {
          x = columnSolves(solver, *ctx, b, nrhs, team);
        }
      }
      return x;
    }));
  }
  for (auto& f : results) {
    EXPECT_EQ(f.get(), expected);
  }
}

TEST(TiledEngine, PacksBatchesIntoTilesBitwiseWithStats) {
  const auto lower = datagen::grid2dLaplacian5(13, 13).lowerTriangle();
  const auto n = static_cast<size_t>(lower.rows());
  SolverOptions solver_opts;
  solver_opts.num_threads = 2;
  auto solver = std::make_shared<const TriangularSolver>(
      TriangularSolver::analyze(lower, solver_opts));

  std::vector<std::vector<double>> rhs;
  for (unsigned j = 0; j < 12; ++j) rhs.push_back(makeRhs(n, 1, j));
  std::vector<std::vector<double>> expected;
  for (const auto& b : rhs) {
    auto ctx = solver->createContext();
    std::vector<double> x(n);
    solver->solve(b, x, *ctx);
    expected.push_back(std::move(x));
  }

  engine::EngineOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 4;
  opts.start_paused = true;  // coalesce: batches arrive with k > 1
  engine::SolverEngine engine(opts);
  const auto id = engine.registerSolver(solver);
  std::vector<std::future<std::vector<double>>> futures;
  for (const auto& b : rhs) futures.push_back(engine.submit(id, b));
  engine.resume();
  for (size_t j = 0; j < futures.size(); ++j) {
    EXPECT_EQ(futures[j].get(), expected[j]) << "request " << j;
  }
  engine.drain();
  const auto stats = engine.stats(id);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.batches_failed, 0u);
  EXPECT_GT(stats.tiled_batches, 0u);
  EXPECT_GE(stats.pack_seconds, 0.0);
  EXPECT_GE(stats.unpack_seconds, 0.0);

  // An explicit multi-RHS submission routes through the tiled path too.
  const index_t nrhs = 5;
  const auto bm = makeRhs(n, nrhs, 99);
  std::vector<double> xm_ref;
  {
    auto ctx = solver->createContext();
    xm_ref = columnSolves(*solver, *ctx, bm, nrhs, solver->defaultTeam());
  }
  const auto before = engine.stats(id).tiled_batches;
  auto fut = engine.submitMulti(id, bm, nrhs);
  EXPECT_EQ(fut.get(), xm_ref);
  engine.drain();
  EXPECT_GT(engine.stats(id).tiled_batches, before);
}

TEST(TiledCore, FoldAwareGrowLocalNeverLosesOnFoldedCost) {
  const auto matrices = {
      datagen::erdosRenyiLower({.n = 300, .p = 8e-3, .seed = 61}),
      datagen::narrowBandLower({.n = 280, .p = 0.2, .b = 8.0, .seed = 62}),
  };
  for (const auto& lower : matrices) {
    const auto dag = dag::Dag::fromLowerTriangular(lower);
    core::GrowLocalOptions plain;
    plain.num_cores = 8;
    core::GrowLocalOptions aware = plain;
    aware.fold_targets = {2, 4};
    const auto base = core::growLocalSchedule(dag, plain);
    const auto tuned = core::growLocalSchedule(dag, aware);
    std::vector<int> targets = {2, 4, 8};
    double base_cost = 0.0;
    double tuned_cost = 0.0;
    for (const int t : targets) {
      base_cost +=
          static_cast<double>(core::foldedMakespanAt(base, t, dag.weights())) +
          plain.sync_cost_l * static_cast<double>(base.numSupersteps());
      tuned_cost +=
          static_cast<double>(core::foldedMakespanAt(tuned, t, dag.weights())) +
          plain.sync_cost_l * static_cast<double>(tuned.numSupersteps());
    }
    EXPECT_LE(tuned_cost, base_cost);
  }

  const auto lower = datagen::bandedLower(100, 6, 0.5, 63);
  const auto dag = dag::Dag::fromLowerTriangular(lower);
  core::GrowLocalOptions bad;
  bad.num_cores = 4;
  bad.fold_targets = {0};
  EXPECT_THROW(core::growLocalSchedule(dag, bad), std::invalid_argument);
}

}  // namespace
}  // namespace sts

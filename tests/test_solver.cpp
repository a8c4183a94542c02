#include "exec/solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <tuple>

#include "exec/serial.hpp"
#include "exec/verify.hpp"
#include "datagen/random_matrices.hpp"
#include "test_util.hpp"

namespace sts::exec {
namespace {

using sparse::CsrMatrix;

const std::vector<SchedulerKind> kAllKinds = {
    SchedulerKind::kGrowLocal, SchedulerKind::kFunnelGrowLocal,
    SchedulerKind::kWavefront, SchedulerKind::kHdagg,
    SchedulerKind::kSpmp,      SchedulerKind::kBspList,
    SchedulerKind::kSerial,
};

TEST(TriangularSolver, AllSchedulersSolveCorrectly) {
  const auto lower = datagen::erdosRenyiLower({.n = 800, .p = 4e-3, .seed = 50});
  const auto x_true = referenceSolution(lower.rows(), 51);
  const auto b = lower.multiply(x_true);
  for (const SchedulerKind kind : kAllKinds) {
    SolverOptions opts;
    opts.scheduler = kind;
    opts.num_threads = 2;
    auto solver = TriangularSolver::analyze(lower, opts);
    std::vector<double> x(b.size(), 0.0);
    solver.solve(b, x);
    EXPECT_LT(relMaxAbsDiff(x, x_true), 1e-8) << schedulerKindName(kind);
  }
}

/// Property sweep: (scheduler, reorder) x zoo must reproduce the serial
/// solution for every structural extreme.
class SolverProperty
    : public ::testing::TestWithParam<std::tuple<size_t, bool, size_t>> {};

TEST_P(SolverProperty, MatchesSerialSolve) {
  const auto [kind_idx, reorder, matrix_idx] = GetParam();
  const auto zoo = testutil::lowerTriangularZoo();
  const auto& entry = zoo[matrix_idx];
  SolverOptions opts;
  opts.scheduler = kAllKinds[kind_idx];
  opts.num_threads = 2;
  opts.reorder = reorder;
  auto solver = TriangularSolver::analyze(entry.lower, opts);
  const auto x_true = referenceSolution(entry.lower.rows(), 52);
  const auto b = entry.lower.multiply(x_true);
  std::vector<double> x(b.size(), 0.0), x_serial(b.size(), 0.0);
  solveLowerSerial(entry.lower, b, x_serial);
  for (int rep = 0; rep < 2; ++rep) {
    std::fill(x.begin(), x.end(), -1.0);
    solver.solve(b, x);
    EXPECT_LT(relMaxAbsDiff(x, x_serial), 1e-8)
        << schedulerKindName(opts.scheduler) << " reorder=" << reorder
        << " on " << entry.name;
  }
}

std::string solverPropertyName(
    const ::testing::TestParamInfo<std::tuple<size_t, bool, size_t>>& info) {
  const auto [kind_idx, reorder, matrix_idx] = info.param;
  const auto zoo = testutil::lowerTriangularZoo();
  std::string name = schedulerKindName(kAllKinds[kind_idx]) +
                     std::string(reorder ? "_reorder_" : "_plain_") +
                     zoo[matrix_idx].name;
  for (auto& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SolverProperty,
    ::testing::Combine(::testing::Range<size_t>(0, 7), ::testing::Bool(),
                       ::testing::Range<size_t>(0, 11)),
    solverPropertyName);

TEST(TriangularSolver, UpperTriangularInput) {
  const auto lower = datagen::bandedLower(400, 8, 0.5, 53);
  const CsrMatrix upper = lower.transposed();
  const auto x_true = referenceSolution(400, 54);
  const auto b = upper.multiply(x_true);
  for (const bool reorder : {false, true}) {
    SolverOptions opts;
    opts.num_threads = 2;
    opts.reorder = reorder;
    auto solver = TriangularSolver::analyze(upper, opts);
    std::vector<double> x(b.size(), 0.0);
    solver.solve(b, x);
    EXPECT_LT(relMaxAbsDiff(x, x_true), 1e-8) << "reorder=" << reorder;
  }
}

TEST(TriangularSolver, BlockScheduledAnalysis) {
  const auto lower = datagen::erdosRenyiLower({.n = 1500, .p = 2e-3, .seed = 55});
  const auto x_true = referenceSolution(lower.rows(), 56);
  const auto b = lower.multiply(x_true);
  for (const int blocks : {2, 4}) {
    SolverOptions opts;
    opts.num_threads = 2;
    opts.num_schedule_blocks = blocks;
    auto solver = TriangularSolver::analyze(lower, opts);
    std::vector<double> x(b.size(), 0.0);
    solver.solve(b, x);
    EXPECT_LT(relMaxAbsDiff(x, x_true), 1e-8) << "blocks=" << blocks;
  }
}

TEST(TriangularSolver, RejectsNonTriangular) {
  const std::vector<Triplet> t = {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0},
                                  {1, 1, 1.0}};
  const CsrMatrix full = CsrMatrix::fromTriplets(2, 2, t);
  EXPECT_THROW(TriangularSolver::analyze(full), std::invalid_argument);
}

TEST(TriangularSolver, RejectsSingularDiagonal) {
  const std::vector<Triplet> t = {{0, 0, 1.0}, {1, 0, 1.0}};  // no (1,1)
  const CsrMatrix bad = CsrMatrix::fromTriplets(2, 2, t);
  EXPECT_THROW(TriangularSolver::analyze(bad), std::invalid_argument);
}

TEST(TriangularSolver, RejectsBadThreadCount) {
  const CsrMatrix id = CsrMatrix::identity(4);
  SolverOptions opts;
  opts.num_threads = 0;
  EXPECT_THROW(TriangularSolver::analyze(id, opts), std::invalid_argument);
}

TEST(TriangularSolver, ExposesScheduleAndStats) {
  const auto lower = datagen::bandedLower(600, 10, 0.5, 57);
  SolverOptions opts;
  opts.num_threads = 2;
  auto solver = TriangularSolver::analyze(lower, opts);
  EXPECT_EQ(solver.numRows(), 600);
  EXPECT_GT(solver.schedule().numSupersteps(), 0);
  EXPECT_GT(solver.stats().total_work, 0);
  EXPECT_GE(solver.analysisSeconds(), 0.0);
  EXPECT_GT(solver.stats().wavefront_reduction, 1.0);
}

/// solveMultiRhs must reproduce nrhs independent solve() calls bitwise:
/// the multi-RHS kernels run the identical arithmetic sequence per column.
TEST(TriangularSolver, SolveMultiRhsMatchesIndependentSolves) {
  const auto lower = datagen::erdosRenyiLower({.n = 600, .p = 5e-3, .seed = 60});
  constexpr index_t kNrhs = 4;
  const auto n = static_cast<size_t>(lower.rows());
  const struct {
    SchedulerKind kind;
    bool reorder;
  } configs[] = {{SchedulerKind::kGrowLocal, true},
                 {SchedulerKind::kGrowLocal, false},
                 {SchedulerKind::kSpmp, false}};
  for (const auto& config : configs) {
    SolverOptions opts;
    opts.scheduler = config.kind;
    opts.num_threads = 2;
    opts.reorder = config.reorder;
    auto solver = TriangularSolver::analyze(lower, opts);

    std::vector<double> b_multi(n * kNrhs), x_multi(n * kNrhs, 0.0);
    std::vector<std::vector<double>> expected;
    for (index_t c = 0; c < kNrhs; ++c) {
      const auto x_true = referenceSolution(lower.rows(), 61 + c);
      const auto b = lower.multiply(x_true);
      for (size_t i = 0; i < n; ++i) {
        b_multi[i * kNrhs + static_cast<size_t>(c)] = b[i];
      }
      expected.emplace_back(n, 0.0);
      solver.solve(b, expected.back());
    }
    solver.solveMultiRhs(b_multi, x_multi, kNrhs);
    for (index_t c = 0; c < kNrhs; ++c) {
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(x_multi[i * kNrhs + static_cast<size_t>(c)],
                  expected[static_cast<size_t>(c)][i])
            << schedulerKindName(config.kind) << " reorder="
            << config.reorder << " rhs " << c << " row " << i;
      }
    }
  }
}

/// Every facade call that crosses the internal row order must equal the
/// test's own serial crossing around the internal-order entries: gather b
/// by permutation(), run solvePermuted (per column) or solveTiles, scatter
/// x back. Bitwise, for both triangles (upper = reversal, then the
/// schedule's reorder where one applies), three executors, uneven row
/// and uneven row partitions (n = 499 splits evenly across neither 3 nor 4
/// members).
const struct {
  SchedulerKind kind;
  bool reorder;
  const char* name;
} kCrossingConfigs[] = {
    {SchedulerKind::kGrowLocal, true, "GrowLocalReorder"},
    {SchedulerKind::kSpmp, true, "Spmp"},  // SpMP ignores reorder
    {SchedulerKind::kWavefront, false, "Wavefront"},
};

/// (upper, config index, team — 0 meaning numThreads()).
using CrossingParam = std::tuple<bool, size_t, int>;

class PermutationCrossing : public ::testing::TestWithParam<CrossingParam> {};

TEST_P(PermutationCrossing, SolvePermutedRoundTripMatchesSolve) {
  const auto [upper, config_idx, team_param] = GetParam();
  const auto& config = kCrossingConfigs[config_idx];
  constexpr index_t kRows = 499;
  constexpr index_t kNrhs = 7;  // tile width 3: two full tiles and a tail
  const auto lower = datagen::bandedLower(kRows, 9, 0.5, 62);
  const CsrMatrix matrix = upper ? lower.transposed() : lower;
  SolverOptions opts;
  opts.scheduler = config.kind;
  opts.num_threads = 4;
  opts.reorder = config.reorder;
  opts.tile_cols = 3;
  const auto solver = TriangularSolver::analyze(matrix, opts);
  const int team = team_param == 0 ? solver.numThreads() : team_param;
  const core::FoldPolicy policy = solver.options().fold_policy;
  const auto perm = solver.permutation();
  const auto n = static_cast<size_t>(kRows);
  const auto r = static_cast<size_t>(kNrhs);
  auto ctx = solver.createContext();

  // Reference, column by column: serial gather -> solvePermuted -> scatter.
  std::vector<double> b(n * r), want(n * r);
  std::vector<double> b_int(n), x_int(n);
  for (size_t c = 0; c < r; ++c) {
    const auto bc =
        matrix.multiply(referenceSolution(kRows, 70 + static_cast<int>(c)));
    for (size_t i = 0; i < n; ++i) b[i * r + c] = bc[i];
    for (size_t i = 0; i < n; ++i) b_int[i] = bc[static_cast<size_t>(perm[i])];
    solver.solvePermuted(b_int, x_int, *ctx, team, policy);
    for (size_t i = 0; i < n; ++i) {
      want[static_cast<size_t>(perm[i]) * r + c] = x_int[i];
    }
  }
  // Tiled reference: serial gather + pack -> solveTiles -> unpack + scatter.
  const TileLayout layout = solver.tileLayout(kNrhs);
  ASSERT_EQ(layout.numTiles(), 3);
  ASSERT_EQ(layout.tileWidth(2), 1);
  std::vector<double> b_tiles(n * r), x_tiles(n * r), want_tiled(n * r);
  for (index_t t = 0; t < layout.numTiles(); ++t) {
    const auto w = static_cast<size_t>(layout.tileWidth(t));
    const auto c0 = static_cast<size_t>(layout.tileBegin(t));
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < w; ++c) {
        b_tiles[layout.tileOffset(t) + i * w + c] =
            b[static_cast<size_t>(perm[i]) * r + c0 + c];
      }
    }
  }
  solver.solveTiles(b_tiles, x_tiles, layout, *ctx, team, policy);
  for (index_t t = 0; t < layout.numTiles(); ++t) {
    const auto w = static_cast<size_t>(layout.tileWidth(t));
    const auto c0 = static_cast<size_t>(layout.tileBegin(t));
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < w; ++c) {
        want_tiled[static_cast<size_t>(perm[i]) * r + c0 + c] =
            x_tiles[layout.tileOffset(t) + i * w + c];
      }
    }
  }

  // A one-column layout is the internal-order vector itself.
  const TileLayout one_column = solver.tileLayout(1);
  std::vector<double> bc(n), x(n), want_col(n), x_one(n);
  for (size_t c = 0; c < r; ++c) {
    for (size_t i = 0; i < n; ++i) {
      bc[i] = b[i * r + c];
      want_col[i] = want[i * r + c];
    }
    solver.solve(bc, x, *ctx, team, policy);
    EXPECT_EQ(x, want_col) << "solve, column " << c;
    for (size_t i = 0; i < n; ++i) {
      b_int[i] = bc[static_cast<size_t>(perm[i])];
    }
    solver.solveTiles(b_int, x_int, one_column, *ctx, team, policy);
    for (size_t i = 0; i < n; ++i) {
      x_one[static_cast<size_t>(perm[i])] = x_int[i];
    }
    EXPECT_EQ(x_one, want_col) << "solveTiles, one column, column " << c;
  }
  std::vector<double> x_multi(n * r), x_tiled(n * r);
  solver.solveMultiRhs(b, x_multi, kNrhs, *ctx, team, policy);
  EXPECT_EQ(x_multi, want) << "solveMultiRhs";
  solver.solveMultiRhsTiled(b, x_tiled, kNrhs, *ctx, team, policy);
  EXPECT_EQ(x_tiled, want_tiled) << "solveMultiRhsTiled";
}

std::string crossingName(const ::testing::TestParamInfo<CrossingParam>& info) {
  const auto [upper, config_idx, team] = info.param;
  return std::string(upper ? "Upper" : "Lower") +
         kCrossingConfigs[config_idx].name + "_team" +
         (team == 0 ? std::string("Full") : std::to_string(team));
}

INSTANTIATE_TEST_SUITE_P(
    TrianglesExecutorsTeams, PermutationCrossing,
    ::testing::Combine(::testing::Bool(), ::testing::Range<size_t>(0, 3),
                       ::testing::Values(1, 3, 0)),
    crossingName);

/// The SolveContext reentrancy contract at the facade level: concurrent
/// solves with distinct contexts on one analyzed solver are safe and
/// bitwise-deterministic.
TEST(TriangularSolver, ConcurrentContextsSolveIndependently) {
  const auto lower = datagen::erdosRenyiLower({.n = 500, .p = 6e-3, .seed = 64});
  SolverOptions opts;
  opts.num_threads = 2;
  opts.reorder = false;  // BspExecutor path: bit-identical to serial
  const auto solver = TriangularSolver::analyze(lower, opts);

  constexpr int kThreads = 4;
  std::vector<std::vector<double>> rhs, expected;
  for (int t = 0; t < kThreads; ++t) {
    const auto x_true = referenceSolution(lower.rows(), 65 + t);
    rhs.push_back(lower.multiply(x_true));
    expected.emplace_back(rhs.back().size(), 0.0);
    solveLowerSerial(lower, rhs.back(), expected.back());
  }

  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto ctx = solver.createContext();
      std::vector<double> x(rhs[static_cast<size_t>(t)].size(), 0.0);
      for (int rep = 0; rep < 3; ++rep) {
        std::fill(x.begin(), x.end(), -1.0);
        solver.solve(rhs[static_cast<size_t>(t)], x, *ctx);
        if (x != expected[static_cast<size_t>(t)]) {
          failures[static_cast<size_t>(t)] += 1;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

TEST(TriangularSolver, ContextShapeMismatchThrows) {
  const auto lower_a = datagen::bandedLower(100, 4, 0.5, 66);
  const auto lower_b = datagen::bandedLower(120, 4, 0.5, 67);
  SolverOptions opts;
  opts.num_threads = 2;
  auto solver_a = TriangularSolver::analyze(lower_a, opts);
  auto solver_b = TriangularSolver::analyze(lower_b, opts);
  auto ctx_b = solver_b.createContext();
  std::vector<double> b(100, 1.0), x(100, 0.0);
  EXPECT_THROW(solver_a.solve(b, x, *ctx_b), std::invalid_argument);
}

TEST(TriangularSolver, SolveSizeMismatchThrows) {
  const CsrMatrix id = CsrMatrix::identity(4);
  auto solver = TriangularSolver::analyze(id);
  std::vector<double> b(3, 1.0), x(4, 0.0);
  EXPECT_THROW(solver.solve(b, x), std::invalid_argument);
}

}  // namespace
}  // namespace sts::exec

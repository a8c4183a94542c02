#include <gtest/gtest.h>

#include <omp.h>

#include <thread>

#include "core/growlocal.hpp"
#include "core/schedule.hpp"
#include "dag/dag.hpp"
#include "datagen/random_matrices.hpp"
#include "exec/bsp.hpp"
#include "exec/serial.hpp"
#include "exec/solver.hpp"
#include "exec/spin_barrier.hpp"
#include "exec/verify.hpp"
#include "sparse/permute.hpp"
#include "test_util.hpp"

namespace sts {
namespace {

using core::Schedule;
using dag::Dag;
using dag::Edge;

TEST(CoalesceSupersteps, MergesSameCoreRuns) {
  // A chain scheduled as three consecutive supersteps on one core: all
  // barriers synchronize nothing and must fold into one superstep.
  const Dag d = Dag::fromEdges(3, std::vector<Edge>{{0, 1}, {1, 2}});
  const std::vector<int> core = {0, 0, 0};
  const std::vector<index_t> superstep = {0, 1, 2};
  const Schedule s = Schedule::fromAssignment(d, 2, core, superstep);
  const Schedule merged = core::coalesceSupersteps(d, s);
  EXPECT_EQ(merged.numSupersteps(), 1);
  EXPECT_TRUE(core::validateSchedule(d, merged).ok);
}

TEST(CoalesceSupersteps, KeepsNecessaryBarriers) {
  // Edge 0 -> 1 crosses cores: the barrier between supersteps must stay.
  const Dag d = Dag::fromEdges(2, std::vector<Edge>{{0, 1}});
  const std::vector<int> core = {0, 1};
  const std::vector<index_t> superstep = {0, 1};
  const Schedule s = Schedule::fromAssignment(d, 2, core, superstep);
  const Schedule merged = core::coalesceSupersteps(d, s);
  EXPECT_EQ(merged.numSupersteps(), 2);
}

TEST(CoalesceSupersteps, RespectsSkippingCrossEdges) {
  // Cross-core edge from superstep 0 to superstep 2: folding 0..2 into one
  // run would break it even though steps 0-1 and 1-2 are individually
  // mergeable. Vertices: 0 (s0, c0), 1 (s1, c0), 2 (s2, c1 child of 0).
  const Dag d = Dag::fromEdges(3, std::vector<Edge>{{0, 2}});
  const std::vector<int> core = {0, 0, 1};
  const std::vector<index_t> superstep = {0, 1, 2};
  const Schedule s = Schedule::fromAssignment(d, 2, core, superstep);
  const Schedule merged = core::coalesceSupersteps(d, s);
  EXPECT_TRUE(core::validateSchedule(d, merged).ok);
  // 0 and 2 must stay separated by a barrier.
  EXPECT_LT(merged.superstepOf(0), merged.superstepOf(2));
}

TEST(CoalesceSupersteps, PreservesValidityOnZoo) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    core::GrowLocalOptions opts;
    opts.num_cores = 2;
    opts.coalesce_supersteps = false;
    const Schedule raw = core::growLocalSchedule(d, opts);
    const Schedule merged = core::coalesceSupersteps(d, raw);
    const auto v = core::validateSchedule(d, merged);
    EXPECT_TRUE(v.ok) << name << ": " << v.message;
    EXPECT_LE(merged.numSupersteps(), raw.numSupersteps()) << name;
  }
}

TEST(SpinBarrier, SynchronizesCounters) {
  // Each thread increments a per-phase counter; after the barrier, every
  // thread must observe all increments of the phase.
  const int threads = 2;
  const int phases = 2000;
  exec::SpinBarrier barrier(threads);
  std::vector<int> counter(static_cast<size_t>(phases), 0);
  bool ok = true;
#pragma omp parallel num_threads(threads) reduction(&& : ok)
  {
    int sense = barrier.initialSense();
    for (int p = 0; p < phases; ++p) {
#pragma omp atomic
      ++counter[static_cast<size_t>(p)];
      barrier.wait(sense);
      int seen = 0;
#pragma omp atomic read
      seen = counter[static_cast<size_t>(p)];
      ok = ok && (seen == threads);
      barrier.wait(sense);
    }
  }
  EXPECT_TRUE(ok);
}

TEST(SpinBarrier, SingleThreadNoop) {
  exec::SpinBarrier barrier(1);
  int sense = barrier.initialSense();
  for (int i = 0; i < 10; ++i) barrier.wait(sense);
  SUCCEED();
}

TEST(SolvePermuted, ConsistentWithTransparentSolve) {
  const auto lower = datagen::erdosRenyiLower({.n = 700, .p = 4e-3, .seed = 61});
  exec::SolverOptions opts;
  opts.num_threads = 2;
  opts.reorder = true;
  auto solver = exec::TriangularSolver::analyze(lower, opts);
  ASSERT_TRUE(solver.isPermuted());

  const auto x_true = exec::referenceSolution(lower.rows(), 62);
  const auto b = lower.multiply(x_true);

  std::vector<double> x(b.size(), 0.0);
  solver.solve(b, x);

  const auto perm = solver.permutation();
  const auto b_perm = sparse::permuteVector(b, perm);
  std::vector<double> x_perm(b.size(), 0.0);
  solver.solvePermuted(b_perm, x_perm);
  const auto x_back = sparse::unpermuteVector(x_perm, perm);
  EXPECT_EQ(x, x_back);  // identical code path underneath
}

TEST(SolvePermuted, IdentityWhenNotPermuted) {
  const auto lower = datagen::bandedLower(300, 8, 0.5, 63);
  exec::SolverOptions opts;
  opts.num_threads = 2;
  opts.reorder = false;
  auto solver = exec::TriangularSolver::analyze(lower, opts);
  EXPECT_FALSE(solver.isPermuted());
  const auto x_true = exec::referenceSolution(lower.rows(), 64);
  const auto b = lower.multiply(x_true);
  std::vector<double> x1(b.size(), 0.0), x2(b.size(), 0.0);
  solver.solve(b, x1);
  solver.solvePermuted(b, x2);
  EXPECT_EQ(x1, x2);
}

TEST(MultiRhs, SerialMatchesSingleRhsColumns) {
  const auto lower = datagen::bandedLower(250, 6, 0.5, 65);
  const index_t n = lower.rows();
  const index_t nrhs = 4;
  // B columns = distinct reference solutions.
  std::vector<double> b(static_cast<size_t>(n) * nrhs);
  std::vector<std::vector<double>> b_cols(static_cast<size_t>(nrhs));
  for (index_t c = 0; c < nrhs; ++c) {
    const auto x_true = exec::referenceSolution(n, 100 + c);
    b_cols[static_cast<size_t>(c)] = lower.multiply(x_true);
    for (index_t i = 0; i < n; ++i) {
      b[static_cast<size_t>(i) * nrhs + c] =
          b_cols[static_cast<size_t>(c)][static_cast<size_t>(i)];
    }
  }
  std::vector<double> x(b.size(), 0.0);
  exec::solveLowerSerialMultiRhs(lower, b, x, nrhs);
  for (index_t c = 0; c < nrhs; ++c) {
    std::vector<double> x_single(static_cast<size_t>(n), 0.0);
    exec::solveLowerSerial(lower, b_cols[static_cast<size_t>(c)], x_single);
    for (index_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(x[static_cast<size_t>(i) * nrhs + c],
                       x_single[static_cast<size_t>(i)])
          << "rhs " << c << " row " << i;
    }
  }
}

TEST(MultiRhs, BspExecutorMatchesSerial) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const Schedule s = core::growLocalSchedule(d, {.num_cores = 2});
    const exec::BspExecutor executor(lower, s);
    const index_t nrhs = 3;
    const auto n = static_cast<size_t>(lower.rows());
    std::vector<double> b(n * nrhs);
    for (size_t i = 0; i < b.size(); ++i) {
      b[i] = 0.1 + static_cast<double>(i % 17);
    }
    std::vector<double> x_serial(b.size(), 0.0), x_par(b.size(), 0.0);
    exec::solveLowerSerialMultiRhs(lower, b, x_serial, nrhs);
    const auto ctx = executor.createContext();
    executor.solveMultiRhsTiled(b, x_par,
                                exec::TileLayout(lower.rows(), nrhs, nrhs),
                                *ctx, executor.numThreads());
    EXPECT_EQ(x_serial, x_par) << name;
  }
}

TEST(MultiRhs, RejectsBadArguments) {
  const auto lower = datagen::diagonalMatrix(10);
  std::vector<double> b(20, 1.0), x(20, 0.0);
  EXPECT_THROW(exec::solveLowerSerialMultiRhs(lower, b, x, 0),
               std::invalid_argument);
  EXPECT_THROW(exec::solveLowerSerialMultiRhs(lower, b, x, 3),
               std::invalid_argument);
}

}  // namespace
}  // namespace sts

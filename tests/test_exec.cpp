#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>

#include "baselines/spmp.hpp"
#include "baselines/wavefront.hpp"
#include "core/growlocal.hpp"
#include "core/reorder.hpp"
#include "dag/dag.hpp"
#include "datagen/grids.hpp"
#include "exec/bsp.hpp"
#include "exec/p2p.hpp"
#include "exec/serial.hpp"
#include "exec/verify.hpp"
#include "datagen/random_matrices.hpp"
#include "sparse/permute.hpp"
#include "test_util.hpp"

/// Test-only access to SolveContext's private epoch counter (befriended in
/// solve_context.hpp) so the uint32 wraparound path is testable without
/// 2^32 solves.
class SolveContextTestPeer {
 public:
  static void setEpoch(sts::exec::SolveContext& ctx, std::uint32_t epoch) {
    ctx.epoch_ = epoch;
  }
};

namespace sts::exec {
namespace {

using core::Schedule;
using dag::Dag;
using sparse::CsrMatrix;

std::vector<double> rhsFor(const CsrMatrix& lower,
                           const std::vector<double>& x_true) {
  return lower.multiply(x_true);
}

TEST(SerialSolve, RoundTripOnZoo) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const auto x_true = referenceSolution(lower.rows(), 77);
    const auto b = rhsFor(lower, x_true);
    std::vector<double> x(static_cast<size_t>(lower.rows()), 0.0);
    solveLowerSerial(lower, b, x);
    EXPECT_LT(relMaxAbsDiff(x, x_true), 1e-9) << name;
    EXPECT_LT(residualInf(lower, x, b), 1e-9) << name;
  }
}

TEST(SerialSolve, UpperRoundTrip) {
  const auto lower = datagen::bandedLower(300, 6, 0.5, 31);
  const CsrMatrix upper = lower.transposed();
  const auto x_true = referenceSolution(300, 78);
  const auto b = upper.multiply(x_true);
  std::vector<double> x(300, 0.0);
  solveUpperSerial(upper, b, x);
  EXPECT_LT(relMaxAbsDiff(x, x_true), 1e-9);
}

TEST(SerialSolve, RejectsMissingDiagonal) {
  // Row 1 has no diagonal entry.
  const std::vector<Triplet> t = {{0, 0, 1.0}, {1, 0, 1.0}};
  const CsrMatrix bad = CsrMatrix::fromTriplets(2, 2, t);
  EXPECT_THROW(requireSolvableLower(bad), std::invalid_argument);
}

TEST(SerialSolve, RejectsZeroDiagonal) {
  const std::vector<Triplet> t = {{0, 0, 0.0}, {1, 1, 1.0}};
  const CsrMatrix bad = CsrMatrix::fromTriplets(2, 2, t);
  EXPECT_THROW(requireSolvableLower(bad), std::invalid_argument);
}

TEST(SerialSolve, RejectsNonTriangular) {
  const std::vector<Triplet> t = {{0, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}};
  const CsrMatrix bad = CsrMatrix::fromTriplets(2, 2, t);
  EXPECT_THROW(requireSolvableLower(bad), std::invalid_argument);
}

TEST(SerialSolve, SizeMismatchThrows) {
  const CsrMatrix id = CsrMatrix::identity(3);
  std::vector<double> b(2, 1.0), x(3, 0.0);
  EXPECT_THROW(solveLowerSerial(id, b, x), std::invalid_argument);
}

/// Parallel executors must reproduce the serial result bit-for-bit: each
/// row sums its CSR entries in the same order regardless of the schedule.
TEST(BspExecutor, BitIdenticalToSerialOnZoo) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const Schedule s = core::growLocalSchedule(d, {.num_cores = 2});
    const BspExecutor exec(lower, s);
    const auto x_true = referenceSolution(lower.rows(), 80);
    const auto b = rhsFor(lower, x_true);
    std::vector<double> x_serial(b.size(), 0.0), x_par(b.size(), 0.0);
    solveLowerSerial(lower, b, x_serial);
    exec.solve(b, x_par, *exec.createContext(), exec.numThreads());
    EXPECT_EQ(x_serial, x_par) << name;
  }
}

TEST(BspExecutor, RepeatedSolvesAreStable) {
  const auto lower = datagen::erdosRenyiLower({.n = 600, .p = 5e-3, .seed = 82});
  const Dag d = Dag::fromLowerTriangular(lower);
  const Schedule s = core::growLocalSchedule(d, {.num_cores = 2});
  const BspExecutor exec(lower, s);
  const auto x_true = referenceSolution(lower.rows(), 83);
  const auto b = rhsFor(lower, x_true);
  std::vector<double> x1(b.size(), 0.0), x2(b.size(), 1.0);
  const auto ctx = exec.createContext();
  exec.solve(b, x1, *ctx, exec.numThreads());
  exec.solve(b, x2, *ctx, exec.numThreads());
  EXPECT_EQ(x1, x2);
}

TEST(P2pExecutor, MatchesSerialWithFullSyncDag) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const auto spmp = baselines::spmpSchedule(d, {.num_cores = 2});
    P2pExecutor exec(lower, spmp.schedule, d);  // full DAG: conservative sync
    const auto x_true = referenceSolution(lower.rows(), 85);
    const auto b = rhsFor(lower, x_true);
    std::vector<double> x_serial(b.size(), 0.0), x_par(b.size(), 0.0);
    solveLowerSerial(lower, b, x_serial);
    exec.solve(b, x_par, *exec.createContext(), exec.numThreads());
    EXPECT_EQ(x_serial, x_par) << name;
  }
}

TEST(P2pExecutor, MatchesSerialWithReducedSyncDag) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const auto spmp = baselines::spmpSchedule(d, {.num_cores = 2});
    P2pExecutor exec(lower, spmp.schedule, spmp.reduced_dag);
    const auto x_true = referenceSolution(lower.rows(), 86);
    const auto b = rhsFor(lower, x_true);
    std::vector<double> x_serial(b.size(), 0.0), x_par(b.size(), 0.0);
    solveLowerSerial(lower, b, x_serial);
    // Repeated solves exercise the epoch mechanism.
    const auto ctx = exec.createContext();
    for (int rep = 0; rep < 3; ++rep) {
      std::fill(x_par.begin(), x_par.end(), 0.0);
      exec.solve(b, x_par, *ctx, exec.numThreads());
      EXPECT_EQ(x_serial, x_par) << name << " rep " << rep;
    }
  }
}

/// Epoch wraparound: when the per-context uint32 epoch overflows, the
/// completion flags are cleared and the counter restarts at 1 — a stale
/// flag can never alias a reissued epoch and release a waiter before its
/// dependency is computed.
TEST(P2pExecutor, EpochWraparoundResetsCompletionFlags) {
  const auto lower = datagen::erdosRenyiLower({.n = 300, .p = 1e-2, .seed = 98});
  const Dag d = Dag::fromLowerTriangular(lower);
  const auto spmp = baselines::spmpSchedule(d, {.num_cores = 2});
  const P2pExecutor exec(lower, spmp.schedule, spmp.reduced_dag);
  const auto ctx = exec.createContext();
  const auto x_true = referenceSolution(lower.rows(), 99);
  const auto b = rhsFor(lower, x_true);
  std::vector<double> expected(b.size(), 0.0), x(b.size(), 0.0);
  solveLowerSerial(lower, b, expected);

  exec.solve(b, x, *ctx, exec.numThreads());
  EXPECT_EQ(x, expected);
  EXPECT_EQ(ctx->currentEpoch(), 1u);

  // Jump to the last representable epoch: the next solve overflows, must
  // clear the stale flags (all stamped 1) and restart at epoch 1 rather
  // than hand out an epoch a stale flag could equal.
  SolveContextTestPeer::setEpoch(
      *ctx, std::numeric_limits<std::uint32_t>::max());
  for (int rep = 1; rep <= 3; ++rep) {
    std::fill(x.begin(), x.end(), -1.0);
    exec.solve(b, x, *ctx, exec.numThreads());
    EXPECT_EQ(x, expected) << "rep " << rep;
    EXPECT_EQ(ctx->currentEpoch(), static_cast<std::uint32_t>(rep));
  }
}

TEST(P2pExecutor, ConcurrentSolvesWithDistinctContexts) {
  const auto lower = datagen::erdosRenyiLower({.n = 400, .p = 8e-3, .seed = 89});
  const Dag d = Dag::fromLowerTriangular(lower);
  const auto spmp = baselines::spmpSchedule(d, {.num_cores = 2});
  const P2pExecutor exec(lower, spmp.schedule, spmp.reduced_dag);
  const auto x_true = referenceSolution(lower.rows(), 84);
  const auto b = rhsFor(lower, x_true);
  std::vector<double> expected(b.size(), 0.0);
  solveLowerSerial(lower, b, expected);

  constexpr int kThreads = 3;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto ctx = exec.createContext();
      std::vector<double> x(b.size(), 0.0);
      for (int rep = 0; rep < 3; ++rep) {
        std::fill(x.begin(), x.end(), -1.0);
        exec.solve(b, x, *ctx, exec.numThreads());
        if (x != expected) failures[static_cast<size_t>(t)] += 1;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

/// A team twice the machine's width leaves half the members descheduled
/// at any moment. Waiters on their completion flags must yield to them
/// rather than burn whole timeslices: the fastest of 11 oversubscribed
/// solves stays within 20x the fastest serial one. Without the yield every
/// solve stalls (over 1000x); best-of-11 keeps a machine loaded by other
/// tests from failing the check.
TEST(P2pExecutor, OversubscribedTeamStaysNearSerial) {
  const int team =
      2 * static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const auto lower = datagen::grid3dLaplacian7(30, 30, 30).lowerTriangle();
  const Dag d = Dag::fromLowerTriangular(lower);
  const auto spmp = baselines::spmpSchedule(d, {.num_cores = team});
  const P2pExecutor exec(lower, spmp.schedule, spmp.reduced_dag);
  const auto ctx = exec.createContext();
  const auto b = rhsFor(lower, referenceSolution(lower.rows(), 97));
  std::vector<double> expected(b.size(), 0.0), x(b.size(), 0.0);

  auto seconds = [](auto&& solve) {
    const auto t0 = std::chrono::steady_clock::now();
    solve();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  std::vector<double> serial, p2p;
  for (int rep = 0; rep < 11; ++rep) {
    serial.push_back(seconds([&] { solveLowerSerial(lower, b, expected); }));
    p2p.push_back(seconds([&] { exec.solve(b, x, *ctx, team); }));
    ASSERT_EQ(x, expected) << "rep " << rep;
  }
  const double serial_best = *std::min_element(serial.begin(), serial.end());
  const double p2p_best = *std::min_element(p2p.begin(), p2p.end());
  EXPECT_LE(p2p_best, 20.0 * serial_best)
      << "team " << team << ": fastest P2P " << p2p_best * 1e3
      << " ms vs serial " << serial_best * 1e3 << " ms";
}

TEST(P2pExecutor, ReductionShrinksCrossDependencies) {
  const auto lower = datagen::erdosRenyiLower({.n = 800, .p = 8e-3, .seed = 87});
  const Dag d = Dag::fromLowerTriangular(lower);
  const auto spmp = baselines::spmpSchedule(d, {.num_cores = 2});
  P2pExecutor full(lower, spmp.schedule, d);
  P2pExecutor reduced(lower, spmp.schedule, spmp.reduced_dag);
  EXPECT_LT(reduced.numCrossDependencies(), full.numCrossDependencies());
}

TEST(ContiguousExecutor, MatchesSerialWithinTolerance) {
  // The permuted matrix reorders row entries, so the sums can differ by
  // rounding; compare with a norm-wise tolerance.
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const Schedule s = core::growLocalSchedule(d, {.num_cores = 2});
    core::ReorderedProblem problem = core::reorderForLocality(lower, s);
    const ContiguousBspExecutor exec(problem.matrix, problem.num_supersteps,
                                     problem.num_cores, problem.group_ptr);
    const auto x_true = referenceSolution(lower.rows(), 88);
    const auto b = rhsFor(lower, x_true);
    const auto b_perm = sparse::permuteVector(b, problem.new_to_old);
    std::vector<double> x_perm(b.size(), 0.0);
    exec.solve(b_perm, x_perm, *exec.createContext(), exec.numThreads());
    const auto x = sparse::unpermuteVector(x_perm, problem.new_to_old);
    EXPECT_LT(relMaxAbsDiff(x, x_true), 1e-8) << name;
  }
}

/// Distinct contexts allow simultaneous solves on one executor; results
/// stay bit-identical to serial regardless of interleaving.
TEST(BspExecutor, ConcurrentSolvesWithDistinctContexts) {
  const auto lower = datagen::erdosRenyiLower({.n = 500, .p = 6e-3, .seed = 90});
  const Dag d = Dag::fromLowerTriangular(lower);
  const Schedule s = core::growLocalSchedule(d, {.num_cores = 2});
  const BspExecutor exec(lower, s);
  const auto x_true = referenceSolution(lower.rows(), 91);
  const auto b = rhsFor(lower, x_true);
  std::vector<double> expected(b.size(), 0.0);
  solveLowerSerial(lower, b, expected);

  constexpr int kThreads = 3;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto ctx = exec.createContext();
      std::vector<double> x(b.size(), 0.0);
      for (int rep = 0; rep < 3; ++rep) {
        std::fill(x.begin(), x.end(), -1.0);
        exec.solve(b, x, *ctx, exec.numThreads());
        if (x != expected) failures[static_cast<size_t>(t)] += 1;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

TEST(BspExecutor, MultiRhsMatchesSingleSolvesBitwise) {
  const auto lower = datagen::bandedLower(300, 7, 0.5, 92);
  const Dag d = Dag::fromLowerTriangular(lower);
  const Schedule s = core::growLocalSchedule(d, {.num_cores = 2});
  const BspExecutor exec(lower, s);
  const auto n = static_cast<size_t>(lower.rows());
  constexpr index_t kNrhs = 3;
  std::vector<double> b_multi(n * kNrhs), x_multi(n * kNrhs, 0.0);
  std::vector<std::vector<double>> expected;
  const auto ctx = exec.createContext();
  for (index_t c = 0; c < kNrhs; ++c) {
    const auto x_true = referenceSolution(lower.rows(), 93 + c);
    const auto b = rhsFor(lower, x_true);
    for (size_t i = 0; i < n; ++i) {
      b_multi[i * kNrhs + static_cast<size_t>(c)] = b[i];
    }
    expected.emplace_back(n, 0.0);
    exec.solve(b, expected.back(), *ctx, exec.numThreads());
  }
  // One tile of width nrhs is the row-major n x nrhs block itself.
  exec.solveMultiRhsTiled(b_multi, x_multi,
                          TileLayout(lower.rows(), kNrhs, kNrhs), *ctx,
                          exec.numThreads());
  for (index_t c = 0; c < kNrhs; ++c) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x_multi[i * kNrhs + static_cast<size_t>(c)],
                expected[static_cast<size_t>(c)][i]);
    }
  }
}

TEST(ContiguousExecutor, MultiRhsMatchesSingleSolvesBitwise) {
  const auto lower = datagen::bandedLower(300, 7, 0.5, 94);
  const Dag d = Dag::fromLowerTriangular(lower);
  const Schedule s = core::growLocalSchedule(d, {.num_cores = 2});
  core::ReorderedProblem problem = core::reorderForLocality(lower, s);
  const ContiguousBspExecutor exec(problem.matrix, problem.num_supersteps,
                                   problem.num_cores, problem.group_ptr);
  const auto n = static_cast<size_t>(lower.rows());
  constexpr index_t kNrhs = 3;
  std::vector<double> b_multi(n * kNrhs), x_multi(n * kNrhs, 0.0);
  std::vector<std::vector<double>> expected;
  const auto ctx = exec.createContext();
  for (index_t c = 0; c < kNrhs; ++c) {
    const auto x_true = referenceSolution(lower.rows(), 95 + c);
    const auto b_perm =
        sparse::permuteVector(rhsFor(lower, x_true), problem.new_to_old);
    for (size_t i = 0; i < n; ++i) {
      b_multi[i * kNrhs + static_cast<size_t>(c)] = b_perm[i];
    }
    expected.emplace_back(n, 0.0);
    exec.solve(b_perm, expected.back(), *ctx, exec.numThreads());
  }
  exec.solveMultiRhsTiled(b_multi, x_multi,
                          TileLayout(lower.rows(), kNrhs, kNrhs), *ctx,
                          exec.numThreads());
  for (index_t c = 0; c < kNrhs; ++c) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x_multi[i * kNrhs + static_cast<size_t>(c)],
                expected[static_cast<size_t>(c)][i]);
    }
  }
}

TEST(P2pExecutor, MultiRhsMatchesSerial) {
  const auto lower = datagen::erdosRenyiLower({.n = 400, .p = 8e-3, .seed = 96});
  const Dag d = Dag::fromLowerTriangular(lower);
  const auto spmp = baselines::spmpSchedule(d, {.num_cores = 2});
  const P2pExecutor exec(lower, spmp.schedule, spmp.reduced_dag);
  const auto n = static_cast<size_t>(lower.rows());
  constexpr index_t kNrhs = 3;
  std::vector<double> b_multi(n * kNrhs), x_multi(n * kNrhs, 0.0);
  std::vector<std::vector<double>> expected;
  for (index_t c = 0; c < kNrhs; ++c) {
    const auto x_true = referenceSolution(lower.rows(), 97 + c);
    const auto b = rhsFor(lower, x_true);
    for (size_t i = 0; i < n; ++i) {
      b_multi[i * kNrhs + static_cast<size_t>(c)] = b[i];
    }
    expected.emplace_back(n, 0.0);
    solveLowerSerial(lower, b, expected.back());
  }
  const auto ctx = exec.createContext();
  exec.solveMultiRhsTiled(b_multi, x_multi,
                          TileLayout(lower.rows(), kNrhs, kNrhs), *ctx,
                          exec.numThreads());
  for (index_t c = 0; c < kNrhs; ++c) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x_multi[i * kNrhs + static_cast<size_t>(c)],
                expected[static_cast<size_t>(c)][i]);
    }
  }
}

TEST(VerifyHelpers, Norms) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {1.0, 2.5, 3.0};
  EXPECT_DOUBLE_EQ(maxAbsDiff(a, b), 0.5);
  EXPECT_DOUBLE_EQ(relMaxAbsDiff(a, b), 0.5 / 3.0);
  EXPECT_THROW(maxAbsDiff(a, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(VerifyHelpers, ReferenceSolutionDeterministicNonZero) {
  const auto x1 = referenceSolution(100, 5);
  const auto x2 = referenceSolution(100, 5);
  EXPECT_EQ(x1, x2);
  for (const double v : x1) {
    EXPECT_GE(std::abs(v), 0.1);
    EXPECT_LE(std::abs(v), 1.0);
  }
}

}  // namespace
}  // namespace sts::exec

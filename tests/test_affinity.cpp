#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/random_matrices.hpp"
#include "engine/core_budget.hpp"
#include "engine/solver_engine.hpp"
#include "exec/affinity.hpp"
#include "exec/solver.hpp"
#include "exec/verify.hpp"
#include "test_util.hpp"

/// \file test_affinity.cpp
/// The core-set affinity layer: CoreBudget's core-set mode hands out
/// provably DISJOINT CPU-id sets under concurrent acquire/release (the
/// TSan-covered "never overlap" invariant), the exec affinity helpers pin
/// and restore correctly (and degrade to no-ops without platform support),
/// pinned solves are bitwise identical to unpinned ones for every executor
/// kind, and a pin_threads engine serves bitwise results while reporting
/// its pin/migration counters.

namespace sts {
namespace {

using engine::CoreBudget;
using exec::SchedulerKind;
using exec::SolverOptions;
using exec::TriangularSolver;

// ------------------------------------------------------- core-set budget --

TEST(CoreSetBudget, GrantsExplicitDisjointIds) {
  CoreBudget budget(std::vector<int>{2, 4, 6, 8});
  EXPECT_TRUE(budget.limited());
  EXPECT_TRUE(budget.hasCoreSet());
  EXPECT_EQ(budget.total(), 4);
  ASSERT_EQ(budget.coreSet().size(), 4u);
  EXPECT_EQ(budget.coreSet()[0], 2);  // stored sorted

  auto a = budget.acquire(3);
  EXPECT_EQ(a.count, 3);
  ASSERT_EQ(a.ids.size(), 3u);
  // Lowest free ids first: repeated bursts land on the same cores.
  EXPECT_EQ(a.ids, (std::vector<int>{2, 4, 6}));

  // Partial grant: the one remaining id, disjoint from the first grant.
  auto partial = budget.acquire(3);
  EXPECT_EQ(partial.count, 1);
  ASSERT_EQ(partial.ids.size(), 1u);
  EXPECT_EQ(partial.ids.front(), 8);
  EXPECT_EQ(budget.inUse(), 4);
  EXPECT_EQ(budget.throttledAcquires(), 1u);

  // Release returns those exact ids; the next grant sees them again.
  budget.release(std::move(a));
  auto b = budget.acquire(2);
  EXPECT_EQ(b.ids, (std::vector<int>{2, 4}));
  budget.release(std::move(b));
  budget.release(std::move(partial));
  EXPECT_EQ(budget.inUse(), 0);
  EXPECT_EQ(budget.peakInUse(), 4);
}

TEST(CoreSetBudget, RejectsBadSetsAndMismatchedReleases) {
  EXPECT_THROW(CoreBudget(std::vector<int>{}), std::invalid_argument);
  EXPECT_THROW(CoreBudget(std::vector<int>{0, 1, 1}), std::invalid_argument);
  EXPECT_THROW(CoreBudget(std::vector<int>{-1, 0}), std::invalid_argument);

  CoreBudget budget(std::vector<int>{0, 1});
  auto grant = budget.acquire(1);
  CoreBudget::Grant sliced;
  sliced.count = grant.count;  // ids lost: release must refuse
  EXPECT_THROW(budget.release(std::move(sliced)), std::invalid_argument);
  budget.release(std::move(grant));
  EXPECT_EQ(budget.inUse(), 0);
}

TEST(CoreSetBudget, LeaseExposesCores) {
  CoreBudget budget(std::vector<int>{3, 5});
  {
    CoreBudget::Lease lease(budget, 2);
    EXPECT_EQ(lease.granted(), 2);
    ASSERT_EQ(lease.cores().size(), 2u);
    EXPECT_EQ(lease.cores()[0], 3);
    EXPECT_EQ(lease.cores()[1], 5);
    EXPECT_EQ(budget.inUse(), 2);
  }
  EXPECT_EQ(budget.inUse(), 0);

  // Counting-mode leases stay anonymous.
  CoreBudget counting(2);
  CoreBudget::Lease lease(counting, 2);
  EXPECT_EQ(lease.granted(), 2);
  EXPECT_TRUE(lease.cores().empty());
}

/// The tentpole invariant, checked from the outside: under concurrent
/// acquire/release no CPU id is ever leased to two grants at once, and the
/// aggregate never exceeds the set size. Runs under TSan in CI.
TEST(CoreSetBudget, ConcurrentLeasesAreDisjoint) {
  constexpr int kCores = 6;
  constexpr int kThreads = 8;
  constexpr int kIterations = 200;
  std::vector<int> set(kCores);
  for (int c = 0; c < kCores; ++c) set[static_cast<size_t>(c)] = c;
  CoreBudget budget{std::vector<int>(set)};

  std::array<std::atomic<int>, kCores> owners{};
  std::atomic<int> outstanding{0};
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      std::mt19937 rng(static_cast<unsigned>(i));
      for (int it = 0; it < kIterations; ++it) {
        const int desired = 1 + static_cast<int>(rng() % 4);
        CoreBudget::Lease lease(budget, desired);
        if (static_cast<int>(lease.cores().size()) != lease.granted()) {
          violations.fetch_add(1);
        }
        for (const int id : lease.cores()) {
          // fetch_add returning nonzero = some other live lease holds id.
          if (owners[static_cast<size_t>(id)].fetch_add(1) != 0) {
            violations.fetch_add(1);
          }
        }
        const int now =
            outstanding.fetch_add(lease.granted()) + lease.granted();
        if (now > kCores) violations.fetch_add(1);
        outstanding.fetch_sub(lease.granted());
        for (const int id : lease.cores()) {
          owners[static_cast<size_t>(id)].fetch_sub(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(budget.inUse(), 0);
  EXPECT_LE(budget.peakInUse(), kCores);
}

// ------------------------------------------------------ affinity helpers --

TEST(Affinity, QueriesMatchSupport) {
  if (!exec::affinitySupported()) {
    EXPECT_TRUE(exec::systemCoreSet().empty());
    EXPECT_TRUE(exec::threadAffinity().empty());
    EXPECT_EQ(exec::currentCpu(), -1);
    return;
  }
  const auto set = exec::systemCoreSet();
  ASSERT_FALSE(set.empty());
  EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
  const int cpu = exec::currentCpu();
  EXPECT_NE(std::find(set.begin(), set.end(), cpu), set.end())
      << "running CPU must be in the process core set";
  EXPECT_FALSE(exec::threadAffinity().empty());
}

TEST(Affinity, ScopedPinPinsAndRestores) {
  const auto set = exec::systemCoreSet();
  if (!exec::affinitySupported()) {
    const std::vector<int> fake{0};
    const exec::ScopedPin pin(fake, 0);
    EXPECT_FALSE(pin.pinned());  // portable fallback: documented no-op
    EXPECT_FALSE(pin.migrated());
    return;
  }
  ASSERT_FALSE(set.empty());
  const auto before = exec::threadAffinity();
  {
    const exec::ScopedPin pin(set, 0);
    ASSERT_TRUE(pin.pinned());
    EXPECT_EQ(pin.cpu(), set.front());
    EXPECT_EQ(exec::threadAffinity(), std::vector<int>{set.front()})
        << "while pinned the thread mask is exactly the target core";
    EXPECT_EQ(exec::currentCpu(), set.front());
  }
  EXPECT_EQ(exec::threadAffinity(), before)
      << "destruction must restore the previous mask";

  // Rank wraps around the set: rank == size pins to the first core again.
  const exec::ScopedPin wrapped(set, static_cast<int>(set.size()));
  EXPECT_TRUE(wrapped.pinned());
  EXPECT_EQ(wrapped.cpu(), set.front());

  // Empty set: inactive by contract.
  const exec::ScopedPin idle(std::vector<int>{}, 0);
  EXPECT_FALSE(idle.pinned());
}

// -------------------------------------------------- pinned solve bitwise --

struct KindConfig {
  SchedulerKind kind;
  bool reorder;  ///< true exercises ContiguousBspExecutor for GrowLocal
};

/// Pinning is placement only: for every executor kind (BSP, contiguous
/// BSP, P2P — and serial) a solve on a pinned context is bitwise identical
/// to the unpinned solve, at full width and folded.
TEST(Affinity, PinnedSolveBitwiseMatchesUnpinned) {
  const auto lower = datagen::bandedLower(240, 7, 0.5, 91);
  const auto x_true = exec::referenceSolution(lower.rows(), 92);
  const auto b = lower.multiply(x_true);
  const int width = 4;

  std::vector<int> pin_set = exec::systemCoreSet();
  if (pin_set.empty()) pin_set = {0};  // unsupported: ScopedPin no-ops

  const std::vector<KindConfig> kinds = {
      {SchedulerKind::kGrowLocal, true},   // ContiguousBspExecutor
      {SchedulerKind::kGrowLocal, false},  // BspExecutor
      {SchedulerKind::kFunnelGrowLocal, true},
      {SchedulerKind::kWavefront, false},
      {SchedulerKind::kHdagg, false},
      {SchedulerKind::kBspList, false},
      {SchedulerKind::kSpmp, false},  // P2pExecutor
      {SchedulerKind::kSerial, false},
  };
  for (const auto& kc : kinds) {
    SolverOptions opts;
    opts.scheduler = kc.kind;
    opts.num_threads = width;
    opts.reorder = kc.reorder;
    const auto solver = TriangularSolver::analyze(lower, opts);

    for (int team = 1; team <= solver.numThreads(); ++team) {
      std::vector<double> x_plain(b.size(), 0.0);
      std::vector<double> x_pinned(b.size(), 1.0);
      {
        auto ctx = solver.createContext();
        solver.solve(b, x_plain, *ctx, team);
      }
      {
        auto ctx = solver.createContext();
        ctx->setPinnedCores(pin_set);
        solver.solve(b, x_pinned, *ctx, team);
        if (exec::affinitySupported()) {
          EXPECT_GT(ctx->pinnedThreads(), 0u)
              << exec::schedulerKindName(kc.kind) << " team " << team;
        }
        ctx->clearPinnedCores();
        EXPECT_EQ(ctx->pinnedThreads(), 0u);  // clear resets the counters
      }
      EXPECT_EQ(x_pinned, x_plain)
          << exec::schedulerKindName(kc.kind) << " reorder " << kc.reorder
          << " team " << team;
    }
  }
}

// --------------------------------------------------------- pinned engine --

std::shared_ptr<const TriangularSolver> analyzeWidth(
    const sparse::CsrMatrix& matrix, int width, bool reorder = false) {
  SolverOptions opts;
  opts.num_threads = width;
  opts.reorder = reorder;
  return std::make_shared<const TriangularSolver>(
      TriangularSolver::analyze(matrix, opts));
}

/// pin_threads end to end: results stay bitwise, every batch is pinned
/// (when the platform supports it), and the budget's core-set invariants
/// hold across concurrent workers. The upper input is reversed, then
/// reordered, and coalesces, so the engine's tiled pack and unpack cross a
/// real permutation on pinned teams. Runs under TSan in CI.
TEST(AffinityEngine, PinnedServingIsBitwiseAndCounted) {
  const auto lower = datagen::bandedLower(300, 8, 0.5, 93);
  for (const bool upper : {false, true}) {
    SCOPED_TRACE(upper ? "upper" : "lower");
    const sparse::CsrMatrix matrix = upper ? lower.transposed() : lower;
    auto solver = analyzeWidth(matrix, 4, /*reorder=*/upper);
    const auto x_true = exec::referenceSolution(matrix.rows(), 94);
    const auto b = matrix.multiply(x_true);
    std::vector<double> expected(b.size(), 0.0);
    {
      auto ctx = solver->createContext();
      solver->solve(b, expected, *ctx, solver->numThreads());
    }

    engine::EngineOptions options;
    options.num_workers = 4;
    // Lower: one batch per request, maximal contention.
    if (!upper) options.max_batch = 1;
    options.start_paused = true;
    options.team_size = 4;
    options.pin_threads = true;  // core set auto-detected from the process
    engine::SolverEngine engine(options);
    const auto id = engine.registerSolver(solver);

    constexpr int kRequests = 32;
    std::vector<std::future<std::vector<double>>> futures;
    for (int r = 0; r < kRequests; ++r) futures.push_back(engine.submit(id, b));
    engine.resume();
    for (auto& f : futures) EXPECT_EQ(f.get(), expected);
    engine.drain();

    const auto stats = engine.stats(id);
    EXPECT_EQ(stats.rhs_solved, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(engine.coreBudget().inUse(), 0);
    if (upper) {
      EXPECT_GT(stats.tiled_batches, 0u);
    }
    if (exec::affinitySupported()) {
      const int cores = static_cast<int>(exec::systemCoreSet().size());
      EXPECT_TRUE(engine.coreBudget().hasCoreSet());
      EXPECT_EQ(engine.coreBudget().total(), cores);
      EXPECT_LE(engine.coreBudget().peakInUse(), cores);
      EXPECT_EQ(stats.pinned_batches, stats.batches)
          << "every batch must execute on a pinned team";
      EXPECT_GE(stats.pinned_threads, stats.pinned_batches)
          << "each pinned batch pins at least one team member";
      // Teams never exceed the disjoint core set they leased.
      EXPECT_LE(stats.mean_team_size, static_cast<double>(cores));
    } else {
      EXPECT_FALSE(engine.coreBudget().hasCoreSet());
      EXPECT_EQ(stats.pinned_batches, 0u);
      EXPECT_EQ(stats.pinned_threads, 0u);
    }
  }
}

/// core_budget caps how much of an explicit core_set is usable (the
/// option-interaction table in engine/types.hpp).
TEST(AffinityEngine, CoreBudgetTruncatesCoreSet) {
  const auto lower = datagen::bandedLower(200, 6, 0.5, 95);
  auto solver = analyzeWidth(lower, 4);
  const auto x_true = exec::referenceSolution(lower.rows(), 96);
  const auto b = lower.multiply(x_true);
  std::vector<double> expected(b.size(), 0.0);
  {
    auto ctx = solver->createContext();
    solver->solve(b, expected, *ctx, solver->numThreads());
  }

  std::vector<int> set = exec::systemCoreSet();
  if (set.empty()) set = {0};  // explicit sets work without pinning too

  engine::EngineOptions options;
  options.num_workers = 2;
  options.start_paused = true;
  options.core_set = set;
  options.core_budget = 1;  // usable slice of the set: exactly one id
  engine::SolverEngine engine(options);
  EXPECT_TRUE(engine.coreBudget().hasCoreSet());
  EXPECT_EQ(engine.coreBudget().total(), 1);
  ASSERT_EQ(engine.coreBudget().coreSet().size(), 1u);
  EXPECT_EQ(engine.coreBudget().coreSet()[0],
            *std::min_element(set.begin(), set.end()));

  const auto id = engine.registerSolver(solver);
  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < 8; ++r) futures.push_back(engine.submit(id, b));
  engine.resume();
  for (auto& f : futures) EXPECT_EQ(f.get(), expected);
  engine.drain();

  const auto stats = engine.stats(id);
  EXPECT_LE(engine.coreBudget().peakInUse(), 1);
  EXPECT_DOUBLE_EQ(stats.mean_team_size, 1.0)
      << "a one-core budget admits only one-thread teams";
}

}  // namespace
}  // namespace sts

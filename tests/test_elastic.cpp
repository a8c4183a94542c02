#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/bsplist.hpp"
#include "baselines/hdagg.hpp"
#include "baselines/spmp.hpp"
#include "baselines/wavefront.hpp"
#include "core/coarsen.hpp"
#include "core/growlocal.hpp"
#include "core/schedule.hpp"
#include "dag/dag.hpp"
#include "engine/request_queue.hpp"
#include "engine/solver_engine.hpp"
#include "exec/bsp.hpp"
#include "exec/serial.hpp"
#include "exec/solver.hpp"
#include "exec/verify.hpp"
#include "test_util.hpp"

/// \file test_elastic.cpp
/// The elasticity contract: schedules fold to any smaller team
/// (Schedule::foldTo) with validity preserved, folded solves are bitwise
/// equal to full-width solves for every scheduler kind and every team
/// size, mixed team sizes are safe concurrently on one solver (the lazy
/// folded-plan cache is exercised under TSan in CI), the analyze-time
/// thread-count clamp is surfaced and lossless, and the engine's elastic
/// policy shrinks teams exactly under deep backlog.

namespace sts {
namespace {

using core::Schedule;
using core::validateSchedule;
using dag::Dag;
using exec::SchedulerKind;
using exec::SolverOptions;
using exec::TriangularSolver;

using SchedulerFn = std::function<Schedule(const Dag&, int cores)>;

struct SchedulerCase {
  std::string name;
  SchedulerFn run;
};

std::vector<SchedulerCase> schedulerCases() {
  return {
      {"GrowLocal",
       [](const Dag& d, int cores) {
         return core::growLocalSchedule(d, {.num_cores = cores});
       }},
      {"FunnelGrowLocal",
       [](const Dag& d, int cores) {
         return core::funnelGrowLocalSchedule(d, {.num_cores = cores});
       }},
      {"Wavefront",
       [](const Dag& d, int cores) {
         return baselines::wavefrontSchedule(d, {.num_cores = cores});
       }},
      {"HDagg",
       [](const Dag& d, int cores) {
         baselines::HdaggOptions opts;
         opts.num_cores = cores;
         return baselines::hdaggSchedule(d, opts);
       }},
      {"SpMP",
       [](const Dag& d, int cores) {
         baselines::SpmpOptions opts;
         opts.num_cores = cores;
         return baselines::spmpSchedule(d, opts).schedule;
       }},
      {"BSPg",
       [](const Dag& d, int cores) {
         return baselines::bspListSchedule(d, {.num_cores = cores});
       }},
  };
}

TEST(ScheduleFold, PreservesValidityForEverySchedulerAndTeam) {
  const auto matrices = {datagen::bandedLower(300, 8, 0.5, 11),
                         datagen::erdosRenyiLower({.n = 400, .p = 8e-3,
                                                   .seed = 12}),
                         datagen::grid2dLaplacian5(12, 18).lowerTriangle()};
  for (const auto& lower : matrices) {
    const Dag d = Dag::fromLowerTriangular(lower);
    for (const auto& scheduler : schedulerCases()) {
      for (const int cores : {3, 4}) {
        const Schedule full = scheduler.run(d, cores);
        ASSERT_TRUE(validateSchedule(d, full).ok) << scheduler.name;
        for (int t = 1; t <= full.numCores(); ++t) {
          const Schedule folded = full.foldTo(t);
          EXPECT_EQ(folded.numCores(), t);
          EXPECT_EQ(folded.numSupersteps(), full.numSupersteps())
              << scheduler.name << " fold to " << t
              << " must preserve superstep structure";
          EXPECT_EQ(folded.numVertices(), full.numVertices());
          const auto validation = validateSchedule(d, folded);
          EXPECT_TRUE(validation.ok)
              << scheduler.name << " folded to " << t << " cores: "
              << validation.message;
          // Rank map is p -> p mod t.
          for (index_t v = 0; v < full.numVertices(); ++v) {
            ASSERT_EQ(folded.coreOf(v), full.coreOf(v) % t);
            ASSERT_EQ(folded.superstepOf(v), full.superstepOf(v));
          }
        }
      }
    }
  }
}

/// Pins the executor-side fold (elastic.hpp foldThreadLists) to
/// core::Schedule::foldTo: an executor constructed from the folded
/// schedule must agree bitwise with the full-width executor solving
/// elastically at the same team size.
TEST(ScheduleFold, ExecutorFoldMatchesScheduleFold) {
  const auto lower = datagen::erdosRenyiLower({.n = 400, .p = 8e-3,
                                               .seed = 71});
  const Dag d = Dag::fromLowerTriangular(lower);
  const Schedule full = core::growLocalSchedule(d, {.num_cores = 4});
  const exec::BspExecutor exec_full(lower, full);
  const auto x_true = exec::referenceSolution(lower.rows(), 72);
  const auto b = lower.multiply(x_true);
  const auto n = static_cast<size_t>(lower.rows());
  for (int t = 1; t <= full.numCores(); ++t) {
    const Schedule folded = full.foldTo(t);
    const exec::BspExecutor exec_folded(lower, folded);
    std::vector<double> x_elastic(n, 0.0);
    std::vector<double> x_refolded(n, 1.0);
    auto ctx = exec_full.createContext();
    exec_full.solve(b, x_elastic, *ctx, t);
    exec_folded.solve(b, x_refolded);
    EXPECT_EQ(x_elastic, x_refolded) << "team " << t;
  }
}

TEST(ScheduleFold, RejectsBadTargets) {
  const auto lower = datagen::bandedLower(100, 4, 0.5, 13);
  const Dag d = Dag::fromLowerTriangular(lower);
  const Schedule s = core::growLocalSchedule(d, {.num_cores = 4});
  EXPECT_THROW(s.foldTo(0), std::invalid_argument);
  EXPECT_THROW(s.foldTo(-1), std::invalid_argument);
  EXPECT_THROW(s.foldTo(5), std::invalid_argument);
  const Schedule same = s.foldTo(4);
  EXPECT_EQ(same.numCores(), 4);
}

/// The acceptance criterion: folded solves bitwise equal to full-width
/// solves for every scheduler kind and every t <= numThreads(), across
/// all three executor families (contiguous via reorder, plain BSP, P2P).
TEST(ElasticSolve, FoldedBitwiseEqualsFullWidthEveryKindEveryTeam) {
  struct KindCase {
    SchedulerKind kind;
    bool reorder;
  };
  const std::vector<KindCase> kinds = {
      {SchedulerKind::kGrowLocal, true},
      {SchedulerKind::kGrowLocal, false},
      {SchedulerKind::kFunnelGrowLocal, true},
      {SchedulerKind::kWavefront, false},
      {SchedulerKind::kHdagg, false},
      {SchedulerKind::kSpmp, false},
      {SchedulerKind::kBspList, false},
      {SchedulerKind::kSerial, false},
  };
  const auto lower = datagen::erdosRenyiLower({.n = 500, .p = 6e-3,
                                               .seed = 21});
  const auto x_true = exec::referenceSolution(lower.rows(), 22);
  const auto b = lower.multiply(x_true);
  const auto n = static_cast<size_t>(lower.rows());

  constexpr index_t kNrhs = 3;
  std::vector<double> b_multi(n * kNrhs);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < kNrhs; ++c) b_multi[i * kNrhs + c] = b[i] + static_cast<double>(c);
  }

  for (const auto& kc : kinds) {
    SolverOptions opts;
    opts.scheduler = kc.kind;
    opts.reorder = kc.reorder;
    opts.num_threads = 4;
    const auto solver = TriangularSolver::analyze(lower, opts);
    const int width = solver.numThreads();
    auto ctx = solver.createContext();

    std::vector<double> x_full(n, 0.0);
    solver.solve(b, x_full, *ctx, width);
    std::vector<double> x_multi_full(n * kNrhs, 0.0);
    solver.solveMultiRhs(b_multi, x_multi_full, kNrhs, *ctx, width);

    for (int t = 1; t <= width; ++t) {
      std::vector<double> x_t(n, 1e300);
      solver.solve(b, x_t, *ctx, t);
      EXPECT_EQ(x_t, x_full)
          << exec::schedulerKindName(kc.kind) << " reorder=" << kc.reorder
          << " team " << t << " not bitwise equal to full width";
      std::vector<double> x_multi_t(n * kNrhs, 1e300);
      solver.solveMultiRhs(b_multi, x_multi_t, kNrhs, *ctx, t);
      EXPECT_EQ(x_multi_t, x_multi_full)
          << exec::schedulerKindName(kc.kind) << " multiRhs team " << t;
    }
    // Teams above the width clamp losslessly; zero throws.
    std::vector<double> x_clamped(n, 0.0);
    solver.solve(b, x_clamped, *ctx, width + 7);
    EXPECT_EQ(x_clamped, x_full);
    EXPECT_THROW(solver.solve(b, x_clamped, *ctx, 0), std::invalid_argument);
  }
}

/// Mixed team sizes and fold policies on one solver, concurrently, each
/// solve on its own context — the folded-plan caches are built lazily
/// under contention.
/// Runs under TSan in CI ("Concurrent" filter).
TEST(ElasticSolve, ConcurrentMixedTeamSolves) {
  struct SolverCase {
    SchedulerKind kind;
    bool reorder;
  };
  const std::vector<SolverCase> cases = {
      {SchedulerKind::kGrowLocal, true},   // contiguous executor
      {SchedulerKind::kGrowLocal, false},  // plain BSP executor
      {SchedulerKind::kSpmp, false},       // P2P executor
  };
  const auto lower = datagen::bandedLower(250, 8, 0.5, 31);
  const auto x_true = exec::referenceSolution(lower.rows(), 32);
  const auto b = lower.multiply(x_true);
  const auto n = static_cast<size_t>(lower.rows());

  for (const auto& sc : cases) {
    SolverOptions opts;
    opts.scheduler = sc.kind;
    opts.reorder = sc.reorder;
    opts.num_threads = 4;
    const auto solver = TriangularSolver::analyze(lower, opts);
    const int width = solver.numThreads();

    std::vector<double> expected(n, 0.0);
    {
      auto ctx = solver.createContext();
      solver.solve(b, expected, *ctx, width);
    }

    constexpr int kThreads = 4;
    constexpr int kSolvesPerThread = 4;
    std::vector<int> failures(kThreads, 0);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        const auto ctx = solver.createContext();
        std::vector<double> x(n, 0.0);
        // Alternate policies across threads, so kBinPack plan builds race
        // kModulo ones as well as each other.
        const auto policy = i % 2 == 0 ? core::FoldPolicy::kModulo
                                       : core::FoldPolicy::kBinPack;
        for (int r = 0; r < kSolvesPerThread; ++r) {
          // Every thread cycles through all team sizes, so plan builds for
          // each size race on first use.
          const int team = 1 + (i + r) % width;
          solver.solve(b, x, *ctx, team, policy);
          if (x != expected) ++failures[static_cast<size_t>(i)];
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int i = 0; i < kThreads; ++i) {
      EXPECT_EQ(failures[static_cast<size_t>(i)], 0)
          << exec::schedulerKindName(sc.kind) << " reorder=" << sc.reorder
          << " thread " << i;
    }
  }
}

/// The lossless clamp: analyzing for far more threads than the host has
/// keeps the schedule at the requested width but caps the default team at
/// hardware_concurrency(), so default solves never oversubscribe — and the
/// folded execution still matches the serial reference bitwise.
TEST(ElasticSolve, OversubscribedAnalyzeClampsDefaultTeam) {
  const auto lower = datagen::bandedLower(200, 6, 0.5, 41);
  SolverOptions opts;
  opts.num_threads = 64;
  opts.reorder = false;
  const auto solver = TriangularSolver::analyze(lower, opts);
  EXPECT_EQ(solver.numThreads(), 64);
  EXPECT_EQ(solver.schedule().numCores(), 64);

  const auto hw = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_GE(solver.defaultTeam(), 1);
  if (hw > 0) {
    EXPECT_LE(solver.defaultTeam(), hw);
  }
  EXPECT_LE(solver.defaultTeam(), solver.numThreads());

  const auto x_true = exec::referenceSolution(lower.rows(), 42);
  const auto b = lower.multiply(x_true);
  std::vector<double> expected(b.size(), 0.0);
  exec::solveLowerSerial(lower, b, expected);
  std::vector<double> x(b.size(), 0.0);
  solver.solve(b, x);  // default team: clamped, folded, lossless
  EXPECT_EQ(x, expected);
}

std::shared_ptr<const TriangularSolver> analyzeWide(
    const sparse::CsrMatrix& lower, int width) {
  SolverOptions opts;
  opts.num_threads = width;
  opts.reorder = false;
  return std::make_shared<const TriangularSolver>(
      TriangularSolver::analyze(lower, opts));
}

TEST(ElasticEngine, FixedTeamServesBitwise) {
  const auto lower = datagen::bandedLower(300, 8, 0.5, 51);
  auto solver = analyzeWide(lower, 4);
  const auto x_true = exec::referenceSolution(lower.rows(), 52);
  const auto b = lower.multiply(x_true);
  std::vector<double> expected(b.size(), 0.0);
  {
    auto ctx = solver->createContext();
    solver->solve(b, expected, *ctx, solver->numThreads());
  }

  engine::EngineOptions options;
  options.num_workers = 2;
  options.team_size = 1;  // pinned shrunk team; folding keeps it bitwise
  engine::SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);
  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < 8; ++r) futures.push_back(engine.submit(id, b));
  for (auto& f : futures) EXPECT_EQ(f.get(), expected);
  engine.drain();

  const auto stats = engine.stats(id);
  EXPECT_DOUBLE_EQ(stats.mean_team_size, 1.0);
  EXPECT_EQ(stats.shrunk_batches, 0u);  // fixed team is the base itself
}

TEST(ElasticEngine, AdaptivePolicyShrinksUnderDeepBacklogOnly) {
  const auto lower = datagen::bandedLower(300, 8, 0.5, 61);
  auto solver = analyzeWide(lower, 4);
  const auto x_true = exec::referenceSolution(lower.rows(), 62);
  const auto b = lower.multiply(x_true);
  std::vector<double> expected(b.size(), 0.0);
  {
    auto ctx = solver->createContext();
    solver->solve(b, expected, *ctx, solver->numThreads());
  }

  engine::EngineOptions options;
  options.num_workers = 2;
  options.coalesce = false;  // one batch per request: many team decisions
  options.start_paused = true;
  options.elastic = true;
  options.team_size = 4;  // elastic base width (host-independent)
  options.elastic_deep_queue = 1;
  engine::SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);

  constexpr int kRequests = 16;
  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < kRequests; ++r) futures.push_back(engine.submit(id, b));
  engine.resume();
  for (auto& f : futures) EXPECT_EQ(f.get(), expected);
  engine.drain();

  const auto stats = engine.stats(id);
  EXPECT_EQ(stats.rhs_solved, static_cast<std::uint64_t>(kRequests));
  // A staged backlog of 16 guarantees deep-queue pops: at least the first
  // pop leaves 15 pending, so some batches must have run shrunk
  // (ceil(4 / 2 workers) = 2 < base 4).
  EXPECT_GT(stats.shrunk_batches, 0u);
  EXPECT_LT(stats.mean_team_size, 4.0);
  EXPECT_GE(stats.mean_team_size, 1.0);
}

TEST(ElasticEngine, MinTeamIsValidatedAndNeverWidensPastBase) {
  engine::EngineOptions bad;
  bad.elastic_min_team = 0;
  EXPECT_THROW(engine::SolverEngine{bad}, std::invalid_argument);

  const auto lower = datagen::bandedLower(200, 6, 0.5, 71);
  auto solver = analyzeWide(lower, 4);
  const auto x_true = exec::referenceSolution(lower.rows(), 72);
  const auto b = lower.multiply(x_true);
  std::vector<double> expected(b.size(), 0.0);
  {
    auto ctx = solver->createContext();
    solver->solve(b, expected, *ctx, solver->numThreads());
  }

  engine::EngineOptions options;
  options.num_workers = 2;
  options.coalesce = false;
  options.start_paused = true;
  options.elastic = true;
  options.team_size = 2;        // base width
  options.elastic_min_team = 8; // above the base: must cap, not widen
  options.elastic_deep_queue = 1;
  engine::SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);
  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < 8; ++r) futures.push_back(engine.submit(id, b));
  engine.resume();
  for (auto& f : futures) EXPECT_EQ(f.get(), expected);
  engine.drain();
  const auto stats = engine.stats(id);
  EXPECT_LE(stats.mean_team_size, 2.0);
  EXPECT_GE(stats.mean_team_size, 1.0);
}

engine::SolveRequest makeRequest(engine::SolverId solver, index_t nrhs) {
  engine::SolveRequest r;
  r.solver = solver;
  r.nrhs = nrhs;
  return r;
}

TEST(RequestQueueCompaction, CoalescesInOnePassPreservingFifo) {
  engine::RequestQueue queue;
  // A B A A B A — coalescing A must take the A's in order and leave B B A'
  // (budget 4 stops before the last A).
  for (const auto& [solver, nrhs] :
       std::vector<std::pair<engine::SolverId, index_t>>{
           {0, 1}, {1, 1}, {0, 1}, {0, 1}, {1, 1}, {0, 1}}) {
    queue.push(makeRequest(solver, nrhs));
  }
  std::size_t backlog = 99;
  auto batch = queue.popBatch(/*max_rhs=*/4, /*coalesce=*/true, &backlog);
  ASSERT_EQ(batch.size(), 4u);
  for (const auto& r : batch) EXPECT_EQ(r.solver, 0u);
  EXPECT_EQ(backlog, 2u);
  EXPECT_EQ(queue.size(), 2u);

  // Remaining: B B — pops as one coalesced batch.
  batch = queue.popBatch(4, true, &backlog);
  ASSERT_EQ(batch.size(), 2u);
  for (const auto& r : batch) EXPECT_EQ(r.solver, 1u);
  EXPECT_EQ(backlog, 0u);
}

TEST(RequestQueueCompaction, EarlyBudgetStopLeavesTailUntouched) {
  engine::RequestQueue queue;
  // A A A A: budget 2 takes the head plus one — the matching prefix means
  // the compaction pass stops early with the tail already in place.
  for (int i = 0; i < 4; ++i) queue.push(makeRequest(0, 1));
  auto batch = queue.popBatch(/*max_rhs=*/2, /*coalesce=*/true);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(queue.size(), 2u);
  batch = queue.popBatch(/*max_rhs=*/8, /*coalesce=*/true);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(RequestQueueCompaction, MultiRhsRequestsNeverCoalesce) {
  engine::RequestQueue queue;
  queue.push(makeRequest(0, 1));
  queue.push(makeRequest(0, 2));  // multi-RHS: must stay alone
  queue.push(makeRequest(0, 1));
  auto batch = queue.popBatch(8, true);
  ASSERT_EQ(batch.size(), 2u);  // the two nrhs==1 requests
  EXPECT_EQ(batch[0].nrhs, 1);
  EXPECT_EQ(batch[1].nrhs, 1);
  batch = queue.popBatch(8, true);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].nrhs, 2);
}

}  // namespace
}  // namespace sts

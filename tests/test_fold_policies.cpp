#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "baselines/bsplist.hpp"
#include "baselines/hdagg.hpp"
#include "baselines/spmp.hpp"
#include "baselines/wavefront.hpp"
#include "core/growlocal.hpp"
#include "core/schedule.hpp"
#include "dag/dag.hpp"
#include "engine/core_budget.hpp"
#include "engine/solver_engine.hpp"
#include "exec/solver.hpp"
#include "exec/verify.hpp"
#include "test_util.hpp"

/// \file test_fold_policies.cpp
/// The work-aware elasticity refactor: kBinPack folds are valid schedules
/// and bitwise-lossless for every scheduler kind and team size; their
/// makespan never exceeds the kModulo fold's (and strictly beats it on the
/// imbalanced stand-ins); the CoreBudget arbiter bounds aggregate granted
/// teams across concurrent batches (run under TSan in CI); the SLO
/// controller shrinks under slack and holds the base under violation; the
/// adaptive coalescing cap expands batches only under a deep queue; the
/// controller's cold start seeds from the analyze-time cost model, whose
/// foldedMakespanAt composes the rank map with the folded makespan.

namespace sts {
namespace {

using core::FoldPolicy;
using core::Schedule;
using core::validateSchedule;
using dag::Dag;
using exec::SchedulerKind;
using exec::SolverOptions;
using exec::TriangularSolver;

TEST(FoldRankMap, ModuloMapAndValidation) {
  const auto map = core::foldRankMap(3, 7, 3, FoldPolicy::kModulo);
  ASSERT_EQ(map.size(), 7u);
  for (int p = 0; p < 7; ++p) EXPECT_EQ(map[static_cast<size_t>(p)], p % 3);

  EXPECT_THROW(core::foldRankMap(3, 7, 0, FoldPolicy::kModulo),
               std::invalid_argument);
  EXPECT_THROW(core::foldRankMap(3, 7, 8, FoldPolicy::kModulo),
               std::invalid_argument);
  // kBinPack needs the load table (except for the identity fold).
  EXPECT_THROW(core::foldRankMap(3, 7, 3, FoldPolicy::kBinPack),
               std::invalid_argument);
  const auto identity = core::foldRankMap(3, 7, 7, FoldPolicy::kBinPack);
  for (int p = 0; p < 7; ++p) {
    EXPECT_EQ(identity[static_cast<size_t>(p)], p);
  }
}

TEST(FoldRankMap, BinPackNeverWorseThanModuloOnRandomLoads) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const int width = 2 + static_cast<int>(rng() % 15);
    const index_t steps = 1 + static_cast<index_t>(rng() % 30);
    std::vector<dag::weight_t> loads(static_cast<size_t>(steps) *
                                     static_cast<size_t>(width));
    // Heavy-tailed loads: squaring a uniform draw makes a few ranks
    // dominate, the regime where modulo folds collide heavy ranks.
    for (auto& load : loads) {
      const auto u = static_cast<dag::weight_t>(rng() % 100);
      load = u * u;
    }
    for (int target = 1; target <= width; ++target) {
      const auto mod =
          core::foldRankMap(steps, width, target, FoldPolicy::kModulo);
      const auto pack =
          core::foldRankMap(steps, width, target, FoldPolicy::kBinPack,
                            loads);
      // Valid slot assignment.
      for (const int q : pack) {
        ASSERT_GE(q, 0);
        ASSERT_LT(q, target);
      }
      EXPECT_LE(core::foldedMakespan(loads, steps, width, target, pack),
                core::foldedMakespan(loads, steps, width, target, mod))
          << "width " << width << " target " << target;
    }
  }
}

TEST(FoldRankMap, RankLoadsMatchGroupWeights) {
  const auto lower = datagen::bandedLower(300, 8, 0.5, 11);
  const Dag d = Dag::fromLowerTriangular(lower);
  const Schedule s = core::growLocalSchedule(d, {.num_cores = 4});
  const auto loads = s.rankLoads(d.weights());
  ASSERT_EQ(loads.size(), static_cast<size_t>(s.numSupersteps()) * 4u);
  for (index_t step = 0; step < s.numSupersteps(); ++step) {
    for (int p = 0; p < 4; ++p) {
      dag::weight_t expected = 0;
      for (const index_t v : s.group(step, p)) expected += d.weight(v);
      EXPECT_EQ(loads[static_cast<size_t>(step) * 4u +
                      static_cast<size_t>(p)],
                expected);
    }
  }
  // Unit weights count group sizes.
  const auto unit = s.rankLoads();
  for (index_t step = 0; step < s.numSupersteps(); ++step) {
    for (int p = 0; p < 4; ++p) {
      EXPECT_EQ(unit[static_cast<size_t>(step) * 4u + static_cast<size_t>(p)],
                static_cast<dag::weight_t>(s.group(step, p).size()));
    }
  }
}

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

TEST(BinPackFold, ValidAndNeverWorseForEverySchedulerAndTeam) {
  const auto matrices = {datagen::bandedLower(300, 8, 0.5, 11),
                         datagen::narrowBandLower(
                             {.n = 500, .p = 0.14, .b = 10.0, .seed = 13})};
  for (const auto& lower : matrices) {
    const Dag d = Dag::fromLowerTriangular(lower);
    for (const auto& scheduler : schedulerCases()) {
      const Schedule full = scheduler.run(d, 4);
      ASSERT_TRUE(validateSchedule(d, full).ok) << scheduler.name;
      const auto loads = full.rankLoads(d.weights());
      for (int t = 1; t <= full.numCores(); ++t) {
        const Schedule folded =
            full.foldTo(t, FoldPolicy::kBinPack, d.weights());
        EXPECT_EQ(folded.numCores(), t);
        EXPECT_EQ(folded.numSupersteps(), full.numSupersteps())
            << scheduler.name << " binpack fold to " << t
            << " must preserve superstep structure";
        const auto validation = validateSchedule(d, folded);
        EXPECT_TRUE(validation.ok)
            << scheduler.name << " binpack folded to " << t << ": "
            << validation.message;
        // Whole-rank granularity: two vertices of one original rank stay
        // together, and the folded makespan never exceeds modulo's.
        const auto folded_loads = folded.rankLoads(d.weights());
        dag::weight_t folded_makespan = 0;
        for (index_t s = 0; s < folded.numSupersteps(); ++s) {
          dag::weight_t max_load = 0;
          for (int q = 0; q < t; ++q) {
            max_load = std::max(
                max_load, folded_loads[static_cast<size_t>(s) *
                                           static_cast<size_t>(t) +
                                       static_cast<size_t>(q)]);
          }
          folded_makespan += max_load;
        }
        const auto mod = core::foldRankMap(full.numSupersteps(),
                                           full.numCores(), t,
                                           FoldPolicy::kModulo);
        EXPECT_LE(folded_makespan,
                  core::foldedMakespan(loads, full.numSupersteps(),
                                       full.numCores(), t, mod))
            << scheduler.name << " team " << t;
      }
    }
  }
}

/// The acceptance criterion: on the imbalance-prone §6.2 stand-ins the
/// bin-pack fold's per-superstep max/mean imbalance is at most modulo's
/// for every scheduler kind and target width.
TEST(BinPackFold, ImbalanceAtMostModuloOnImbalancedStandins) {
  const std::vector<std::pair<std::string, sparse::CsrMatrix>> standins = {
      {"narrow-band", datagen::narrowBandLower(
                          {.n = 2000, .p = 0.14, .b = 10.0, .seed = 21})},
      {"erdos-renyi",
       datagen::erdosRenyiLower({.n = 2000, .p = 5e-3, .seed = 22})}};
  for (const auto& [name, lower] : standins) {
    const Dag d = Dag::fromLowerTriangular(lower);
    for (const auto& scheduler : schedulerCases()) {
      const Schedule full = scheduler.run(d, 8);
      const auto loads = full.rankLoads(d.weights());
      for (const int t : {2, 3, 4, 6}) {
        const auto mod = core::foldRankMap(full.numSupersteps(),
                                           full.numCores(), t,
                                           FoldPolicy::kModulo);
        const auto pack =
            core::foldRankMap(full.numSupersteps(), full.numCores(), t,
                              FoldPolicy::kBinPack, loads);
        EXPECT_LE(core::foldedImbalance(loads, full.numSupersteps(),
                                        full.numCores(), t, pack),
                  core::foldedImbalance(loads, full.numSupersteps(),
                                        full.numCores(), t, mod))
            << name << " " << scheduler.name << " team " << t;
      }
    }
  }
}

/// Bitwise losslessness of the bin-pack fold across all three executor
/// families, every scheduler kind, and every team size — both through the
/// explicit-policy overloads and through a solver analyzed with
/// fold_policy = kBinPack.
TEST(BinPackFold, ElasticSolveBitwiseEqualsFullWidthEveryKindEveryTeam) {
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
                                               .seed = 31});
  const auto x_true = exec::referenceSolution(lower.rows(), 32);
  const auto b = lower.multiply(x_true);
  const auto n = static_cast<size_t>(lower.rows());

  constexpr index_t kNrhs = 3;
  std::vector<double> b_multi(n * kNrhs);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < kNrhs; ++c) {
      b_multi[i * kNrhs + c] = b[i] + static_cast<double>(c);
    }
  }

  for (const auto& kc : kinds) {
    SolverOptions opts;
    opts.scheduler = kc.kind;
    opts.reorder = kc.reorder;
    opts.num_threads = 4;
    opts.fold_policy = FoldPolicy::kBinPack;  // the default-path policy
    const auto solver = TriangularSolver::analyze(lower, opts);
    const int width = solver.numThreads();
    auto ctx = solver.createContext();

    std::vector<double> x_full(n, 0.0);
    solver.solve(b, x_full, *ctx, width);
    std::vector<double> x_multi_full(n * kNrhs, 0.0);
    solver.solveMultiRhs(b_multi, x_multi_full, kNrhs, *ctx, width);

    for (int t = 1; t <= width; ++t) {
      for (const FoldPolicy policy :
           {FoldPolicy::kModulo, FoldPolicy::kBinPack}) {
        std::vector<double> x_t(n, 1e300);
        solver.solve(b, x_t, *ctx, t, policy);
        EXPECT_EQ(x_t, x_full)
            << exec::schedulerKindName(kc.kind) << " reorder=" << kc.reorder
            << " team " << t << " policy "
            << core::foldPolicyName(policy);
        std::vector<double> x_multi_t(n * kNrhs, 1e300);
        solver.solveMultiRhs(b_multi, x_multi_t, kNrhs, *ctx, t, policy);
        EXPECT_EQ(x_multi_t, x_multi_full)
            << exec::schedulerKindName(kc.kind) << " multiRhs team " << t
            << " policy " << core::foldPolicyName(policy);
      }
      // The solver-default path (options().fold_policy == kBinPack).
      std::vector<double> x_default(n, 1e300);
      solver.solve(b, x_default, *ctx, t);
      EXPECT_EQ(x_default, x_full)
          << exec::schedulerKindName(kc.kind) << " default-policy team "
          << t;
    }
  }
}

/// Fold-to-self shares the payload instead of deep-copying the arrays —
/// the PR 2 foldTo(numCores()) fix.
TEST(BinPackFold, FoldToSelfSharesPayload) {
  const auto lower = datagen::bandedLower(200, 6, 0.5, 41);
  const Dag d = Dag::fromLowerTriangular(lower);
  const Schedule s = core::growLocalSchedule(d, {.num_cores = 4});
  const Schedule same = s.foldTo(4);
  EXPECT_EQ(same.executionOrder().data(), s.executionOrder().data())
      << "fold to numCores() must alias the original payload";
  const Schedule same_packed = s.foldTo(4, FoldPolicy::kBinPack, d.weights());
  EXPECT_EQ(same_packed.executionOrder().data(), s.executionOrder().data());
  const Schedule copy = s;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.cores().data(), s.cores().data());
}

TEST(BinPackFold, FoldedMakespanAtMatchesManualComposition) {
  const auto lower = datagen::erdosRenyiLower({.n = 200, .p = 1e-2,
                                               .seed = 51});
  const auto dag = dag::Dag::fromLowerTriangular(lower);
  const auto schedule = core::growLocalSchedule(dag, {.num_cores = 4});
  for (const auto policy :
       {core::FoldPolicy::kModulo, core::FoldPolicy::kBinPack}) {
    for (int t = 1; t <= schedule.numCores(); ++t) {
      const auto loads = schedule.rankLoads();
      const auto map = core::foldRankMap(schedule.numSupersteps(),
                                         schedule.numCores(), t, policy,
                                         loads);
      const auto expected = core::foldedMakespan(
          loads, schedule.numSupersteps(), schedule.numCores(), t, map);
      EXPECT_EQ(core::foldedMakespanAt(schedule, t, policy), expected);
    }
  }
  EXPECT_THROW(core::foldedMakespanAt(schedule, 0, core::FoldPolicy::kModulo),
               std::invalid_argument);
  EXPECT_THROW(core::foldedMakespanAt(schedule, schedule.numCores() + 1,
                                      core::FoldPolicy::kModulo),
               std::invalid_argument);
}

// ---------------------------------------------------------------- budget --

TEST(CoreBudget, ValidatesAndTracksPeak) {
  engine::CoreBudget budget(4);
  EXPECT_TRUE(budget.limited());
  EXPECT_FALSE(budget.hasCoreSet());
  EXPECT_THROW(budget.acquire(0), std::invalid_argument);
  EXPECT_THROW(budget.acquire(2, 0), std::invalid_argument);
  auto a = budget.acquire(3);
  EXPECT_EQ(a.count, 3);
  EXPECT_TRUE(a.ids.empty());  // counting mode: anonymous grants
  // Partial grant: only 1 of 4 is free.
  auto partial = budget.acquire(3);
  EXPECT_EQ(partial.count, 1);
  EXPECT_EQ(budget.inUse(), 4);
  EXPECT_EQ(budget.peakInUse(), 4);
  EXPECT_EQ(budget.throttledAcquires(), 1u);
  budget.release(std::move(a));
  budget.release(std::move(partial));
  EXPECT_EQ(budget.inUse(), 0);
  EXPECT_EQ(budget.peakInUse(), 4);

  engine::CoreBudget unlimited(0);
  EXPECT_FALSE(unlimited.limited());
  EXPECT_EQ(unlimited.acquire(64).count, 64);
  EXPECT_EQ(unlimited.inUse(), 0);
}

TEST(CoreBudget, MinNeededBlocksUntilAvailable) {
  engine::CoreBudget budget(4);
  auto held = budget.acquire(3);
  ASSERT_EQ(held.count, 3);
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    // min_needed 2 > 1 free: must block until the release below.
    auto got = budget.acquire(2, 2);
    granted.store(true);
    budget.release(std::move(got));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(granted.load());
  budget.release(std::move(held));
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(budget.inUse(), 0);
}

/// The oversubscription invariant under contention: aggregate outstanding
/// grants never exceed the budget at any instant, checked from the outside
/// with an independent counter. Runs under TSan in CI.
TEST(CoreBudget, ConcurrentGrantsNeverExceedTotal) {
  constexpr int kTotal = 3;
  constexpr int kThreads = 8;
  constexpr int kIterations = 200;
  engine::CoreBudget budget(kTotal);
  std::atomic<int> outstanding{0};
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      std::mt19937 rng(static_cast<unsigned>(i));
      for (int it = 0; it < kIterations; ++it) {
        const int desired = 1 + static_cast<int>(rng() % 4);
        engine::CoreBudget::Lease lease(budget, desired, 1);
        const int now =
            outstanding.fetch_add(lease.granted()) + lease.granted();
        if (now > kTotal) violations.fetch_add(1);
        outstanding.fetch_sub(lease.granted());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(budget.inUse(), 0);
  EXPECT_LE(budget.peakInUse(), kTotal);
}

std::shared_ptr<const TriangularSolver> analyzeWide(
    const sparse::CsrMatrix& lower, int width) {
  SolverOptions opts;
  opts.num_threads = width;
  opts.reorder = false;
  return std::make_shared<const TriangularSolver>(
      TriangularSolver::analyze(lower, opts));
}

/// Concurrent engine batches lease their teams from the shared budget:
/// results stay bitwise, the peak never exceeds the budget, and a budget
/// below workers * base provably throttles. Runs under TSan in CI.
TEST(CoreBudgetEngine, ConcurrentBatchesRespectBudget) {
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
  options.num_workers = 4;
  options.coalesce = false;   // one batch per request: maximal contention
  options.start_paused = true;
  options.team_size = 4;      // every batch desires the full width
  options.core_budget = 6;    // < workers * base: grants must throttle
  engine::SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);

  constexpr int kRequests = 32;
  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < kRequests; ++r) futures.push_back(engine.submit(id, b));
  engine.resume();
  for (auto& f : futures) EXPECT_EQ(f.get(), expected);
  engine.drain();

  EXPECT_LE(engine.coreBudget().peakInUse(), 6);
  EXPECT_EQ(engine.coreBudget().inUse(), 0);
  const auto stats = engine.stats(id);
  EXPECT_EQ(stats.rhs_solved, static_cast<std::uint64_t>(kRequests));
  // 4 workers wanting 4 cores each against a budget of 6 cannot all get
  // full grants while batches overlap; the staged backlog guarantees
  // overlap, so some batch must have been throttled.
  EXPECT_GT(stats.budget_throttled_batches, 0u);
  EXPECT_LT(stats.mean_team_size, 4.0);
}

// ------------------------------------------------------- SLO controller --

/// A deterministic n x nrhs right-hand side; `salt` varies it per request.
std::vector<double> makeRhs(size_t n, index_t nrhs, unsigned salt = 0) {
  std::vector<double> b(n * static_cast<size_t>(nrhs));
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + 0.125 * static_cast<double>((i * 7 + salt) % 23) -
           0.5 * static_cast<double>((i + salt) % 3);
  }
  return b;
}

TEST(SloElastic, UnreachableTargetHoldsBaseWidth) {
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
  options.coalesce = false;
  options.start_paused = true;
  options.elastic = true;
  options.team_size = 4;
  options.elastic_deep_queue = 1;
  options.target_p95 = 1e-12;  // always violating: never shrink
  engine::SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);
  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < 16; ++r) futures.push_back(engine.submit(id, b));
  engine.resume();
  for (auto& f : futures) EXPECT_EQ(f.get(), expected);
  engine.drain();

  const auto stats = engine.stats(id);
  EXPECT_EQ(stats.shrunk_batches, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_team_size, 4.0);
}

TEST(SloElastic, SlackTargetShrinksUnderBacklog) {
  const auto lower = datagen::bandedLower(300, 8, 0.5, 71);
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
  options.coalesce = false;  // one batch per request: many controller steps
  options.start_paused = true;
  options.elastic = true;
  options.team_size = 4;
  options.elastic_deep_queue = 1;
  options.target_p95 = 3600.0;  // always under target: shrink when deep
  engine::SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);

  constexpr int kRequests = 24;
  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < kRequests; ++r) futures.push_back(engine.submit(id, b));
  engine.resume();
  for (auto& f : futures) EXPECT_EQ(f.get(), expected);
  engine.drain();

  const auto stats = engine.stats(id);
  EXPECT_EQ(stats.rhs_solved, static_cast<std::uint64_t>(kRequests));
  // The staged backlog keeps the queue deep while the window p95 sits far
  // under target, so the controller must have shrunk teams.
  EXPECT_GT(stats.shrunk_batches, 0u);
  EXPECT_LT(stats.mean_team_size, 4.0);
  EXPECT_GE(stats.mean_team_size, 1.0);
}

TEST(SloElastic, ColdStartSeedsFromCostModel) {
  const auto lower = datagen::grid2dLaplacian5(12, 12).lowerTriangle();
  const auto n = static_cast<size_t>(lower.rows());
  SolverOptions solver_opts;
  solver_opts.num_threads = 4;
  auto solver = std::make_shared<const TriangularSolver>(
      TriangularSolver::analyze(lower, solver_opts));
  const int base = 4;

  // Generous target: the cost model must conclude the minimum team still
  // meets it and seed the controller below the base width. team_size pins
  // the base at the analyzed width so the test is host-independent (the
  // default team clamps to the machine's cores).
  engine::EngineOptions opts;
  opts.num_workers = 1;
  opts.team_size = base;
  opts.elastic = true;
  opts.target_p95 = 30.0;  // far above any solve on this matrix
  opts.start_paused = true;
  engine::SolverEngine engine(opts);
  const auto id = engine.registerSolver(solver);
  const auto seeded = engine.stats(id).seeded_team;
  EXPECT_GE(seeded, 1);
  EXPECT_LT(seeded, base);

  // The first window must be served at the seeded width, not the base.
  std::vector<std::future<std::vector<double>>> futures;
  for (unsigned j = 0; j < 4; ++j) {
    futures.push_back(engine.submit(id, makeRhs(n, 1, j)));
  }
  engine.resume();
  for (auto& f : futures) f.get();
  // Futures resolve before the worker posts its stats; drain() returns
  // only after the batch fully retires, so the snapshot below is stable.
  engine.drain();
  const auto stats = engine.stats(id);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_LE(stats.mean_team_size, static_cast<double>(seeded) + 1e-9);

  // Unreachable target: the model must keep the base width (no seed).
  engine::EngineOptions tight = opts;
  tight.target_p95 = 1e-12;
  engine::SolverEngine tight_engine(tight);
  const auto tight_id = tight_engine.registerSolver(solver);
  EXPECT_EQ(tight_engine.stats(tight_id).seeded_team, 0);
}

// --------------------------------------------------- adaptive coalescing --

TEST(AdaptiveBatch, DeepQueueExpandsBatchesShallowDoesNot) {
  const auto lower = datagen::bandedLower(250, 6, 0.5, 81);
  auto solver = analyzeWide(lower, 4);
  const auto x_true = exec::referenceSolution(lower.rows(), 82);
  const auto b = lower.multiply(x_true);
  std::vector<double> expected(b.size(), 0.0);
  {
    auto ctx = solver->createContext();
    solver->solve(b, expected, *ctx, solver->numThreads());
  }

  auto run = [&](bool adaptive) {
    engine::EngineOptions options;
    options.num_workers = 1;  // deterministic pops
    options.max_batch = 4;
    options.start_paused = true;
    options.elastic = true;
    options.team_size = 1;
    options.elastic_deep_queue = 2;
    options.adaptive_batch = adaptive;
    engine::SolverEngine engine(options);
    const auto id = engine.registerSolver(solver);
    std::vector<std::future<std::vector<double>>> futures;
    for (int r = 0; r < 24; ++r) futures.push_back(engine.submit(id, b));
    engine.resume();
    for (auto& f : futures) EXPECT_EQ(f.get(), expected);
    engine.drain();
    return engine.stats(id);
  };

  const auto adaptive = run(true);
  // Depth 24 >= 2 * deep at the first pops: the cap doubles to 8, so some
  // batch must carry more than max_batch columns.
  EXPECT_GT(adaptive.expanded_batches, 0u);
  EXPECT_EQ(adaptive.rhs_solved, 24u);

  const auto fixed = run(false);
  EXPECT_EQ(fixed.expanded_batches, 0u);
  EXPECT_EQ(fixed.rhs_solved, 24u);
}

}  // namespace
}  // namespace sts

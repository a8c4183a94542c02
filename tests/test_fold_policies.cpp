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
#include "harness/datasets.hpp"
#include "test_util.hpp"

/// \file test_fold_policies.cpp
/// The work-aware fold: core::foldRankMap's folds are valid schedules for
/// every scheduler kind and team size, and their makespan never exceeds
/// the p mod t fold's (strictly beating it on the imbalanced stand-ins,
/// pinned exactly on bench_fold_policies' rows); the CoreBudget arbiter
/// bounds aggregate granted teams across concurrent batches (run under
/// TSan in CI); core::foldedMakespanAt composes the rank map with the
/// folded makespan. Bitwise losslessness of folded solves is
/// test_elastic's ElasticSolve suite.

namespace sts {
namespace {

using core::Schedule;
using core::validateSchedule;
using dag::Dag;
using exec::SchedulerKind;
using exec::SolverOptions;
using exec::TriangularSolver;

/// The p -> p mod t map, the reference every packed fold is held against.
std::vector<int> moduloMap(int width, int target) {
  std::vector<int> map(static_cast<size_t>(width));
  for (int p = 0; p < width; ++p) map[static_cast<size_t>(p)] = p % target;
  return map;
}

TEST(FoldRankMap, IdentityAndValidation) {
  const std::vector<dag::weight_t> loads(3 * 7, 1);
  const auto map = core::foldRankMap(3, 7, 3, loads);
  ASSERT_EQ(map.size(), 7u);
  EXPECT_EQ(core::foldedMakespan(loads, 3, 7, 3, map),
            core::foldedMakespan(loads, 3, 7, 3, moduloMap(7, 3)));

  EXPECT_THROW(core::foldRankMap(3, 7, 0, loads), std::invalid_argument);
  EXPECT_THROW(core::foldRankMap(3, 7, 8, loads), std::invalid_argument);
  // A real fold needs the load table; the identity fold does not.
  EXPECT_THROW(core::foldRankMap(3, 7, 3), std::invalid_argument);
  EXPECT_THROW(core::foldRankMap(3, 7, 3, std::span(loads).first(20)),
               std::invalid_argument);
  const auto identity = core::foldRankMap(3, 7, 7);
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
      const auto mod = moduloMap(width, target);
      const auto pack = core::foldRankMap(steps, width, target, loads);
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
        const Schedule folded = full.foldTo(t, d.weights());
        EXPECT_EQ(folded.numCores(), t);
        EXPECT_EQ(folded.numSupersteps(), full.numSupersteps())
            << scheduler.name << " fold to " << t
            << " must preserve superstep structure";
        const auto validation = validateSchedule(d, folded);
        EXPECT_TRUE(validation.ok)
            << scheduler.name << " folded to " << t << ": "
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
        const auto mod = moduloMap(full.numCores(), t);
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
        const auto mod = moduloMap(full.numCores(), t);
        const auto pack = core::foldRankMap(full.numSupersteps(),
                                            full.numCores(), t, loads);
        EXPECT_LE(core::foldedImbalance(loads, full.numSupersteps(),
                                        full.numCores(), t, pack),
                  core::foldedImbalance(loads, full.numSupersteps(),
                                        full.numCores(), t, mod))
            << name << " " << scheduler.name << " team " << t;
      }
    }
  }
}

/// The live pin of bench_fold_policies' part 1 (BENCH_10.json's `fold`
/// rows): the front entry of three dataset families at scale 0.05,
/// analyzed at width 8 without the §5 reorder and folded to teams 2 and
/// 4. foldRankMap's makespan must equal `binpack_makespan` exactly, the
/// p mod t makespan must equal `modulo_makespan`, and the first must never
/// exceed the second. A change to a scheduler, a generator or the fold
/// moves a number here.
TEST(BinPackFold, BenchFoldRowsPinned) {
  struct Pinned {
    std::string scheduler;
    int team;
    dag::weight_t modulo;
    dag::weight_t packed;
  };
  struct Family {
    harness::DatasetEntry entry;
    std::vector<Pinned> rows;
  };
  const std::vector<Family> families = {
      {harness::narrowBandSet(0.05).front(),
       {{"GrowLocal", 2, 3620, 3620}, {"GrowLocal", 4, 3137, 3136},
        {"Wavefront", 2, 3035, 2855}, {"Wavefront", 4, 1922, 1696},
        {"HDagg", 2, 2724, 2626}, {"HDagg", 4, 1698, 1590}}},
      {harness::erdosRenyiSet(0.05).front(),
       {{"GrowLocal", 2, 6343, 6343}, {"GrowLocal", 4, 3385, 3385},
        {"Wavefront", 2, 6085, 6050}, {"Wavefront", 4, 3134, 3107},
        {"HDagg", 2, 5958, 5955}, {"HDagg", 4, 2992, 2992}}},
      {harness::suiteSparseStandin(0.05).front(),
       {{"GrowLocal", 2, 7343, 7343}, {"GrowLocal", 4, 4364, 4364},
        {"Wavefront", 2, 6124, 6014}, {"Wavefront", 4, 3171, 3142},
        {"HDagg", 2, 5977, 5953}, {"HDagg", 4, 3080, 3072}}},
  };
  EXPECT_EQ(families[0].entry.name, "nb_p14_b10_A");
  EXPECT_EQ(families[1].entry.name, "er_d5_A");
  EXPECT_EQ(families[2].entry.name, "grid2d_5pt");
  const std::vector<std::pair<std::string, SchedulerKind>> kinds = {
      {"GrowLocal", SchedulerKind::kGrowLocal},
      {"Wavefront", SchedulerKind::kWavefront},
      {"HDagg", SchedulerKind::kHdagg}};

  int pinned = 0;
  for (const auto& [entry, rows] : families) {
    const Dag d = Dag::fromLowerTriangular(entry.lower);
    for (const auto& [name, kind] : kinds) {
      SolverOptions opts;
      opts.scheduler = kind;
      opts.num_threads = 8;
      opts.reorder = false;
      opts.validate = false;
      const auto solver = TriangularSolver::analyze(entry.lower, opts);
      const Schedule& schedule = solver.schedule();
      const auto loads = schedule.rankLoads(d.weights());
      const auto steps = schedule.numSupersteps();
      const int width = schedule.numCores();
      for (const Pinned& row : rows) {
        if (row.scheduler != name) continue;
        const auto packed = core::foldedMakespan(
            loads, steps, width, row.team,
            core::foldRankMap(steps, width, row.team, loads));
        const auto modulo = core::foldedMakespan(
            loads, steps, width, row.team, moduloMap(width, row.team));
        EXPECT_EQ(packed, row.packed)
            << entry.name << " " << name << " team " << row.team;
        EXPECT_EQ(modulo, row.modulo)
            << entry.name << " " << name << " team " << row.team;
        EXPECT_LE(packed, modulo)
            << entry.name << " " << name << " team " << row.team;
        ++pinned;
      }
    }
  }
  EXPECT_EQ(pinned, 18);
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
  const Schedule same_weighted = s.foldTo(4, d.weights());
  EXPECT_EQ(same_weighted.executionOrder().data(), s.executionOrder().data());
  const Schedule copy = s;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.cores().data(), s.cores().data());
}

TEST(BinPackFold, FoldedMakespanAtMatchesManualComposition) {
  const auto lower = datagen::erdosRenyiLower({.n = 200, .p = 1e-2,
                                               .seed = 51});
  const auto dag = dag::Dag::fromLowerTriangular(lower);
  const auto schedule = core::growLocalSchedule(dag, {.num_cores = 4});
  // Unit weights (the default, the engine's cost model) and row weights.
  for (const auto weights :
       {std::span<const dag::weight_t>{}, dag.weights()}) {
    const auto loads = schedule.rankLoads(weights);
    for (int t = 1; t <= schedule.numCores(); ++t) {
      const auto map = core::foldRankMap(schedule.numSupersteps(),
                                         schedule.numCores(), t, loads);
      const auto expected = core::foldedMakespan(
          loads, schedule.numSupersteps(), schedule.numCores(), t, map);
      EXPECT_EQ(core::foldedMakespanAt(schedule, t, weights), expected);
    }
  }
  EXPECT_THROW(core::foldedMakespanAt(schedule, 0), std::invalid_argument);
  EXPECT_THROW(core::foldedMakespanAt(schedule, schedule.numCores() + 1),
               std::invalid_argument);
}

// ---------------------------------------------------------------- budget --

TEST(CoreBudget, ValidatesAndTracksPeak) {
  engine::CoreBudget budget(4);
  EXPECT_TRUE(budget.limited());
  EXPECT_FALSE(budget.hasCoreSet());
  EXPECT_THROW(budget.acquire(0), std::invalid_argument);
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

TEST(CoreBudget, BlocksWhileExhausted) {
  engine::CoreBudget budget(4);
  auto held = budget.acquire(4);
  ASSERT_EQ(held.count, 4);
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    // No core free: must block until the release below.
    auto got = budget.acquire(2);
    EXPECT_EQ(got.count, 2);
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
        engine::CoreBudget::Lease lease(budget, desired);
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
  options.max_batch = 1;      // one batch per request: maximal contention
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

}  // namespace
}  // namespace sts

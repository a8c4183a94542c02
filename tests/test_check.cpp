#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "check/check.hpp"
#include "core/schedule.hpp"
#include "dag/dag.hpp"
#include "datagen/grids.hpp"
#include "datagen/random_matrices.hpp"
#include "exec/elastic.hpp"
#include "exec/solver.hpp"

/// \file test_check.cpp
/// The invariant validators (src/check/) from both sides of the contract:
/// every shipped construction path — all schedulers, the fold rank maps,
/// and the folded work lists the executors walk — validates clean, and
/// hand-crafted violations of each invariant are rejected with a
/// diagnostic naming the offender.
/// The rejection tests are the interesting half: a validator that accepts
/// everything also "passes" the clean sweep.

namespace sts {
namespace {

using core::Schedule;
using dag::Dag;
using exec::SchedulerKind;
using exec::SolverOptions;
using exec::TriangularSolver;
using exec::detail::FoldedLists;

/// 0 -> 1 -> 2 chain, the smallest DAG where every ordering invariant
/// (superstep order, same-core in-group order) can be violated.
Dag chainDag3() {
  std::vector<dag::Edge> edges;
  edges.emplace_back(0, 1);
  edges.emplace_back(1, 2);
  return Dag::fromEdges(3, edges);
}

/// Full-width per-rank work lists of `sched`, in the schedule's execution
/// order — the same shape executors build before folding.
FoldedLists fullLists(const Schedule& sched) {
  const int width = sched.numCores();
  FoldedLists lists;
  lists.verts.resize(static_cast<size_t>(width));
  lists.step_ptr.resize(static_cast<size_t>(width));
  for (int p = 0; p < width; ++p) {
    lists.step_ptr[static_cast<size_t>(p)].push_back(0);
  }
  for (index_t s = 0; s < sched.numSupersteps(); ++s) {
    for (int p = 0; p < width; ++p) {
      auto& verts = lists.verts[static_cast<size_t>(p)];
      const auto group = sched.group(s, p);
      verts.insert(verts.end(), group.begin(), group.end());
      lists.step_ptr[static_cast<size_t>(p)].push_back(
          static_cast<offset_t>(verts.size()));
    }
  }
  return lists;
}

// ------------------------------------------------------------------ enforce

TEST(CheckEnforce, ThrowsLogicErrorNamingTheCaller) {
  EXPECT_NO_THROW(check::enforce(check::CheckResult{}, "here"));
  try {
    check::enforce(check::CheckResult::failure("row 7 twice"), "fold");
    FAIL() << "enforce accepted a failed CheckResult";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("fold"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("row 7 twice"), std::string::npos);
  }
}

// ----------------------------------------------------------- schedule audit

TEST(CheckSchedule, RejectsEdgeAgainstSuperstepOrder) {
  // Vertex 1 scheduled a superstep BEFORE its parent 0.
  const Dag dag = chainDag3();
  const Schedule sched(3, 1, 2,
                       /*core=*/{0, 0, 0}, /*superstep=*/{1, 0, 1},
                       /*order=*/{1, 0, 2}, /*group_ptr=*/{0, 1, 3});
  const auto result = check::validateSchedule(dag, sched);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("edge"), std::string::npos) << result.message;
}

TEST(CheckSchedule, RejectsSameSuperstepCrossCoreEdge) {
  // 0 -> 1 in the same superstep on DIFFERENT cores: no barrier between
  // them, so nothing orders the dependency.
  const Dag dag = chainDag3();
  const Schedule sched(3, 2, 2,
                       /*core=*/{0, 1, 0}, /*superstep=*/{0, 0, 1},
                       /*order=*/{0, 1, 2}, /*group_ptr=*/{0, 1, 2, 3, 3});
  EXPECT_FALSE(check::validateSchedule(dag, sched).ok);
}

TEST(CheckSchedule, RejectsInGroupOrderViolation) {
  // Same core, same superstep, but the group's execution order lists the
  // child before the parent.
  const Dag dag = chainDag3();
  const Schedule sched(3, 1, 1,
                       /*core=*/{0, 0, 0}, /*superstep=*/{0, 0, 0},
                       /*order=*/{1, 0, 2}, /*group_ptr=*/{0, 3});
  EXPECT_FALSE(check::validateSchedule(dag, sched).ok);
}

TEST(CheckSchedule, RejectsDuplicatedVertexInExecutionOrder) {
  const Dag dag = chainDag3();
  const Schedule sched(3, 1, 1,
                       /*core=*/{0, 0, 0}, /*superstep=*/{0, 0, 0},
                       /*order=*/{0, 1, 1}, /*group_ptr=*/{0, 3});
  EXPECT_FALSE(check::validateSchedule(dag, sched).ok);
}

TEST(CheckSchedule, AcceptsAValidHandBuiltSchedule) {
  const Dag dag = chainDag3();
  const Schedule sched(3, 1, 1,
                       /*core=*/{0, 0, 0}, /*superstep=*/{0, 0, 0},
                       /*order=*/{0, 1, 2}, /*group_ptr=*/{0, 3});
  const auto result = check::validateSchedule(dag, sched);
  EXPECT_TRUE(result.ok) << result.message;
}

// ----------------------------------------------------------- rank-map audit

TEST(CheckRankMap, RejectsCraftedViolations) {
  const std::vector<int> wrong_size = {0};
  EXPECT_FALSE(check::validateRankMap(2, 2, wrong_size).ok);

  const std::vector<int> out_of_range = {0, 2};
  EXPECT_FALSE(check::validateRankMap(2, 2, out_of_range).ok);

  const std::vector<int> negative = {0, -1};
  EXPECT_FALSE(check::validateRankMap(2, 2, negative).ok);

  // Non-surjective: slot 1 never hit, so the folded execution would idle
  // one of its granted cores forever.
  const std::vector<int> not_onto = {0, 0};
  const auto result = check::validateRankMap(2, 2, not_onto);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("slot 1"), std::string::npos)
      << result.message;
}

// -------------------------------------------------------- folded-list audit

/// Even/odd rows on two threads, two supersteps — a valid baseline each
/// corruption test below perturbs.
FoldedLists evenOddLists(index_t num_rows) {
  FoldedLists lists;
  lists.verts.resize(2);
  lists.step_ptr.resize(2);
  for (index_t i = 0; i < num_rows; ++i) {
    lists.verts[static_cast<size_t>(i % 2)].push_back(i);
  }
  for (int t = 0; t < 2; ++t) {
    const auto total =
        static_cast<offset_t>(lists.verts[static_cast<size_t>(t)].size());
    lists.step_ptr[static_cast<size_t>(t)] = {0, total / 2, total};
  }
  return lists;
}

TEST(CheckFoldedLists, AcceptsTheEvenOddBaseline) {
  const auto result = check::validateFoldedLists(evenOddLists(20), 2, 20);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(CheckFoldedLists, RejectsDuplicatedRow) {
  FoldedLists lists = evenOddLists(20);
  lists.verts[1][0] = lists.verts[0][0];  // row 0 now appears twice
  const auto result = check::validateFoldedLists(lists, 2, 20);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("twice"), std::string::npos)
      << result.message;
}

TEST(CheckFoldedLists, RejectsRowOutOfRange) {
  FoldedLists lists = evenOddLists(20);
  lists.verts[0][3] = 99;
  EXPECT_FALSE(check::validateFoldedLists(lists, 2, 20).ok);
}

TEST(CheckFoldedLists, RejectsBadStepBoundaries) {
  {
    FoldedLists lists = evenOddLists(20);
    lists.step_ptr[0].pop_back();  // wrong boundary count
    EXPECT_FALSE(check::validateFoldedLists(lists, 2, 20).ok);
  }
  {
    FoldedLists lists = evenOddLists(20);
    lists.step_ptr[0].back() -= 1;  // last boundary short of the list
    EXPECT_FALSE(check::validateFoldedLists(lists, 2, 20).ok);
  }
  {
    FoldedLists lists = evenOddLists(20);
    std::swap(lists.step_ptr[0][1], lists.step_ptr[0][2]);  // non-monotone
    EXPECT_FALSE(check::validateFoldedLists(lists, 2, 20).ok);
  }
}

// --------------------------------------------------------- core-grant audit

TEST(CheckCoreGrants, RejectsOverlapForeignAndDuplicateCores) {
  const std::vector<int> universe = {0, 1, 2, 3};

  const std::vector<std::vector<int>> disjoint = {{0, 1}, {2}};
  EXPECT_TRUE(check::auditCoreGrants(universe, disjoint).ok);

  const std::vector<std::vector<int>> overlapping = {{0, 1}, {1, 2}};
  const auto overlap = check::auditCoreGrants(universe, overlapping);
  EXPECT_FALSE(overlap.ok);
  EXPECT_NE(overlap.message.find("core 1"), std::string::npos)
      << overlap.message;

  const std::vector<std::vector<int>> foreign = {{0}, {7}};
  EXPECT_FALSE(check::auditCoreGrants(universe, foreign).ok);

  const std::vector<std::vector<int>> self_dup = {{2, 2}};
  EXPECT_FALSE(check::auditCoreGrants(universe, self_dup).ok);
}

// ------------------------------------------------------------- clean sweep

/// Every shipped scheduler × every team size × two rank maps (foldRankMap's
/// and the p mod t map it is held against), audited at every pipeline
/// stage: the analyzed schedule (Def. 2.1), the fold rank map
/// (bijectivity), the folded schedule, and the folded work lists (the
/// execution artifact). This is the positive half of the contract;
/// STS_CHECKS=ON builds run the same validators inside the construction
/// paths.
TEST(CheckCleanSweep, AllSchedulersFoldMapsAndWorkLists) {
  const std::vector<sparse::CsrMatrix> matrices = {
      datagen::grid2dLaplacian5(8, 8).lowerTriangle(),
      datagen::erdosRenyiLower({.n = 160, .p = 3e-2, .seed = 11}),
  };
  const SchedulerKind kinds[] = {
      SchedulerKind::kGrowLocal, SchedulerKind::kFunnelGrowLocal,
      SchedulerKind::kWavefront, SchedulerKind::kHdagg,
      SchedulerKind::kSpmp,      SchedulerKind::kBspList,
      SchedulerKind::kSerial,
  };
  for (const auto& lower : matrices) {
    const Dag dag = Dag::fromLowerTriangular(lower);
    for (const SchedulerKind kind : kinds) {
      SolverOptions opts;
      opts.scheduler = kind;
      opts.num_threads = 4;
      opts.reorder = false;
      const auto solver = TriangularSolver::analyze(lower, opts);
      const Schedule& sched = solver.schedule();
      const std::string where = exec::schedulerKindName(kind);

      {
        const auto result = check::validateSchedule(dag, sched);
        ASSERT_TRUE(result.ok) << where << ": " << result.message;
      }

      const int width = sched.numCores();
      const auto loads = sched.rankLoads();
      const FoldedLists lists = fullLists(sched);
      for (int team = 1; team <= width; ++team) {
        std::vector<int> modulo(static_cast<size_t>(width));
        for (int p = 0; p < width; ++p) {
          modulo[static_cast<size_t>(p)] = p % team;
        }
        const auto packed =
            core::foldRankMap(sched.numSupersteps(), width, team, loads);
        for (const auto& rank_map : {packed, modulo}) {
          auto result = check::validateRankMap(width, team, rank_map);
          ASSERT_TRUE(result.ok) << where << ": " << result.message;

          const Schedule folded = sched.foldWith(rank_map, team);
          result = check::validateSchedule(dag, folded);
          ASSERT_TRUE(result.ok) << where << " folded to " << team << ": "
                                 << result.message;

          const FoldedLists folded_lists = exec::detail::foldThreadLists(
              lists.verts, lists.step_ptr, sched.numSupersteps(), team,
              rank_map);
          result = check::validateFoldedLists(
              folded_lists, sched.numSupersteps(), lower.rows());
          ASSERT_TRUE(result.ok) << where << ": " << result.message;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sts

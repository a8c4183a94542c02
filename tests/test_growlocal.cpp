#include "core/growlocal.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "baselines/wavefront.hpp"
#include "dag/dag.hpp"
#include "dag/wavefronts.hpp"
#include "datagen/grids.hpp"
#include "datagen/random_matrices.hpp"
#include "sparse/ic0.hpp"
#include "sparse/ordering.hpp"
#include "test_util.hpp"

namespace sts::core {
namespace {

using dag::Dag;

TEST(GrowLocal, EmptyDag) {
  const Dag d;
  const Schedule s = growLocalSchedule(d, {.num_cores = 2});
  EXPECT_EQ(s.numSupersteps(), 0);
  EXPECT_TRUE(validateSchedule(d, s).ok);
}

TEST(GrowLocal, SingleVertex) {
  const Dag d = Dag::fromLowerTriangular(datagen::diagonalMatrix(1));
  const Schedule s = growLocalSchedule(d, {.num_cores = 4});
  EXPECT_EQ(s.numSupersteps(), 1);
  EXPECT_TRUE(validateSchedule(d, s).ok);
}

TEST(GrowLocal, SingleCoreProducesOneSuperstep) {
  // With one core there is never a reason to insert a barrier.
  const Dag d = Dag::fromLowerTriangular(
      datagen::erdosRenyiLower({.n = 400, .p = 5e-3, .seed = 2}));
  const Schedule s = growLocalSchedule(d, {.num_cores = 1});
  EXPECT_EQ(s.numSupersteps(), 1);
  EXPECT_TRUE(validateSchedule(d, s).ok);
}

TEST(GrowLocal, ChainStaysOnOneCoreInOneSuperstep) {
  // A pure chain has no parallelism; GrowLocal must not split it across
  // cores (that would only add barriers).
  const Dag d = Dag::fromLowerTriangular(datagen::chainLower(500));
  const Schedule s = growLocalSchedule(d, {.num_cores = 2});
  EXPECT_TRUE(validateSchedule(d, s).ok);
  EXPECT_EQ(s.numSupersteps(), 1);
  // All vertices on one core.
  for (index_t v = 1; v < d.numVertices(); ++v) {
    EXPECT_EQ(s.coreOf(v), s.coreOf(0));
  }
}

TEST(GrowLocal, DiagonalMatrixBalancesAcrossCores) {
  const Dag d = Dag::fromLowerTriangular(datagen::diagonalMatrix(1000));
  const Schedule s = growLocalSchedule(d, {.num_cores = 4});
  EXPECT_TRUE(validateSchedule(d, s).ok);
  // The geometric alpha growth can leave a small remainder superstep, but
  // a fully parallel workload must not fragment beyond that.
  EXPECT_LE(s.numSupersteps(), 2);
  // Perfectly parallel work: every core gets a share.
  std::vector<int> counts(4, 0);
  for (index_t v = 0; v < d.numVertices(); ++v) ++counts[s.coreOf(v)];
  for (int p = 0; p < 4; ++p) EXPECT_GT(counts[p], 0) << "core " << p;
}

TEST(GrowLocal, ValidOnZooAcrossCoreCounts) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    for (const int cores : {1, 2, 3, 5}) {
      const Schedule s = growLocalSchedule(d, {.num_cores = cores});
      const auto v = validateSchedule(d, s);
      EXPECT_TRUE(v.ok) << name << " cores=" << cores << ": " << v.message;
    }
  }
}

TEST(GrowLocal, FarFewerBarriersThanWavefronts) {
  // The headline structural claim (Table 7.2): supersteps << wavefronts on
  // SuiteSparse-like and narrow-band inputs.
  const auto lower = datagen::narrowBandLower(
      {.n = 4000, .p = 0.14, .b = 10.0, .seed = 3});
  const Dag d = Dag::fromLowerTriangular(lower);
  const index_t wavefronts = dag::criticalPathLength(d);
  const Schedule s = growLocalSchedule(d, {.num_cores = 2});
  EXPECT_TRUE(validateSchedule(d, s).ok);
  EXPECT_LT(s.numSupersteps() * 5, wavefronts)
      << "supersteps=" << s.numSupersteps() << " wavefronts=" << wavefronts;
}

TEST(GrowLocal, FewerBarriersThanWavefrontScheduler) {
  const auto lower = datagen::erdosRenyiLower({.n = 3000, .p = 2e-3, .seed = 4});
  const Dag d = Dag::fromLowerTriangular(lower);
  const Schedule gl = growLocalSchedule(d, {.num_cores = 2});
  const Schedule wf = baselines::wavefrontSchedule(d, {.num_cores = 2});
  EXPECT_LE(gl.numSupersteps(), wf.numSupersteps());
}

TEST(GrowLocal, DeterministicAcrossRuns) {
  const auto lower = datagen::erdosRenyiLower({.n = 800, .p = 4e-3, .seed = 9});
  const Dag d = Dag::fromLowerTriangular(lower);
  const Schedule a = growLocalSchedule(d, {.num_cores = 3});
  const Schedule b = growLocalSchedule(d, {.num_cores = 3});
  ASSERT_EQ(a.numSupersteps(), b.numSupersteps());
  for (index_t v = 0; v < d.numVertices(); ++v) {
    EXPECT_EQ(a.coreOf(v), b.coreOf(v));
    EXPECT_EQ(a.superstepOf(v), b.superstepOf(v));
  }
}

TEST(GrowLocal, LocalityOfAssignment) {
  // The ID-based rule should keep most same-core vertices near-consecutive
  // on a banded matrix: measure the fraction of consecutive-ID pairs that
  // share a core; it should be well above 1/num_cores (random assignment).
  const auto lower = datagen::bandedLower(2000, 8, 0.6, 10);
  const Dag d = Dag::fromLowerTriangular(lower);
  const Schedule s = growLocalSchedule(d, {.num_cores = 2});
  ASSERT_TRUE(validateSchedule(d, s).ok);
  index_t same = 0;
  for (index_t v = 0; v + 1 < d.numVertices(); ++v) {
    same += (s.coreOf(v) == s.coreOf(v + 1)) ? 1 : 0;
  }
  const double frac = static_cast<double>(same) /
                      static_cast<double>(d.numVertices() - 1);
  EXPECT_GT(frac, 0.8) << "same-core consecutive fraction " << frac;
}

TEST(GrowLocal, RespectsAlphaGrowthTermination) {
  // Regression guard: a maximal trial (ready pool drained before alpha) must
  // terminate the growth loop. A star DAG (one source, many children)
  // exercises this: after the source, everything is ready at once.
  std::vector<dag::Edge> edges;
  for (index_t v = 1; v < 200; ++v) edges.emplace_back(0, v);
  const Dag d = Dag::fromEdges(200, edges);
  const Schedule s = growLocalSchedule(d, {.num_cores = 2});
  EXPECT_TRUE(validateSchedule(d, s).ok);
  EXPECT_LE(s.numSupersteps(), 3);
}

TEST(GrowLocal, OptionValidation) {
  const Dag d = Dag::fromLowerTriangular(datagen::diagonalMatrix(4));
  GrowLocalOptions bad;
  bad.num_cores = 0;
  EXPECT_THROW(growLocalSchedule(d, bad), std::invalid_argument);
  bad = {};
  bad.growth_factor = 1.0;
  EXPECT_THROW(growLocalSchedule(d, bad), std::invalid_argument);
  bad = {};
  bad.worthy_factor = 1.5;
  EXPECT_THROW(growLocalSchedule(d, bad), std::invalid_argument);
  bad = {};
  bad.min_superstep_size = 0;
  EXPECT_THROW(growLocalSchedule(d, bad), std::invalid_argument);
}

TEST(GrowLocal, SyncCostLScaling) {
  // Larger L penalizes barriers more, so superstep count must not increase.
  const auto lower = datagen::erdosRenyiLower({.n = 2000, .p = 2e-3, .seed = 12});
  const Dag d = Dag::fromLowerTriangular(lower);
  GrowLocalOptions small_l{.num_cores = 2, .sync_cost_l = 10.0};
  GrowLocalOptions large_l{.num_cores = 2, .sync_cost_l = 5000.0};
  const Schedule s_small = growLocalSchedule(d, small_l);
  const Schedule s_large = growLocalSchedule(d, large_l);
  EXPECT_TRUE(validateSchedule(d, s_small).ok);
  EXPECT_TRUE(validateSchedule(d, s_large).ok);
  EXPECT_LE(s_large.numSupersteps(), s_small.numSupersteps() + 1);
}

/// FNV-1a over the core map, the execution order and the group boundaries:
/// one number that moves if any vertex lands on another core, superstep or
/// position.
std::uint64_t scheduleDigest(const Schedule& s) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::int64_t value) {
    h ^= static_cast<std::uint64_t>(value);
    h *= 1099511628211ull;
  };
  for (const int c : s.cores()) mix(c);
  for (const index_t v : s.executionOrder()) mix(v);
  for (const offset_t g : s.groupPtr()) mix(g);
  return h;
}

TEST(GrowLocal, SchedulesArePinned) {
  // Superstep counts and digests recorded from the min-heap ready pool;
  // any change to the pool or trial machinery must reproduce them bit for
  // bit. None of these inputs draws random numbers, so the values do not
  // depend on the standard library's distributions.
  const sparse::CsrMatrix lap7 = datagen::grid3dLaplacian7(42, 42, 42);
  const auto rcm = sparse::reverseCuthillMcKee(lap7);
  struct Input {
    const char* name;
    sparse::CsrMatrix lower;
  };
  const std::vector<Input> inputs = {
      {"grid2d_5pt_280", datagen::grid2dLaplacian5(280, 280).lowerTriangle()},
      {"grid3d_7pt_42", lap7.lowerTriangle()},
      {"grid3d_7pt_42_rcm_ic0",
       sparse::incompleteCholesky(lap7.symmetricPermuted(rcm)).lower},
  };
  struct Pinned {
    index_t supersteps;
    std::uint64_t digest;
  };
  // [input][coalesce_supersteps ? 0 : 1]
  const Pinned pinned[3][2] = {
      {{117, 11085755353217079153ull}, {161, 2787086939666189985ull}},
      {{55, 6362248434856468845ull}, {57, 5850773072089654569ull}},
      {{37, 13605733005056590037ull}, {37, 13605733005056590037ull}},
  };
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Dag d = Dag::fromLowerTriangular(inputs[i].lower);
    for (const bool coalesce : {true, false}) {
      GrowLocalOptions opts{.num_cores = 4};
      opts.coalesce_supersteps = coalesce;
      const Schedule s = growLocalSchedule(d, opts);
      const Pinned& want = pinned[i][coalesce ? 0 : 1];
      EXPECT_EQ(s.numSupersteps(), want.supersteps)
          << inputs[i].name << " coalesce=" << coalesce;
      EXPECT_EQ(scheduleDigest(s), want.digest)
          << inputs[i].name << " coalesce=" << coalesce;
    }
  }
}

}  // namespace
}  // namespace sts::core

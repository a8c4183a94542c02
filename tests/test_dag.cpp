#include "dag/dag.hpp"

#include <gtest/gtest.h>

#include "dag/toposort.hpp"
#include "dag/transitive.hpp"
#include "dag/wavefronts.hpp"
#include "datagen/random_matrices.hpp"
#include "sparse/csr.hpp"
#include "test_util.hpp"

namespace sts::dag {
namespace {

using sparse::CsrMatrix;
using sts::Triplet;

/// The paper's Figure 1.1 example: 6x6 lower triangular with
/// rows a..f = 0..5; edges a->b, a->c, b->d, c->d(?) etc. We use a concrete
/// small matrix with known structure.
CsrMatrix figureMatrix() {
  // Row 0: diag.  Row 1: (1,0).  Row 2: (2,0).  Row 3: (3,1), (3,2).
  // Row 4: (4,3).  Row 5: (5,0).
  std::vector<Triplet> t = {{0, 0, 1.0}, {1, 0, 1.0}, {1, 1, 1.0},
                            {2, 0, 1.0}, {2, 2, 1.0}, {3, 1, 1.0},
                            {3, 2, 1.0}, {3, 3, 1.0}, {4, 3, 1.0},
                            {4, 4, 1.0}, {5, 0, 1.0}, {5, 5, 1.0}};
  return CsrMatrix::fromTriplets(6, 6, t);
}

TEST(Dag, FromLowerTriangularStructure) {
  const Dag d = Dag::fromLowerTriangular(figureMatrix());
  d.validate();
  EXPECT_EQ(d.numVertices(), 6);
  EXPECT_EQ(d.numEdges(), 6);
  EXPECT_TRUE(d.hasEdge(0, 1));
  EXPECT_TRUE(d.hasEdge(0, 2));
  EXPECT_TRUE(d.hasEdge(1, 3));
  EXPECT_TRUE(d.hasEdge(2, 3));
  EXPECT_TRUE(d.hasEdge(3, 4));
  EXPECT_TRUE(d.hasEdge(0, 5));
  EXPECT_FALSE(d.hasEdge(1, 2));
  // Weights are row nnz counts.
  EXPECT_EQ(d.weight(0), 1);
  EXPECT_EQ(d.weight(3), 3);
  EXPECT_EQ(d.totalWeight(), 12);
  EXPECT_TRUE(d.isAcyclic());
}

TEST(Dag, SourcesAndSinks) {
  const Dag d = Dag::fromLowerTriangular(figureMatrix());
  EXPECT_EQ(d.sources(), (std::vector<index_t>{0}));
  EXPECT_EQ(d.sinks(), (std::vector<index_t>{4, 5}));
}

TEST(Dag, FromEdgesDeduplicates) {
  const std::vector<Edge> edges = {{0, 1}, {0, 1}, {1, 2}};
  const Dag d = Dag::fromEdges(3, edges);
  EXPECT_EQ(d.numEdges(), 2);
}

TEST(Dag, FromEdgesRejectsSelfLoopAndRange) {
  EXPECT_THROW(Dag::fromEdges(2, std::vector<Edge>{{0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(Dag::fromEdges(2, std::vector<Edge>{{0, 2}}),
               std::invalid_argument);
}

TEST(Dag, FromEdgesRejectsNonPositiveWeights) {
  const std::vector<Edge> edges = {{0, 1}};
  const std::vector<weight_t> w = {1, 0};
  EXPECT_THROW(Dag::fromEdges(2, edges, w), std::invalid_argument);
}

TEST(Dag, CycleDetection) {
  const std::vector<Edge> cycle = {{0, 1}, {1, 2}, {2, 0}};
  const Dag d = Dag::fromEdges(3, cycle);
  EXPECT_FALSE(d.isAcyclic());
}

TEST(Dag, UpperTriangularMirrorsLower) {
  // U = L^T: the backward DAG of U (with relabeling k = n-1-i) must match
  // the forward DAG of L with IDs reversed.
  const CsrMatrix lower = figureMatrix();
  const CsrMatrix upper = lower.transposed();
  const Dag dl = Dag::fromLowerTriangular(lower);
  const Dag du = Dag::fromUpperTriangular(upper);
  const index_t n = dl.numVertices();
  EXPECT_EQ(du.numEdges(), dl.numEdges());
  for (index_t v = 0; v < n; ++v) {
    // Vertex n-1-i of the backward DAG is row i of U; its weight is the
    // row's entry count (the work of the backward substitution step).
    EXPECT_EQ(du.weight(n - 1 - v),
              std::max<weight_t>(1, upper.rowNnz(v)));
    // Edge (v, c) in the forward DAG of L corresponds to U(v, c) != 0 with
    // c > v, which yields edge (n-1-c, n-1-v) in the backward DAG.
    for (const index_t c : dl.children(v)) {
      EXPECT_TRUE(du.hasEdge(n - 1 - c, n - 1 - v));
    }
  }
  EXPECT_TRUE(du.isAcyclic());
}

TEST(Dag, RangeSubgraph) {
  const Dag d = Dag::fromLowerTriangular(figureMatrix());
  const Dag sub = d.rangeSubgraph(1, 4);  // vertices 1,2,3 -> 0,1,2
  EXPECT_EQ(sub.numVertices(), 3);
  // Surviving edges: (1,3) -> (0,2); (2,3) -> (1,2).
  EXPECT_EQ(sub.numEdges(), 2);
  EXPECT_TRUE(sub.hasEdge(0, 2));
  EXPECT_TRUE(sub.hasEdge(1, 2));
  // Weights preserved from the full matrix (block scheduling, §3.1).
  EXPECT_EQ(sub.weight(0), d.weight(1));
  EXPECT_EQ(sub.weight(2), d.weight(3));
}

TEST(Wavefronts, FigureExample) {
  const Dag d = Dag::fromLowerTriangular(figureMatrix());
  const Wavefronts wf = computeWavefronts(d);
  EXPECT_EQ(wf.num_levels, 4);
  EXPECT_EQ(wf.level[0], 0);
  EXPECT_EQ(wf.level[1], 1);
  EXPECT_EQ(wf.level[2], 1);
  EXPECT_EQ(wf.level[5], 1);
  EXPECT_EQ(wf.level[3], 2);
  EXPECT_EQ(wf.level[4], 3);
  EXPECT_EQ(wf.levelSize(1), 3);
  EXPECT_DOUBLE_EQ(wf.averageWavefrontSize(), 6.0 / 4.0);
  EXPECT_EQ(criticalPathLength(d), 4);
}

TEST(Wavefronts, ChainAndDiagonalExtremes) {
  const Dag chain =
      Dag::fromLowerTriangular(datagen::chainLower(50));
  EXPECT_EQ(computeWavefronts(chain).num_levels, 50);
  const Dag diag =
      Dag::fromLowerTriangular(datagen::diagonalMatrix(50));
  EXPECT_EQ(computeWavefronts(diag).num_levels, 1);
}

TEST(Wavefronts, LevelsAreMonotoneAlongEdges) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const Wavefronts wf = computeWavefronts(d);
    for (index_t v = 0; v < d.numVertices(); ++v) {
      for (const index_t c : d.children(v)) {
        EXPECT_LT(wf.level[static_cast<size_t>(v)],
                  wf.level[static_cast<size_t>(c)])
            << name;
      }
    }
    // The forward-pass shortcut agrees with the full sweep.
    EXPECT_EQ(criticalPathLength(d), wf.num_levels) << name;
  }
}

TEST(Wavefronts, CriticalPathFallsBackWhenEdgesDescend) {
  // Relabel v -> n-1-v: every edge now descends IDs, so ID order is not
  // topological and criticalPathLength must take the full sweep.
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const index_t n = d.numVertices();
    std::vector<Edge> edges;
    for (const auto& [u, v] : d.edgeList()) {
      edges.emplace_back(n - 1 - u, n - 1 - v);
    }
    const Dag reversed = Dag::fromEdges(n, edges);
    EXPECT_EQ(criticalPathLength(reversed),
              computeWavefronts(reversed).num_levels)
        << name;
    EXPECT_EQ(criticalPathLength(reversed), criticalPathLength(d)) << name;
  }
}

TEST(Wavefronts, CriticalPathThrowsOnCycle) {
  const Dag cycle =
      Dag::fromEdges(3, std::vector<Edge>{{0, 1}, {1, 2}, {2, 0}});
  EXPECT_THROW(computeWavefronts(cycle), std::logic_error);
  EXPECT_THROW(criticalPathLength(cycle), std::logic_error);
}

TEST(Toposort, ValidOrderOnZoo) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const auto order = topologicalOrder(d);
    ASSERT_TRUE(order.has_value()) << name;
    EXPECT_TRUE(isTopologicalOrder(d, *order)) << name;
    const auto rev = reverseTopologicalOrder(d);
    ASSERT_TRUE(rev.has_value()) << name;
    EXPECT_FALSE(isTopologicalOrder(d, *rev) && d.numEdges() > 0) << name;
  }
}

TEST(Toposort, DetectsCycle) {
  const Dag d = Dag::fromEdges(2, std::vector<Edge>{{0, 1}, {1, 0}});
  EXPECT_FALSE(topologicalOrder(d).has_value());
}

TEST(Toposort, IsTopologicalOrderRejectsBadInputs) {
  const Dag d = Dag::fromEdges(3, std::vector<Edge>{{0, 1}, {1, 2}});
  EXPECT_TRUE(isTopologicalOrder(d, std::vector<index_t>{0, 1, 2}));
  EXPECT_FALSE(isTopologicalOrder(d, std::vector<index_t>{1, 0, 2}));
  EXPECT_FALSE(isTopologicalOrder(d, std::vector<index_t>{0, 1}));
  EXPECT_FALSE(isTopologicalOrder(d, std::vector<index_t>{0, 0, 2}));
}

TEST(TransitiveReduction, RemovesTriangleEdge) {
  // 0->1, 1->2, 0->2 (redundant).
  const Dag d =
      Dag::fromEdges(3, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}});
  const auto result = approximateTransitiveReduction(d);
  EXPECT_EQ(result.removed_edges, 1);
  EXPECT_FALSE(result.dag.hasEdge(0, 2));
  EXPECT_TRUE(result.dag.hasEdge(0, 1));
  EXPECT_TRUE(result.dag.hasEdge(1, 2));
}

TEST(TransitiveReduction, PreservesReachabilityOnZoo) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    if (d.numVertices() > 200) continue;  // exact check is O(V*E)
    const auto result = approximateTransitiveReduction(d);
    for (index_t v = 0; v < d.numVertices(); ++v) {
      for (const index_t c : d.children(v)) {
        EXPECT_TRUE(isReachable(result.dag, v, c))
            << name << ": lost edge (" << v << ", " << c << ")";
      }
    }
  }
}

TEST(TransitiveReduction, KeepsWeightsAndVertices) {
  const Dag d = Dag::fromLowerTriangular(
      datagen::erdosRenyiLower({.n = 300, .p = 0.02, .seed = 5}));
  const auto result = approximateTransitiveReduction(d);
  EXPECT_EQ(result.dag.numVertices(), d.numVertices());
  for (index_t v = 0; v < d.numVertices(); ++v) {
    EXPECT_EQ(result.dag.weight(v), d.weight(v));
  }
  EXPECT_EQ(result.dag.numEdges() + result.removed_edges, d.numEdges());
}

TEST(TransitiveReduction, BudgetStopsEarlyButStaysSound) {
  const Dag d = Dag::fromLowerTriangular(
      datagen::erdosRenyiLower({.n = 200, .p = 0.05, .seed = 6}));
  TransitiveReductionOptions opts;
  opts.max_inspections = 50;
  const auto result = approximateTransitiveReduction(d, opts);
  EXPECT_TRUE(result.exhausted_budget);
  for (index_t v = 0; v < d.numVertices(); ++v) {
    for (const index_t c : d.children(v)) {
      EXPECT_TRUE(isReachable(result.dag, v, c));
    }
  }
}

TEST(TransitiveReduction, NoEffectOnChain) {
  const Dag d = Dag::fromLowerTriangular(datagen::chainLower(30));
  const auto result = approximateTransitiveReduction(d);
  EXPECT_EQ(result.removed_edges, 0);
  EXPECT_EQ(result.dag.numEdges(), d.numEdges());
}

}  // namespace
}  // namespace sts::dag

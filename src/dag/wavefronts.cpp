#include "dag/wavefronts.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace sts::dag {

double Wavefronts::averageWavefrontSize() const {
  if (num_levels == 0) return 0.0;
  return static_cast<double>(vertices.size()) /
         static_cast<double>(num_levels);
}

Wavefronts computeWavefronts(const Dag& dag) {
  const index_t n = dag.numVertices();
  Wavefronts w;
  w.level.assign(static_cast<size_t>(n), 0);

  std::vector<index_t> indeg(static_cast<size_t>(n));
  std::vector<index_t> queue;
  queue.reserve(static_cast<size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    indeg[static_cast<size_t>(v)] = dag.inDegree(v);
    if (indeg[static_cast<size_t>(v)] == 0) queue.push_back(v);
  }
  size_t processed = 0;
  while (processed < queue.size()) {
    const index_t v = queue[processed++];
    const index_t lv = w.level[static_cast<size_t>(v)];
    for (const index_t u : dag.children(v)) {
      auto& lu = w.level[static_cast<size_t>(u)];
      lu = std::max(lu, static_cast<index_t>(lv + 1));
      if (--indeg[static_cast<size_t>(u)] == 0) queue.push_back(u);
    }
  }
  if (processed != static_cast<size_t>(n)) {
    throw std::logic_error("computeWavefronts: graph contains a cycle");
  }
  for (index_t v = 0; v < n; ++v) {
    w.num_levels = std::max(w.num_levels,
                            static_cast<index_t>(w.level[static_cast<size_t>(v)] + 1));
  }

  // Bucket vertices by level; iterating v ascending keeps each level sorted.
  w.level_ptr.assign(static_cast<size_t>(w.num_levels) + 1, 0);
  for (index_t v = 0; v < n; ++v) {
    ++w.level_ptr[static_cast<size_t>(w.level[static_cast<size_t>(v)]) + 1];
  }
  std::partial_sum(w.level_ptr.begin(), w.level_ptr.end(), w.level_ptr.begin());
  w.vertices.resize(static_cast<size_t>(n));
  std::vector<offset_t> cursor(w.level_ptr.begin(), w.level_ptr.end() - 1);
  for (index_t v = 0; v < n; ++v) {
    const auto l = static_cast<size_t>(w.level[static_cast<size_t>(v)]);
    w.vertices[static_cast<size_t>(cursor[l]++)] = v;
  }
  return w;
}

index_t criticalPathLength(const Dag& dag) {
  // When every edge ascends IDs, as in every DAG fromLowerTriangular or
  // fromUpperTriangular builds, ID order is topological: one forward pass
  // over the parents finds each level. Otherwise (coarse graphs, cycles)
  // run the full sweep, which also detects cycles.
  const index_t n = dag.numVertices();
  std::vector<index_t> level(static_cast<size_t>(n));
  index_t num_levels = 0;
  for (index_t v = 0; v < n; ++v) {
    const auto parents = dag.parents(v);
    if (!parents.empty() && parents.back() >= v) {
      return computeWavefronts(dag).num_levels;
    }
    index_t lv = 0;
    for (const index_t u : parents) {
      lv = std::max(lv, static_cast<index_t>(level[static_cast<size_t>(u)] + 1));
    }
    level[static_cast<size_t>(v)] = lv;
    num_levels = std::max(num_levels, static_cast<index_t>(lv + 1));
  }
  return num_levels;
}

}  // namespace sts::dag

#pragma once

#include <span>
#include <vector>

#include "dag/dag.hpp"

/// \file wavefronts.hpp
/// Level sets ("wavefronts", Fig. 1.1b): level(v) = 0 for sources, else
/// 1 + max over parents. The number of wavefronts equals the length of the
/// longest path, and n / #wavefronts is the paper's "average wavefront
/// size" parallelizability metric (§6.2).

namespace sts::dag {

struct Wavefronts {
  index_t num_levels = 0;
  std::vector<index_t> level;      ///< level of each vertex
  std::vector<offset_t> level_ptr; ///< boundaries into `vertices`
  std::vector<index_t> vertices;   ///< grouped by level, ascending ID inside

  std::span<const index_t> levelVertices(index_t l) const {
    return std::span<const index_t>(vertices).subspan(
        static_cast<size_t>(level_ptr[static_cast<size_t>(l)]),
        static_cast<size_t>(level_ptr[static_cast<size_t>(l) + 1] -
                            level_ptr[static_cast<size_t>(l)]));
  }

  index_t levelSize(index_t l) const {
    return static_cast<index_t>(levelVertices(l).size());
  }

  /// n / #levels; 0 for the empty DAG.
  double averageWavefrontSize() const;
};

/// Computes level sets with one Kahn-style sweep; throws std::logic_error
/// if the graph contains a cycle.
Wavefronts computeWavefronts(const Dag& dag);

/// Longest path length in vertices (== number of wavefronts), without
/// materializing the level sets: one pass over parents when every edge
/// ascends IDs, else computeWavefronts. Throws std::logic_error on a cycle.
index_t criticalPathLength(const Dag& dag);

}  // namespace sts::dag

#include "core/block.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace sts::core {

std::vector<index_t> computeBlockBoundaries(const Dag& dag, int num_blocks) {
  if (num_blocks <= 0) {
    throw std::invalid_argument("computeBlockBoundaries: need >= 1 block");
  }
  const index_t n = dag.numVertices();
  const weight_t total = dag.totalWeight();
  std::vector<index_t> bounds(static_cast<size_t>(num_blocks) + 1, n);
  bounds[0] = 0;
  weight_t prefix = 0;
  int next_block = 1;
  for (index_t v = 0; v < n && next_block < num_blocks; ++v) {
    prefix += dag.weight(v);
    // Cut once the prefix crosses the next equal-weight target.
    while (next_block < num_blocks &&
           prefix >= (total * next_block) / num_blocks) {
      bounds[static_cast<size_t>(next_block++)] = v + 1;
    }
  }
  return bounds;
}

Schedule blockSchedule(const Dag& dag, int num_blocks, bool parallel,
                       int num_cores, const BlockScheduler& scheduler) {
  const index_t n = dag.numVertices();
  const std::vector<index_t> bounds = computeBlockBoundaries(dag, num_blocks);

  std::vector<Schedule> block_schedules(static_cast<size_t>(num_blocks));
  std::vector<Dag> block_dags(static_cast<size_t>(num_blocks));

  // libgomp's join orders the blocks' results before their use below but
  // is invisible to ThreadSanitizer; a release per block and one acquire
  // after the loop order them through an atomic it sees, as the executor
  // regions do with their closing SpinBarrier crossing.
  std::atomic<int> blocks_done{0};
  const int team = std::min(
      num_blocks,
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
#pragma omp parallel for num_threads(team) schedule(dynamic, 1) if (parallel)
  for (int b = 0; b < num_blocks; ++b) {
    const index_t lo = bounds[static_cast<size_t>(b)];
    const index_t hi = bounds[static_cast<size_t>(b) + 1];
    block_dags[static_cast<size_t>(b)] = dag.rangeSubgraph(lo, hi);
    block_schedules[static_cast<size_t>(b)] =
        scheduler(block_dags[static_cast<size_t>(b)]);
    blocks_done.fetch_add(1, std::memory_order_release);
  }
  (void)blocks_done.load(std::memory_order_acquire);

  // Concatenate: superstep offsets accumulate block by block.
  std::vector<int> core(static_cast<size_t>(n), 0);
  std::vector<index_t> superstep(static_cast<size_t>(n), 0);
  std::vector<index_t> order;
  order.reserve(static_cast<size_t>(n));
  std::vector<offset_t> group_ptr = {0};
  index_t superstep_offset = 0;
  for (int b = 0; b < num_blocks; ++b) {
    const index_t lo = bounds[static_cast<size_t>(b)];
    const Schedule& s = block_schedules[static_cast<size_t>(b)];
    if (s.numCores() != num_cores) {
      throw std::invalid_argument(
          "blockSchedule: block scheduler used a different core count");
    }
    for (index_t v = 0; v < s.numVertices(); ++v) {
      core[static_cast<size_t>(lo + v)] = s.coreOf(v);
      superstep[static_cast<size_t>(lo + v)] =
          superstep_offset + s.superstepOf(v);
    }
    for (index_t ss = 0; ss < s.numSupersteps(); ++ss) {
      for (int p = 0; p < num_cores; ++p) {
        for (const index_t v : s.group(ss, p)) {
          order.push_back(lo + v);
        }
        group_ptr.push_back(static_cast<offset_t>(order.size()));
      }
    }
    superstep_offset += s.numSupersteps();
  }
  return Schedule(n, num_cores, superstep_offset, std::move(core),
                  std::move(superstep), std::move(order),
                  std::move(group_ptr));
}

Schedule blockGrowLocalSchedule(const Dag& dag,
                                const BlockScheduleOptions& opts) {
  return blockSchedule(dag, opts.num_blocks, opts.parallel,
                       opts.growlocal.num_cores, [&opts](const Dag& block) {
                         return growLocalSchedule(block, opts.growlocal);
                       });
}

}  // namespace sts::core

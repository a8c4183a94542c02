#include "exec/gather.hpp"

#include <omp.h>

#include <algorithm>

#include "exec/affinity.hpp"
#include "obs/trace.hpp"

namespace sts::exec {

namespace {

/// Destination rows copied per turn of the blocks: a turn's map slice and
/// destination rows stay in cache while every block takes it (the engine
/// packs one block per coalesced request into the same tile rows).
constexpr std::size_t kChunkRows = 256;

void copyRows(std::span<const index_t> map, const RowBlock& block,
              std::size_t begin, std::size_t end) {
  if (block.width == 1) {
    for (std::size_t i = begin; i < end; ++i) {
      block.dst[i * block.dst_stride] =
          block.src[static_cast<std::size_t>(map[i]) * block.src_stride];
    }
    return;
  }
  for (std::size_t i = begin; i < end; ++i) {
    std::copy_n(
        block.src + static_cast<std::size_t>(map[i]) * block.src_stride,
        block.width, block.dst + i * block.dst_stride);
  }
}

}  // namespace

void gatherRows(std::span<const index_t> map, std::span<const RowBlock> blocks,
                SolveContext& ctx, int team) {
  const std::size_t n = map.size();
  ctx.requireShape(team, static_cast<index_t>(n), "gatherRows");
  const std::span<const int> pin_set = ctx.pinnedCores();
  SpinBarrier& barrier = ctx.barrier_;
  omp_set_dynamic(0);
#pragma omp parallel num_threads(team)
  {
    const int t = omp_get_thread_num();
    const int team_size = omp_get_num_threads();
    {
      const ScopedPin pin(pin_set, t);
      obs::StepTracer tracer(ctx.trace());
      const auto members = static_cast<std::size_t>(team_size);
      const auto rank = static_cast<std::size_t>(t);
      const std::size_t end = n * (rank + 1) / members;
      for (std::size_t c0 = n * rank / members; c0 < end; c0 += kChunkRows) {
        const std::size_t c1 = std::min(end, c0 + kChunkRows);
        for (const RowBlock& block : blocks) copyRows(map, block, c0, c1);
      }
      tracer.finishP2p(0);
      // End on a crossing of the context's barrier, so the members reach
      // libgomp's join together. Once a process runs more OpenMP threads
      // than cores (an engine's worker teams), libgomp shortens its join
      // spin, and a member that arrives early sleeps and must be woken:
      // without this crossing, serve_closed's facade.permute_ms rose from
      // about 0.09 to 0.14 ms on a 4-vCPU host.
      if (members > 1) {
        int sense = barrier.initialSense();
        barrier.wait(sense, static_cast<int>(members));
      }
    }
    // The caller reads the destinations after the region: count the
    // members out so ThreadSanitizer sees that order too.
    if (t != 0) {
      ctx.memberDone();
    } else {
      ctx.awaitMembers(team_size);
    }
  }
}

}  // namespace sts::exec

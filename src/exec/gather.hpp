#pragma once

#include <cstddef>
#include <span>

#include "exec/solve_context.hpp"
#include "sparse/types.hpp"

/// \file gather.hpp
/// The permutation pass of every solve on caller vectors. The facade keeps
/// one new→old map of its internal row order (sparse/permute.hpp's
/// convention) and its inverse; bringing b into the internal order is a
/// gather through new_to_old, and bringing x back is a gather through
/// old_to_new. Both run here, on the solve's own team.

namespace sts::exec {

/// One operand of a gather. Destination row i, the `width` doubles at
/// dst + i * dst_stride, receives source row map[i], the `width` doubles
/// at src + map[i] * src_stride. (src_stride, dst_stride, width) expresses
/// every layout that crosses the internal order: vectors (1, 1, 1), the
/// column tiles of a row-major n x r block (r, w, w) and single tile
/// columns (1, w, 1), plus the reverse of each for the x side.
struct RowBlock {
  const double* src = nullptr;
  std::size_t src_stride = 1;
  double* dst = nullptr;
  std::size_t dst_stride = 1;
  std::size_t width = 1;
};

/// dst[i] = src[map[i]] for every block and every i < map.size(). Member
/// t of a `team`-wide OpenMP team copies the contiguous destination rows
/// [n·t/team, n·(t+1)/team) of every block, pinned through
/// ctx.pinnedCores() like the executor regions, so each member writes only
/// its own range of every destination. Sources and destinations must not
/// overlap. Throws std::invalid_argument unless ctx can host a `team`-wide
/// solve over map.size() rows.
void gatherRows(std::span<const index_t> map, std::span<const RowBlock> blocks,
                SolveContext& ctx, int team);

}  // namespace sts::exec

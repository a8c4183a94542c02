#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sparse/types.hpp"

/// \file tile.hpp
/// Cache-aware column tiling of the multi-RHS right-hand-side/solution
/// matrix (the RHS layout of the tiled solve path).
///
/// A walk over an n x nrhs row-major matrix touches nrhs doubles of X per
/// referenced column, so at wide nrhs the working set of the x-vector
/// traffic is nrhs full columns and the hot loop turns DRAM-bound. A
/// TileLayout partitions the RHS columns
/// into width-T tiles and stores each tile as its own contiguous n x w
/// row-major block (leading dimension w == the tile width), sized so one
/// b-tile plus one x-tile fit a per-thread share of L2 (pickTileCols;
/// overridable by STS_TILE_COLS). Executors then run their per-superstep
/// row loop once per tile — the matrix stream is re-read per tile, but the
/// dense operand stays cache-resident, which is the winning trade for
/// sparse x dense-block work (cf. the tiled-SpMM structure in related
/// work).
///
/// Bitwise contract: a tile is an independent n x w multi-RHS sub-problem,
/// and tiling never splits or reorders a column's arithmetic — column c of
/// a tiled solve is bit-for-bit a vector solve of column c
/// (tests/test_tiled.cpp pins this for every executor, team, and nrhs).

namespace sts::exec {

/// Host cache geometry, detected once from
/// /sys/devices/system/cpu/cpu0/cache (Linux sysfs); `detected` is false
/// when the hierarchy could not be read and the conservative defaults
/// below are in effect. Consumed by pickTileCols, bench_common's host
/// metadata, and tools/roofline.py.
struct CacheGeometry {
  std::size_t l1d_bytes = 32u * 1024u;
  std::size_t l2_bytes = 1024u * 1024u;
  std::size_t l3_bytes = 8u * 1024u * 1024u;
  std::size_t line_bytes = 64;
  /// CPUs sharing the level (from shared_cpu_list; 1 = private).
  int l1d_shared_cpus = 1;
  int l2_shared_cpus = 1;
  int l3_shared_cpus = 1;
  bool detected = false;
};

/// Fresh sysfs read (for tests); prefer cacheGeometry() on hot paths.
CacheGeometry detectCacheGeometry();

/// The process-wide geometry, detected on first use and cached.
const CacheGeometry& cacheGeometry();

/// The auto-sized tile width for an n-row solve: the widest T such that a
/// b-tile plus an x-tile (2 * n * T doubles) fit half of one thread's L2
/// share, clamped to [16, 128] and rounded down to a multiple of 8 (full
/// register blocks). STS_TILE_COLS overrides unconditionally (clamped to
/// >= 1). The TileLayout constructor caps the result at nrhs, so callers
/// never get more tiles than columns.
index_t pickTileCols(index_t rows);

/// Column-tile partition of an n x nrhs right-hand-side/solution matrix:
/// tile t covers columns [tileBegin(t), tileBegin(t) + tileWidth(t)) and
/// is stored as a contiguous row-major n x tileWidth(t) block at double
/// offset tileOffset(t). All tiles have width tileCols() except a
/// narrower tail; nrhs <= tileCols() degenerates to a single tile whose
/// packed form IS the row-major matrix (pack/unpack become copies).
class TileLayout {
 public:
  TileLayout() = default;
  TileLayout(index_t rows, index_t nrhs, index_t tile_cols)
      : rows_(rows), cols_(nrhs) {
    if (rows < 0 || nrhs <= 0 || tile_cols <= 0) {
      throw std::invalid_argument("TileLayout: rows must be >= 0, nrhs and "
                                  "tile_cols must be >= 1");
    }
    tile_cols_ = std::min(tile_cols, nrhs);
    num_tiles_ = (nrhs + tile_cols_ - 1) / tile_cols_;
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t tileCols() const { return tile_cols_; }
  index_t numTiles() const { return num_tiles_; }

  index_t tileBegin(index_t t) const { return t * tile_cols_; }
  index_t tileWidth(index_t t) const {
    return std::min(tile_cols_, cols_ - tileBegin(t));
  }
  index_t tileOfCol(index_t c) const { return c / tile_cols_; }
  index_t colInTile(index_t c) const { return c % tile_cols_; }

  /// Double offset of tile t inside a packed buffer. Tiles are stored in
  /// order, so the offset is rows * tileBegin(t) regardless of the tail.
  std::size_t tileOffset(index_t t) const {
    return static_cast<std::size_t>(rows_) *
           static_cast<std::size_t>(tileBegin(t));
  }
  std::size_t tileDoubles(index_t t) const {
    return static_cast<std::size_t>(rows_) *
           static_cast<std::size_t>(tileWidth(t));
  }
  /// Total doubles of a packed buffer (== rows * cols; tiling never pads).
  std::size_t totalDoubles() const {
    return static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
  }

  std::span<const double> tileSpan(std::span<const double> packed,
                                   index_t t) const {
    return packed.subspan(tileOffset(t), tileDoubles(t));
  }
  std::span<double> tileSpan(std::span<double> packed, index_t t) const {
    return packed.subspan(tileOffset(t), tileDoubles(t));
  }

  /// Row-major n x nrhs -> packed tiles. Both spans hold totalDoubles().
  void pack(std::span<const double> row_major, std::span<double> tiled) const {
    requireSizes(row_major.size(), tiled.size(), "TileLayout::pack");
    const auto n = static_cast<std::size_t>(rows_);
    const auto r = static_cast<std::size_t>(cols_);
    for (index_t t = 0; t < num_tiles_; ++t) {
      const auto w = static_cast<std::size_t>(tileWidth(t));
      const auto c0 = static_cast<std::size_t>(tileBegin(t));
      double* dst = tiled.data() + tileOffset(t);
      for (std::size_t i = 0; i < n; ++i) {
        const double* src = row_major.data() + i * r + c0;
        for (std::size_t c = 0; c < w; ++c) dst[i * w + c] = src[c];
      }
    }
  }

  /// Packed tiles -> row-major n x nrhs (the inverse of pack).
  void unpack(std::span<const double> tiled,
              std::span<double> row_major) const {
    requireSizes(tiled.size(), row_major.size(), "TileLayout::unpack");
    const auto n = static_cast<std::size_t>(rows_);
    const auto r = static_cast<std::size_t>(cols_);
    for (index_t t = 0; t < num_tiles_; ++t) {
      const auto w = static_cast<std::size_t>(tileWidth(t));
      const auto c0 = static_cast<std::size_t>(tileBegin(t));
      const double* src = tiled.data() + tileOffset(t);
      for (std::size_t i = 0; i < n; ++i) {
        double* dst = row_major.data() + i * r + c0;
        for (std::size_t c = 0; c < w; ++c) dst[c] = src[i * w + c];
      }
    }
  }

  /// Bytes one pack (or unpack) pass moves: a read plus a write of every
  /// RHS double. Feeds the roofline byte model beside the plans'
  /// bytesMoved() accounting.
  std::size_t bytesMoved() const {
    return 2 * totalDoubles() * sizeof(double);
  }

 private:
  void requireSizes(std::size_t a, std::size_t b, const char* who) const {
    if (a != totalDoubles() || b != totalDoubles()) {
      throw std::invalid_argument(std::string(who) + ": buffer size mismatch");
    }
  }

  index_t rows_ = 0;
  index_t cols_ = 1;
  index_t tile_cols_ = 1;
  index_t num_tiles_ = 1;
};

/// Precomputed per-tile views of a packed (B, X) pair, hoisted out of the
/// executors' hot loops (indexing by tile number instead of re-deriving
/// subspans per record).
struct TileViews {
  std::vector<std::span<const double>> b;
  std::vector<std::span<double>> x;
  std::vector<std::size_t> width;
};

inline TileViews makeTileViews(const TileLayout& layout,
                               std::span<const double> b,
                               std::span<double> x) {
  const auto ntiles = static_cast<std::size_t>(layout.numTiles());
  TileViews views;
  views.b.resize(ntiles);
  views.x.resize(ntiles);
  views.width.resize(ntiles);
  for (std::size_t k = 0; k < ntiles; ++k) {
    const auto t = static_cast<index_t>(k);
    views.b[k] = layout.tileSpan(b, t);
    views.x[k] = layout.tileSpan(x, t);
    views.width[k] = static_cast<std::size_t>(layout.tileWidth(t));
  }
  return views;
}

/// Throws unless the layout matches the solve's row count and both packed
/// buffers hold exactly totalDoubles().
inline void requireTileShapes(index_t rows, const TileLayout& layout,
                              std::span<const double> b,
                              std::span<const double> x, const char* who) {
  if (layout.rows() != rows || b.size() != layout.totalDoubles() ||
      x.size() != layout.totalDoubles()) {
    throw std::invalid_argument(std::string(who) +
                                ": tile layout/buffer mismatch");
  }
}

/// Bytes one full sweep of the CSR walk streams from the matrix arrays
/// (row_ptr deltas + col_idx + values per stored entry); the matrix side
/// of the roofline byte model. Tiled walks re-stream this once per tile.
inline std::size_t csrBytesMoved(index_t rows, offset_t nnz) {
  return (static_cast<std::size_t>(rows) + 1) * sizeof(offset_t) +
         static_cast<std::size_t>(nnz) * (sizeof(index_t) + sizeof(double));
}

}  // namespace sts::exec

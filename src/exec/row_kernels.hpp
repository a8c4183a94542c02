#pragma once

#include <span>
#include <stdexcept>
#include <string>

#include "sparse/csr.hpp"

/// \file row_kernels.hpp
/// The shared substitution kernels every executor runs per vertex, plus
/// the common vector-shape check. Single definition on purpose: the
/// solver's bitwise-equality contract (multi-RHS columns == independent
/// single-RHS solves, parallel == serial per row) holds because all
/// executors run literally this arithmetic sequence — a divergent copy
/// would break it silently.
///
/// Two kernel families share that sequence:
///   * computeRow / computeRowMulti — the CSR forms, indexing the
///     matrix through row_ptr;
///   * computeRowMultiPacked — a raw-pointer form over one row's
///     off-diagonal cols/vals + diagonal, which computeRowMultiTiled runs
///     on a CSR row slice. It is VECTORIZED ACROSS RHS COLUMNS in
///     fixed-width register blocks (r = 8, then 4, then a variable tail).
///     Blocking the column loop never reorders any single column's
///     floating-point operations — column c still runs init, the same
///     subtractions in the same order, then one divide — so the bitwise
///     contract survives vectorization (tests/test_tiled.cpp pins tiled ==
///     untiled for every executor).

namespace sts::exec::detail {

/// One substitution step; the diagonal is the last entry of the row.
inline void computeRow(std::span<const offset_t> row_ptr,
                       std::span<const index_t> col_idx,
                       std::span<const double> values,
                       std::span<const double> b, std::span<double> x,
                       index_t i) {
  const auto begin = static_cast<size_t>(row_ptr[static_cast<size_t>(i)]);
  const auto diag = static_cast<size_t>(row_ptr[static_cast<size_t>(i) + 1]) - 1;
  double acc = b[static_cast<size_t>(i)];
  for (size_t k = begin; k < diag; ++k) {
    acc -= values[k] * x[static_cast<size_t>(col_idx[k])];
  }
  x[static_cast<size_t>(i)] = acc / values[diag];
}

/// Multi-RHS substitution step: row i of X and B are contiguous length-r
/// blocks. Per RHS the arithmetic sequence is identical to computeRow, so
/// each column of the result is bitwise equal to a single-RHS solve.
inline void computeRowMulti(std::span<const offset_t> row_ptr,
                            std::span<const index_t> col_idx,
                            std::span<const double> values,
                            std::span<const double> b, std::span<double> x,
                            index_t i, size_t r) {
  const auto begin = static_cast<size_t>(row_ptr[static_cast<size_t>(i)]);
  const auto diag = static_cast<size_t>(row_ptr[static_cast<size_t>(i) + 1]) - 1;
  double* xi = x.data() + static_cast<size_t>(i) * r;
  const double* bi = b.data() + static_cast<size_t>(i) * r;
  for (size_t c = 0; c < r; ++c) xi[c] = bi[c];
  for (size_t e = begin; e < diag; ++e) {
    const double a = values[e];
    const double* xj = x.data() + static_cast<size_t>(col_idx[e]) * r;
    for (size_t c = 0; c < r; ++c) xi[c] -= a * xj[c];
  }
  const double d = values[diag];
  for (size_t c = 0; c < r; ++c) xi[c] /= d;
}

/// One fixed-width column block of the packed multi-RHS step: columns
/// [c0, c0 + R) of row i, where `bi`/`xi` already point at column c0 of
/// rows i of B/X and `x_blk` at column c0 of X's row 0 (leading dimension
/// r). The accumulators live in registers and the column loops are
/// SIMD-width R, which is the entire point of blocking; per column the
/// operation sequence matches computeRowMulti exactly.
template <std::size_t R>
inline void computeRowMultiPackedFixed(const index_t* cols,
                                       const double* vals, std::size_t nnz,
                                       double diag, const double* bi,
                                       double* xi, const double* x_blk,
                                       std::size_t r) {
  double acc[R];
#pragma omp simd
  for (std::size_t c = 0; c < R; ++c) acc[c] = bi[c];
  for (std::size_t e = 0; e < nnz; ++e) {
    const double a = vals[e];
    const double* xj = x_blk + static_cast<std::size_t>(cols[e]) * r;
#pragma omp simd
    for (std::size_t c = 0; c < R; ++c) acc[c] -= a * xj[c];
  }
#pragma omp simd
  for (std::size_t c = 0; c < R; ++c) xi[c] = acc[c] / diag;
}

/// Multi-RHS substitution step on one row's off-diagonal entries
/// `cols`/`vals` (CSR order) and diagonal `diag`, vectorized across the
/// RHS columns:
/// register blocks of 8, then 4, then a variable tail running the
/// computeRowMulti loop shape on the remaining columns. Column c of the
/// result is bitwise equal to computeRowMulti's column c for every r.
inline void computeRowMultiPacked(const index_t* cols, const double* vals,
                                  std::size_t nnz, double diag,
                                  std::span<const double> b,
                                  std::span<double> x, index_t i,
                                  std::size_t r) {
  const double* bi = b.data() + static_cast<std::size_t>(i) * r;
  double* xi = x.data() + static_cast<std::size_t>(i) * r;
  std::size_t c = 0;
  for (; c + 8 <= r; c += 8) {
    computeRowMultiPackedFixed<8>(cols, vals, nnz, diag, bi + c, xi + c,
                                  x.data() + c, r);
  }
  for (; c + 4 <= r; c += 4) {
    computeRowMultiPackedFixed<4>(cols, vals, nnz, diag, bi + c, xi + c,
                                  x.data() + c, r);
  }
  if (c == r) return;
  // Variable tail (r mod 4 columns): computeRowMulti's exact loop,
  // restricted to columns [c, r).
  for (std::size_t cc = c; cc < r; ++cc) xi[cc] = bi[cc];
  for (std::size_t e = 0; e < nnz; ++e) {
    const double a = vals[e];
    const double* xj = x.data() + static_cast<std::size_t>(cols[e]) * r;
    for (std::size_t cc = c; cc < r; ++cc) xi[cc] -= a * xj[cc];
  }
  for (std::size_t cc = c; cc < r; ++cc) xi[cc] /= diag;
}

/// Tiled multi-RHS substitution step over one RHS column tile: `b_tile`
/// and `x_tile` are a contiguous n x w row-major tile (TileLayout,
/// tile.hpp) and `w` its width. Slices the CSR row at row_ptr and runs the
/// register-blocked computeRowMultiPacked on it, giving the tile loop
/// across-column vectorization. Column c of the tile is bitwise equal to
/// computeRowMulti's column tileBegin + c because blocking never reorders
/// a single column's operations (the file-top contract).
inline void computeRowMultiTiled(std::span<const offset_t> row_ptr,
                                 std::span<const index_t> col_idx,
                                 std::span<const double> values,
                                 std::span<const double> b_tile,
                                 std::span<double> x_tile, index_t i,
                                 std::size_t w) {
  const auto begin = static_cast<size_t>(row_ptr[static_cast<size_t>(i)]);
  const auto diag =
      static_cast<size_t>(row_ptr[static_cast<size_t>(i) + 1]) - 1;
  computeRowMultiPacked(col_idx.data() + begin, values.data() + begin,
                        diag - begin, values[diag], b_tile, x_tile, i, w);
}

inline void requireVectorSizes(const sparse::CsrMatrix& lower,
                               std::span<const double> b,
                               std::span<double> x, index_t nrhs,
                               const char* who) {
  const auto n = static_cast<size_t>(lower.rows());
  if (nrhs <= 0 || b.size() != n * static_cast<size_t>(nrhs) ||
      x.size() != b.size()) {
    throw std::invalid_argument(std::string(who) + ": vector size mismatch");
  }
}

}  // namespace sts::exec::detail

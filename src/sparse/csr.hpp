#pragma once

#include <span>
#include <string>
#include <vector>

#include "sparse/types.hpp"

/// \file csr.hpp
/// Compressed sparse row matrix: the storage format used by every kernel in
/// the library (the paper's SpTRSV kernel iterates CSR rows, §6.1).

namespace sts::sparse {

/// An immutable-after-build sparse matrix in CSR format.
///
/// Invariants (checked by validate()):
///  * rowPtr has rows()+1 monotonically non-decreasing entries,
///    rowPtr[0] == 0 and rowPtr[rows()] == nnz();
///  * column indices within each row are strictly increasing and in range.
///
/// Duplicate entries are merged at build time. Explicit zeros are kept (a
/// stored zero is still a structural nonzero, which matters for DAG
/// construction).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Adopts pre-built arrays. Throws std::invalid_argument on malformed
  /// input (unsorted rows are sorted, duplicates rejected).
  CsrMatrix(index_t rows, index_t cols, std::vector<offset_t> row_ptr,
            std::vector<index_t> col_idx, std::vector<double> values);

  /// Builds from an unordered triplet list. Duplicates are summed.
  static CsrMatrix fromTriplets(index_t rows, index_t cols,
                                std::span<const Triplet> triplets);

  /// n-by-n identity.
  static CsrMatrix identity(index_t n);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  offset_t nnz() const { return static_cast<offset_t>(col_idx_.size()); }

  std::span<const offset_t> rowPtr() const { return row_ptr_; }
  std::span<const index_t> colIdx() const { return col_idx_; }
  std::span<const double> values() const { return values_; }

  offset_t rowBegin(index_t i) const { return row_ptr_[static_cast<size_t>(i)]; }
  offset_t rowEnd(index_t i) const { return row_ptr_[static_cast<size_t>(i) + 1]; }
  index_t rowNnz(index_t i) const {
    return static_cast<index_t>(rowEnd(i) - rowBegin(i));
  }

  /// Column indices of row i, sorted ascending.
  std::span<const index_t> rowCols(index_t i) const {
    return std::span<const index_t>(col_idx_).subspan(
        static_cast<size_t>(rowBegin(i)), static_cast<size_t>(rowNnz(i)));
  }

  /// Values of row i, aligned with rowCols(i).
  std::span<const double> rowValues(index_t i) const {
    return std::span<const double>(values_).subspan(
        static_cast<size_t>(rowBegin(i)), static_cast<size_t>(rowNnz(i)));
  }

  /// Value at (i, j); 0.0 if the entry is not stored. O(log rowNnz).
  double at(index_t i, index_t j) const;

  /// True if (i, j) is a stored entry.
  bool hasEntry(index_t i, index_t j) const;

  /// B = A^T.
  CsrMatrix transposed() const;

  /// Strictly structural: keeps entries with col <= row (or col < row).
  CsrMatrix lowerTriangle(bool include_diagonal = true) const;
  /// Keeps entries with col >= row (or col > row).
  CsrMatrix upperTriangle(bool include_diagonal = true) const;

  bool isLowerTriangular() const;
  bool isUpperTriangular() const;

  /// True iff every diagonal entry (i, i) is stored (required for solves).
  bool hasFullDiagonal() const;

  /// Diagonal values; 0.0 where the entry is absent.
  std::vector<double> diagonal() const;

  /// B[i][j] = A[new_to_old[i]][new_to_old[j]]. `new_to_old` must be a
  /// permutation of 0..rows-1; the matrix must be square.
  CsrMatrix symmetricPermuted(std::span<const index_t> new_to_old) const;

  /// y = A x (dense x) on the default team,
  /// min(omp_get_max_threads(), hardware_concurrency()).
  std::vector<double> multiply(std::span<const double> x) const;

  /// y = A x into the caller's `y` on `team` threads. The rows are split
  /// into `team` contiguous ranges of about equal nnz, and each row sums in
  /// its stored order, so `y` is bitwise the same at every team. Team 1
  /// opens no OpenMP region. Throws std::invalid_argument when x.size() !=
  /// cols(), y.size() != rows(), team < 1, or `x` and `y` overlap.
  void multiply(std::span<const double> x, std::span<double> y,
                int team) const;

  /// Same sparsity pattern (dims, rowPtr, colIdx).
  bool structureEquals(const CsrMatrix& other) const;

  /// structureEquals plus values within absolute tolerance `tol`.
  bool almostEquals(const CsrMatrix& other, double tol) const;

  /// Verifies all class invariants; throws std::logic_error on violation.
  void validate() const;

  /// Short human-readable summary ("1024x1024, nnz=5120").
  std::string summary() const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<offset_t> row_ptr_ = {0};
  std::vector<index_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace sts::sparse

#include "sparse/csr.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "sparse/permute.hpp"

namespace sts::sparse {

namespace {

void sortRowSegments(index_t rows, std::span<const offset_t> row_ptr,
                     std::vector<index_t>& col_idx,
                     std::vector<double>& values) {
  std::vector<std::pair<index_t, double>> buf;
  for (index_t i = 0; i < rows; ++i) {
    const auto begin = static_cast<size_t>(row_ptr[static_cast<size_t>(i)]);
    const auto end = static_cast<size_t>(row_ptr[static_cast<size_t>(i) + 1]);
    if (std::is_sorted(col_idx.begin() + static_cast<std::ptrdiff_t>(begin),
                       col_idx.begin() + static_cast<std::ptrdiff_t>(end))) {
      continue;
    }
    buf.clear();
    buf.reserve(end - begin);
    for (size_t k = begin; k < end; ++k) buf.emplace_back(col_idx[k], values[k]);
    std::sort(buf.begin(), buf.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t k = begin; k < end; ++k) {
      col_idx[k] = buf[k - begin].first;
      values[k] = buf[k - begin].second;
    }
  }
}

}  // namespace

CsrMatrix::CsrMatrix(index_t rows, index_t cols, std::vector<offset_t> row_ptr,
                     std::vector<index_t> col_idx, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  if (rows_ < 0 || cols_ < 0) {
    throw std::invalid_argument("CsrMatrix: negative dimensions");
  }
  if (row_ptr_.size() != static_cast<size_t>(rows_) + 1) {
    throw std::invalid_argument("CsrMatrix: rowPtr size must be rows+1");
  }
  if (col_idx_.size() != values_.size()) {
    throw std::invalid_argument("CsrMatrix: colIdx/values size mismatch");
  }
  // Bounds must hold before any row segment is touched.
  if (row_ptr_.front() != 0 ||
      row_ptr_.back() != static_cast<offset_t>(col_idx_.size())) {
    throw std::invalid_argument("CsrMatrix: rowPtr endpoints invalid");
  }
  for (size_t i = 0; i + 1 < row_ptr_.size(); ++i) {
    if (row_ptr_[i] > row_ptr_[i + 1]) {
      throw std::invalid_argument("CsrMatrix: rowPtr not monotone");
    }
  }
  sortRowSegments(rows_, row_ptr_, col_idx_, values_);
  validate();
}

CsrMatrix CsrMatrix::fromTriplets(index_t rows, index_t cols,
                                  std::span<const Triplet> triplets) {
  if (rows < 0 || cols < 0) {
    throw std::invalid_argument("fromTriplets: negative dimensions");
  }
  for (const Triplet& t : triplets) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
      std::ostringstream os;
      os << "fromTriplets: entry (" << t.row << ", " << t.col
         << ") out of range for " << rows << "x" << cols;
      throw std::invalid_argument(os.str());
    }
  }

  // Counting sort by row, then sort each row by column and merge duplicates.
  std::vector<offset_t> row_counts(static_cast<size_t>(rows) + 1, 0);
  for (const Triplet& t : triplets) ++row_counts[static_cast<size_t>(t.row) + 1];
  std::partial_sum(row_counts.begin(), row_counts.end(), row_counts.begin());

  std::vector<index_t> cols_tmp(triplets.size());
  std::vector<double> vals_tmp(triplets.size());
  {
    std::vector<offset_t> cursor(row_counts.begin(), row_counts.end() - 1);
    for (const Triplet& t : triplets) {
      const auto k = static_cast<size_t>(cursor[static_cast<size_t>(t.row)]++);
      cols_tmp[k] = t.col;
      vals_tmp[k] = t.value;
    }
  }
  sortRowSegments(rows, row_counts, cols_tmp, vals_tmp);

  std::vector<offset_t> row_ptr(static_cast<size_t>(rows) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(triplets.size());
  values.reserve(triplets.size());
  for (index_t i = 0; i < rows; ++i) {
    const auto begin = static_cast<size_t>(row_counts[static_cast<size_t>(i)]);
    const auto end = static_cast<size_t>(row_counts[static_cast<size_t>(i) + 1]);
    for (size_t k = begin; k < end; ++k) {
      if (!col_idx.empty() &&
          static_cast<size_t>(row_ptr[static_cast<size_t>(i)]) <
              col_idx.size() &&
          col_idx.back() == cols_tmp[k] &&
          static_cast<offset_t>(col_idx.size()) >
              row_ptr[static_cast<size_t>(i)]) {
        values.back() += vals_tmp[k];  // merge duplicate
      } else {
        col_idx.push_back(cols_tmp[k]);
        values.push_back(vals_tmp[k]);
      }
    }
    row_ptr[static_cast<size_t>(i) + 1] = static_cast<offset_t>(col_idx.size());
  }

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  m.validate();
  return m;
}

CsrMatrix CsrMatrix::identity(index_t n) {
  std::vector<offset_t> row_ptr(static_cast<size_t>(n) + 1);
  std::iota(row_ptr.begin(), row_ptr.end(), offset_t{0});
  std::vector<index_t> col_idx(static_cast<size_t>(n));
  std::iota(col_idx.begin(), col_idx.end(), index_t{0});
  std::vector<double> values(static_cast<size_t>(n), 1.0);
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

double CsrMatrix::at(index_t i, index_t j) const {
  const auto cols_i = rowCols(i);
  const auto it = std::lower_bound(cols_i.begin(), cols_i.end(), j);
  if (it == cols_i.end() || *it != j) return 0.0;
  const auto k = static_cast<size_t>(rowBegin(i) + (it - cols_i.begin()));
  return values_[k];
}

bool CsrMatrix::hasEntry(index_t i, index_t j) const {
  const auto cols_i = rowCols(i);
  return std::binary_search(cols_i.begin(), cols_i.end(), j);
}

CsrMatrix CsrMatrix::transposed() const {
  std::vector<offset_t> t_row_ptr(static_cast<size_t>(cols_) + 1, 0);
  for (const index_t c : col_idx_) ++t_row_ptr[static_cast<size_t>(c) + 1];
  std::partial_sum(t_row_ptr.begin(), t_row_ptr.end(), t_row_ptr.begin());

  std::vector<index_t> t_col_idx(col_idx_.size());
  std::vector<double> t_values(values_.size());
  std::vector<offset_t> cursor(t_row_ptr.begin(), t_row_ptr.end() - 1);
  for (index_t i = 0; i < rows_; ++i) {
    for (offset_t k = rowBegin(i); k < rowEnd(i); ++k) {
      const auto c = static_cast<size_t>(col_idx_[static_cast<size_t>(k)]);
      const auto pos = static_cast<size_t>(cursor[c]++);
      t_col_idx[pos] = i;
      t_values[pos] = values_[static_cast<size_t>(k)];
    }
  }
  // Rows of the transpose are filled in increasing source-row order, so the
  // column indices are already sorted.
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_ = std::move(t_row_ptr);
  t.col_idx_ = std::move(t_col_idx);
  t.values_ = std::move(t_values);
  return t;
}

namespace {

template <typename Keep>
CsrMatrix filterEntries(const CsrMatrix& a, Keep keep) {
  std::vector<offset_t> row_ptr(static_cast<size_t>(a.rows()) + 1, 0);
  std::vector<index_t> col_idx;
  std::vector<double> values;
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols_i = a.rowCols(i);
    const auto vals_i = a.rowValues(i);
    for (size_t k = 0; k < cols_i.size(); ++k) {
      if (keep(i, cols_i[k])) {
        col_idx.push_back(cols_i[k]);
        values.push_back(vals_i[k]);
      }
    }
    row_ptr[static_cast<size_t>(i) + 1] = static_cast<offset_t>(col_idx.size());
  }
  return CsrMatrix(a.rows(), a.cols(), std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

}  // namespace

CsrMatrix CsrMatrix::lowerTriangle(bool include_diagonal) const {
  return filterEntries(*this, [include_diagonal](index_t i, index_t j) {
    return include_diagonal ? j <= i : j < i;
  });
}

CsrMatrix CsrMatrix::upperTriangle(bool include_diagonal) const {
  return filterEntries(*this, [include_diagonal](index_t i, index_t j) {
    return include_diagonal ? j >= i : j > i;
  });
}

bool CsrMatrix::isLowerTriangular() const {
  for (index_t i = 0; i < rows_; ++i) {
    const auto cols_i = rowCols(i);
    if (!cols_i.empty() && cols_i.back() > i) return false;
  }
  return true;
}

bool CsrMatrix::isUpperTriangular() const {
  for (index_t i = 0; i < rows_; ++i) {
    const auto cols_i = rowCols(i);
    if (!cols_i.empty() && cols_i.front() < i) return false;
  }
  return true;
}

bool CsrMatrix::hasFullDiagonal() const {
  if (rows_ != cols_) return false;
  for (index_t i = 0; i < rows_; ++i) {
    if (!hasEntry(i, i)) return false;
  }
  return true;
}

std::vector<double> CsrMatrix::diagonal() const {
  const index_t n = std::min(rows_, cols_);
  std::vector<double> d(static_cast<size_t>(n), 0.0);
  for (index_t i = 0; i < n; ++i) d[static_cast<size_t>(i)] = at(i, i);
  return d;
}

CsrMatrix CsrMatrix::symmetricPermuted(
    std::span<const index_t> new_to_old) const {
  if (rows_ != cols_) {
    throw std::invalid_argument("symmetricPermuted: matrix must be square");
  }
  if (static_cast<index_t>(new_to_old.size()) != rows_ ||
      !isPermutation(new_to_old)) {
    throw std::invalid_argument("symmetricPermuted: not a permutation");
  }
  const std::vector<index_t> old_to_new = inversePermutation(new_to_old);

  std::vector<offset_t> row_ptr(static_cast<size_t>(rows_) + 1, 0);
  for (index_t i = 0; i < rows_; ++i) {
    row_ptr[static_cast<size_t>(i) + 1] =
        row_ptr[static_cast<size_t>(i)] +
        rowNnz(new_to_old[static_cast<size_t>(i)]);
  }
  std::vector<index_t> col_idx(col_idx_.size());
  std::vector<double> values(values_.size());
  for (index_t i = 0; i < rows_; ++i) {
    const index_t old_row = new_to_old[static_cast<size_t>(i)];
    const auto cols_o = rowCols(old_row);
    const auto vals_o = rowValues(old_row);
    auto pos = static_cast<size_t>(row_ptr[static_cast<size_t>(i)]);
    for (size_t k = 0; k < cols_o.size(); ++k, ++pos) {
      col_idx[pos] = old_to_new[static_cast<size_t>(cols_o[k])];
      values[pos] = vals_o[k];
    }
  }
  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

std::vector<double> CsrMatrix::multiply(std::span<const double> x) const {
  const int team = std::min(
      omp_get_max_threads(),
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  std::vector<double> y(static_cast<size_t>(rows_));
  multiply(x, y, team);
  return y;
}

namespace {

// Rows [lo, hi) of y = A x, each summed in its stored order.
void multiplyRows(const offset_t* row_ptr, const index_t* col_idx,
                  const double* values, const double* x, double* y,
                  index_t lo, index_t hi) {
  for (index_t i = lo; i < hi; ++i) {
    double acc = 0.0;
    const offset_t end = row_ptr[i + 1];
    for (offset_t k = row_ptr[i]; k < end; ++k) {
      acc += values[k] * x[col_idx[k]];
    }
    y[i] = acc;
  }
}

}  // namespace

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y,
                         int team) const {
  if (static_cast<index_t>(x.size()) != cols_ ||
      static_cast<index_t>(y.size()) != rows_) {
    throw std::invalid_argument("multiply: dimension mismatch");
  }
  if (team < 1) throw std::invalid_argument("multiply: team must be >= 1");
  const std::less<const double*> before;
  if (!x.empty() && !y.empty() && before(x.data(), y.data() + y.size()) &&
      before(y.data(), x.data() + x.size())) {
    throw std::invalid_argument("multiply: x and y overlap");
  }
  const offset_t* row_ptr = row_ptr_.data();
  const index_t* col_idx = col_idx_.data();
  const double* values = values_.data();
  if (team == 1) {
    multiplyRows(row_ptr, col_idx, values, x.data(), y.data(), 0, rows_);
    return;
  }
  // Range r starts at the first row whose nonzeros begin at or past
  // r/team of nnz.
  const offset_t total = nnz();
  std::vector<index_t> bounds(static_cast<size_t>(team) + 1, rows_);
  for (int r = 0; r < team; ++r) {
    bounds[static_cast<size_t>(r)] = static_cast<index_t>(
        std::lower_bound(row_ptr_.begin(), row_ptr_.end() - 1,
                         total * r / team) -
        row_ptr_.begin());
  }
  // libgomp's fork orders the caller's writes before the members' reads,
  // and its join the members' writes to y before the caller's reads, but
  // ThreadSanitizer sees neither. An atomic it does see carries both
  // edges: the caller's release store before the loop and each member's
  // acquire load before its range; a release per range and one acquire
  // after the loop, as in core::blockSchedule. Without the fork edge, TSan
  // flags every read of x and of the matrix, and the suppressed reports
  // cost it seconds per call at n = 14k.
  std::atomic<int> ranges_done;
  ranges_done.store(0, std::memory_order_release);
#pragma omp parallel for num_threads(team) schedule(static, 1)
  for (int r = 0; r < team; ++r) {
    (void)ranges_done.load(std::memory_order_acquire);
    multiplyRows(row_ptr, col_idx, values, x.data(), y.data(),
                 bounds[static_cast<size_t>(r)],
                 bounds[static_cast<size_t>(r) + 1]);
    ranges_done.fetch_add(1, std::memory_order_release);
  }
  (void)ranges_done.load(std::memory_order_acquire);
}

bool CsrMatrix::structureEquals(const CsrMatrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         row_ptr_ == other.row_ptr_ && col_idx_ == other.col_idx_;
}

bool CsrMatrix::almostEquals(const CsrMatrix& other, double tol) const {
  if (!structureEquals(other)) return false;
  for (size_t k = 0; k < values_.size(); ++k) {
    if (std::abs(values_[k] - other.values_[k]) > tol) return false;
  }
  return true;
}

void CsrMatrix::validate() const {
  if (row_ptr_.size() != static_cast<size_t>(rows_) + 1) {
    throw std::logic_error("CsrMatrix: rowPtr size mismatch");
  }
  if (row_ptr_.front() != 0 ||
      row_ptr_.back() != static_cast<offset_t>(col_idx_.size())) {
    throw std::logic_error("CsrMatrix: rowPtr endpoints invalid");
  }
  for (index_t i = 0; i < rows_; ++i) {
    if (rowBegin(i) > rowEnd(i)) {
      throw std::logic_error("CsrMatrix: rowPtr not monotone");
    }
    const auto cols_i = rowCols(i);
    for (size_t k = 0; k < cols_i.size(); ++k) {
      if (cols_i[k] < 0 || cols_i[k] >= cols_) {
        throw std::logic_error("CsrMatrix: column index out of range");
      }
      if (k > 0 && cols_i[k] <= cols_i[k - 1]) {
        throw std::logic_error("CsrMatrix: columns not strictly increasing");
      }
    }
  }
}

std::string CsrMatrix::summary() const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << ", nnz=" << nnz();
  return os.str();
}

}  // namespace sts::sparse

#include "sparse/csr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "test_util.hpp"

namespace sts::sparse {
namespace {

TEST(CsrMatrix, EmptyMatrix) {
  const CsrMatrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_EQ(m.nnz(), 0);
}

TEST(CsrMatrix, FromTripletsBasic) {
  const std::vector<Triplet> t = {
      {0, 0, 1.0}, {1, 0, 2.0}, {1, 1, 3.0}, {2, 2, 4.0}};
  const CsrMatrix m = CsrMatrix::fromTriplets(3, 3, t);
  EXPECT_EQ(m.nnz(), 4);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0);
  EXPECT_TRUE(m.hasEntry(1, 0));
  EXPECT_FALSE(m.hasEntry(0, 1));
}

TEST(CsrMatrix, FromTripletsUnsortedInput) {
  const std::vector<Triplet> t = {
      {2, 1, 5.0}, {0, 0, 1.0}, {2, 0, 4.0}, {1, 1, 2.0}};
  const CsrMatrix m = CsrMatrix::fromTriplets(3, 3, t);
  const auto cols = m.rowCols(2);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], 0);
  EXPECT_EQ(cols[1], 1);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 4.0);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 5.0);
}

TEST(CsrMatrix, FromTripletsMergesDuplicates) {
  const std::vector<Triplet> t = {{0, 0, 1.0}, {0, 0, 2.5}, {1, 0, -1.0},
                                  {1, 0, 1.0}};
  const CsrMatrix m = CsrMatrix::fromTriplets(2, 2, t);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);  // stored explicit zero
  EXPECT_TRUE(m.hasEntry(1, 0));
}

TEST(CsrMatrix, FromTripletsRejectsOutOfRange) {
  const std::vector<Triplet> t = {{0, 3, 1.0}};
  EXPECT_THROW(CsrMatrix::fromTriplets(2, 2, t), std::invalid_argument);
  const std::vector<Triplet> t2 = {{-1, 0, 1.0}};
  EXPECT_THROW(CsrMatrix::fromTriplets(2, 2, t2), std::invalid_argument);
}

TEST(CsrMatrix, Identity) {
  const CsrMatrix id = CsrMatrix::identity(4);
  EXPECT_EQ(id.nnz(), 4);
  for (index_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(id.at(i, i), 1.0);
  EXPECT_TRUE(id.isLowerTriangular());
  EXPECT_TRUE(id.isUpperTriangular());
  EXPECT_TRUE(id.hasFullDiagonal());
}

TEST(CsrMatrix, TransposeRoundTrip) {
  const std::vector<Triplet> t = {
      {0, 0, 1.0}, {1, 0, 2.0}, {2, 1, 3.0}, {2, 2, 4.0}, {0, 2, 5.0}};
  const CsrMatrix m = CsrMatrix::fromTriplets(3, 3, t);
  const CsrMatrix mt = m.transposed();
  EXPECT_DOUBLE_EQ(mt.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(mt.at(2, 0), 5.0);
  EXPECT_TRUE(m.transposed().transposed().structureEquals(m));
  EXPECT_TRUE(m.transposed().transposed().almostEquals(m, 0.0));
}

TEST(CsrMatrix, TransposeRectangular) {
  const std::vector<Triplet> t = {{0, 3, 1.0}, {1, 1, 2.0}};
  const CsrMatrix m = CsrMatrix::fromTriplets(2, 4, t);
  const CsrMatrix mt = m.transposed();
  EXPECT_EQ(mt.rows(), 4);
  EXPECT_EQ(mt.cols(), 2);
  EXPECT_DOUBLE_EQ(mt.at(3, 0), 1.0);
}

TEST(CsrMatrix, TriangleExtraction) {
  const std::vector<Triplet> t = {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 3.0},
                                  {1, 1, 4.0}};
  const CsrMatrix m = CsrMatrix::fromTriplets(2, 2, t);
  const CsrMatrix lo = m.lowerTriangle();
  EXPECT_EQ(lo.nnz(), 3);
  EXPECT_TRUE(lo.isLowerTriangular());
  const CsrMatrix lo_strict = m.lowerTriangle(false);
  EXPECT_EQ(lo_strict.nnz(), 1);
  const CsrMatrix up = m.upperTriangle();
  EXPECT_EQ(up.nnz(), 3);
  EXPECT_TRUE(up.isUpperTriangular());
}

TEST(CsrMatrix, DiagonalExtraction) {
  const std::vector<Triplet> t = {{0, 0, 2.0}, {1, 0, 1.0}, {2, 2, -3.0}};
  const CsrMatrix m = CsrMatrix::fromTriplets(3, 3, t);
  const auto d = m.diagonal();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], -3.0);
  EXPECT_FALSE(m.hasFullDiagonal());
}

TEST(CsrMatrix, SymmetricPermutation) {
  // A = [[1, 0, 0], [2, 3, 0], [0, 4, 5]]; permute with new_to_old=[2,0,1].
  const std::vector<Triplet> t = {
      {0, 0, 1.0}, {1, 0, 2.0}, {1, 1, 3.0}, {2, 1, 4.0}, {2, 2, 5.0}};
  const CsrMatrix m = CsrMatrix::fromTriplets(3, 3, t);
  const std::vector<index_t> perm = {2, 0, 1};
  const CsrMatrix p = m.symmetricPermuted(perm);
  // B[i][j] = A[perm[i]][perm[j]].
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(p.at(i, j),
                       m.at(perm[static_cast<size_t>(i)],
                            perm[static_cast<size_t>(j)]))
          << "mismatch at (" << i << "," << j << ")";
    }
  }
}

TEST(CsrMatrix, SymmetricPermutationIdentityIsNoop) {
  const std::vector<Triplet> t = {{0, 0, 1.0}, {1, 0, 2.0}, {1, 1, 3.0}};
  const CsrMatrix m = CsrMatrix::fromTriplets(2, 2, t);
  const std::vector<index_t> id = {0, 1};
  EXPECT_TRUE(m.symmetricPermuted(id).almostEquals(m, 0.0));
}

TEST(CsrMatrix, SymmetricPermutationRejectsBadInput) {
  const CsrMatrix m = CsrMatrix::identity(3);
  const std::vector<index_t> bad = {0, 0, 1};
  EXPECT_THROW(m.symmetricPermuted(bad), std::invalid_argument);
  const std::vector<index_t> short_perm = {0, 1};
  EXPECT_THROW(m.symmetricPermuted(short_perm), std::invalid_argument);
}

TEST(CsrMatrix, Multiply) {
  const std::vector<Triplet> t = {
      {0, 0, 1.0}, {1, 0, 2.0}, {1, 1, 3.0}, {2, 1, 4.0}};
  const CsrMatrix m = CsrMatrix::fromTriplets(3, 3, t);
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const auto y = m.multiply(x);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 8.0);
  EXPECT_DOUBLE_EQ(y[2], 8.0);
}

// The reference y = A x: one accumulator per row, summed in stored order.
std::vector<double> serialMultiply(const CsrMatrix& m,
                                   const std::vector<double>& x) {
  std::vector<double> y(static_cast<size_t>(m.rows()));
  for (index_t i = 0; i < m.rows(); ++i) {
    double acc = 0.0;
    const auto cols_i = m.rowCols(i);
    const auto vals_i = m.rowValues(i);
    for (size_t k = 0; k < cols_i.size(); ++k) {
      acc += vals_i[k] * x[static_cast<size_t>(cols_i[k])];
    }
    y[static_cast<size_t>(i)] = acc;
  }
  return y;
}

// Mixed signs and magnitudes, so that any change of summation order shows
// in the low bits.
std::vector<double> mixedVector(index_t n) {
  std::vector<double> x(static_cast<size_t>(n));
  for (size_t j = 0; j < x.size(); ++j) {
    const double scale = j % 3 == 0 ? 1e8 : (j % 3 == 1 ? 1.0 : 1e-7);
    x[j] = scale * std::sin(0.37 * static_cast<double>(j) + 1.0);
  }
  return x;
}

bool bitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// 300 x 170 with empty leading, interleaved and trailing rows.
CsrMatrix rectangularWithEmptyRows() {
  std::vector<Triplet> t;
  for (index_t i = 3; i < 280; ++i) {
    if (i % 7 == 3) continue;
    for (index_t k = 0; k < 1 + i % 5; ++k) {
      t.push_back({i, (i * 13 + k * 29) % 170, 1.0 / (1.0 + i + k)});
    }
  }
  return CsrMatrix::fromTriplets(300, 170, t);
}

TEST(CsrMatrix, MultiplyIsBitwiseSerialAtEveryTeam) {
  std::vector<testutil::NamedMatrix> cases = testutil::lowerTriangularZoo();
  cases.push_back({"grid3d_24_full", datagen::grid3dLaplacian7(24, 24, 24)});
  cases.push_back({"rect_empty_rows", rectangularWithEmptyRows()});
  for (const auto& [name, m] : cases) {
    const std::vector<double> x = mixedVector(m.cols());
    const std::vector<double> expected = serialMultiply(m, x);
    for (const int team : {1, 2, 4}) {
      std::vector<double> y(static_cast<size_t>(m.rows()),
                            std::numeric_limits<double>::quiet_NaN());
      m.multiply(x, y, team);
      EXPECT_TRUE(bitwiseEqual(y, expected)) << name << " team " << team;
    }
    EXPECT_TRUE(bitwiseEqual(m.multiply(x), expected)) << name;
  }
}

TEST(CsrMatrix, MultiplyRejectsBadArguments) {
  const CsrMatrix m = datagen::grid2dLaplacian5(8, 8);
  const auto n = static_cast<size_t>(m.rows());
  const std::vector<double> x(n, 1.0);
  std::vector<double> y(n);
  std::vector<double> short_vec(n - 1);
  EXPECT_THROW(m.multiply(short_vec, y, 1), std::invalid_argument);
  EXPECT_THROW(m.multiply(x, short_vec, 1), std::invalid_argument);
  EXPECT_THROW(m.multiply(short_vec), std::invalid_argument);
  EXPECT_THROW(m.multiply(x, y, 0), std::invalid_argument);
  EXPECT_THROW(m.multiply(x, y, -2), std::invalid_argument);

  // y aliasing x, fully or in part; adjacent halves of one buffer are fine.
  std::vector<double> buf(2 * n, 1.0);
  const std::span<double> whole(buf);
  EXPECT_THROW(m.multiply(whole.first(n), whole.first(n), 2),
               std::invalid_argument);
  EXPECT_THROW(m.multiply(whole.first(n), whole.subspan(n / 2, n), 2),
               std::invalid_argument);
  EXPECT_THROW(m.multiply(whole.subspan(n / 2, n), whole.first(n), 2),
               std::invalid_argument);
  const std::span<double> product = whole.subspan(n, n);
  m.multiply(whole.first(n), product, 2);
  EXPECT_TRUE(bitwiseEqual({product.begin(), product.end()},
                           serialMultiply(m, x)));
}

TEST(CsrMatrix, ConstructorRejectsMalformed) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(CsrMatrix(1, 1, {0, 2}, {0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(CsrMatrix(2, 2, {0, 2, 1}, {0, 1}, {1.0, 1.0}),
               std::invalid_argument);  // non-monotone rowPtr
  // Duplicate column in a row is caught by validate().
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {1, 1}, {1.0, 2.0}), std::logic_error);
}

TEST(CsrMatrix, ConstructorSortsRows) {
  const CsrMatrix m(1, 3, {0, 2}, {2, 0}, {5.0, 1.0});
  const auto cols = m.rowCols(0);
  EXPECT_EQ(cols[0], 0);
  EXPECT_EQ(cols[1], 2);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 5.0);
}

TEST(CsrMatrix, RowAccessors) {
  const std::vector<Triplet> t = {{0, 0, 1.0}, {2, 0, 2.0}, {2, 1, 3.0}};
  const CsrMatrix m = CsrMatrix::fromTriplets(3, 2, t);
  EXPECT_EQ(m.rowNnz(0), 1);
  EXPECT_EQ(m.rowNnz(1), 0);
  EXPECT_EQ(m.rowNnz(2), 2);
  EXPECT_TRUE(m.rowCols(1).empty());
}

}  // namespace
}  // namespace sts::sparse

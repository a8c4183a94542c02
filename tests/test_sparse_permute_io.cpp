#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sparse/mm_io.hpp"
#include "sparse/permute.hpp"
#include "datagen/random_matrices.hpp"

namespace sts::sparse {
namespace {

TEST(Permute, IsPermutation) {
  EXPECT_TRUE(isPermutation(std::vector<index_t>{}));
  EXPECT_TRUE(isPermutation(std::vector<index_t>{0}));
  EXPECT_TRUE(isPermutation(std::vector<index_t>{2, 0, 1}));
  EXPECT_FALSE(isPermutation(std::vector<index_t>{0, 0}));
  EXPECT_FALSE(isPermutation(std::vector<index_t>{1, 2}));
  EXPECT_FALSE(isPermutation(std::vector<index_t>{-1, 0}));
}

TEST(Permute, InverseRoundTrip) {
  const std::vector<index_t> p = {3, 1, 0, 2};
  const auto inv = inversePermutation(p);
  EXPECT_EQ(inv, (std::vector<index_t>{2, 1, 3, 0}));
  EXPECT_EQ(inversePermutation(inv), p);
  EXPECT_THROW(inversePermutation(std::vector<index_t>{0, 0}),
               std::invalid_argument);
}

TEST(Permute, VectorRoundTrip) {
  const std::vector<index_t> p = {2, 0, 1};
  const std::vector<double> v = {10.0, 20.0, 30.0};
  const auto permuted = permuteVector(v, p);
  EXPECT_EQ(permuted, (std::vector<double>{30.0, 10.0, 20.0}));
  EXPECT_EQ(unpermuteVector(permuted, p), v);
}

TEST(Permute, Composition) {
  // c = a after b: c[i] = a[b[i]].
  const std::vector<index_t> a = {1, 2, 0};
  const std::vector<index_t> b = {2, 0, 1};
  const auto c = composePermutations(a, b);
  EXPECT_EQ(c, (std::vector<index_t>{0, 1, 2}));
  // Permuting twice equals permuting by the composition.
  const std::vector<double> v = {5.0, 7.0, 9.0};
  const auto two_step = permuteVector(permuteVector(v, a), b);
  EXPECT_EQ(two_step, permuteVector(v, c));
}

TEST(Permute, HelpersRejectOutOfRangeEntries) {
  // Each helper indexes through its map: a negative or >= n entry would
  // read (permuteVector, composePermutations) or write (unpermuteVector)
  // out of bounds.
  const std::vector<double> v = {10.0, 20.0, 30.0};
  const std::vector<index_t> ok = {2, 0, 1};
  for (const index_t bad : {index_t{-1}, index_t{3}, index_t{1000}}) {
    const std::vector<index_t> map = {0, bad, 1};
    EXPECT_THROW(permuteVector(v, map), std::invalid_argument) << bad;
    EXPECT_THROW(unpermuteVector(v, map), std::invalid_argument) << bad;
    EXPECT_THROW(composePermutations(ok, map), std::invalid_argument) << bad;
  }
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  const auto m = datagen::erdosRenyiLower({.n = 60, .p = 0.05, .seed = 60});
  std::stringstream buf;
  writeMatrixMarket(buf, m);
  const auto data = readMatrixMarket(buf);
  EXPECT_EQ(data.rows, 60);
  EXPECT_EQ(data.cols, 60);
  const auto m2 = CsrMatrix::fromTriplets(data.rows, data.cols, data.entries);
  EXPECT_TRUE(m2.structureEquals(m));
  EXPECT_TRUE(m2.almostEquals(m, 0.0));  // 17 digits: lossless
}

TEST(MatrixMarket, ReadsSymmetric) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% comment line\n"
      "3 3 3\n"
      "1 1 2.0\n"
      "2 1 -1.0\n"
      "3 3 5.0\n");
  const auto data = readMatrixMarket(in);
  EXPECT_TRUE(data.symmetric);
  const auto m = CsrMatrix::fromTriplets(data.rows, data.cols, data.entries);
  EXPECT_DOUBLE_EQ(m.at(0, 1), -1.0);  // mirrored
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_EQ(m.nnz(), 4);  // diagonal not duplicated
}

TEST(MatrixMarket, ReadsPattern) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n"
      "2 1\n");
  const auto data = readMatrixMarket(in);
  EXPECT_TRUE(data.pattern);
  const auto m = CsrMatrix::fromTriplets(data.rows, data.cols, data.entries);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 1.0);
}

TEST(MatrixMarket, ReadsInteger) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate integer general\n"
      "2 2 1\n"
      "2 2 7\n");
  const auto data = readMatrixMarket(in);
  const auto m = CsrMatrix::fromTriplets(data.rows, data.cols, data.entries);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 7.0);
}

TEST(MatrixMarket, RejectsBadBanner) {
  std::stringstream in("%%NotMatrixMarket matrix coordinate real general\n");
  EXPECT_THROW(readMatrixMarket(in), std::runtime_error);
  std::stringstream in2("%%MatrixMarket matrix array real general\n2 2\n");
  EXPECT_THROW(readMatrixMarket(in2), std::runtime_error);
}

TEST(MatrixMarket, RejectsCountMismatch) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n");
  EXPECT_THROW(readMatrixMarket(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsOutOfRangeEntry) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  EXPECT_THROW(readMatrixMarket(in), std::runtime_error);
}

// The size line is untrusted: dimensions past index_t and declared counts
// that no memory could hold must end in the reader's parse error, not in a
// silent truncation, std::length_error or std::bad_alloc.
void expectParseError(const std::string& text) {
  std::stringstream in(text);
  try {
    readMatrixMarket(in);
    ADD_FAILURE() << "parsed: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("MatrixMarket parse error"),
              std::string::npos)
        << e.what();
  }
}

TEST(MatrixMarket, RejectsDimensionsBeyondIndexRange) {
  expectParseError(
      "%%MatrixMarket matrix coordinate real general\n"
      "4294967297 4294967297 1\n"
      "1 1 2.0\n");
}

TEST(MatrixMarket, RejectsDeclaredCountBeyondMaxSize) {
  expectParseError(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1000000000000000000\n"
      "1 1 2.0\n");
}

TEST(MatrixMarket, RejectsDeclaredCountBeyondMemory) {
  expectParseError(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 100000000000\n"
      "1 1 2.0\n");
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW(readMatrixMarketFile("/nonexistent/matrix.mtx"),
               std::runtime_error);
}

}  // namespace
}  // namespace sts::sparse

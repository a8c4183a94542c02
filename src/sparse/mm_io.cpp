#include "sparse/mm_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace sts::sparse {

namespace {

[[noreturn]] void fail(size_t line_no, const std::string& what) {
  std::ostringstream os;
  os << "MatrixMarket parse error at line " << line_no << ": " << what;
  throw std::runtime_error(os.str());
}

std::string toLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

MatrixMarketData readMatrixMarket(std::istream& in) {
  std::string line;
  size_t line_no = 0;

  // Banner: %%MatrixMarket matrix coordinate <field> <symmetry>
  if (!std::getline(in, line)) fail(1, "empty stream");
  ++line_no;
  {
    std::istringstream banner(line);
    std::string magic, object, format, field, symmetry;
    banner >> magic >> object >> format >> field >> symmetry;
    if (toLower(magic) != "%%matrixmarket") fail(line_no, "missing banner");
    if (toLower(object) != "matrix") fail(line_no, "object must be 'matrix'");
    if (toLower(format) != "coordinate") {
      fail(line_no, "only coordinate format is supported");
    }
    MatrixMarketData data;
    const std::string f = toLower(field);
    if (f == "pattern") {
      data.pattern = true;
    } else if (f != "real" && f != "integer") {
      fail(line_no, "field must be real, integer or pattern (got " + f + ")");
    }
    const std::string s = toLower(symmetry);
    if (s == "symmetric") {
      data.symmetric = true;
    } else if (s != "general") {
      fail(line_no, "symmetry must be general or symmetric (got " + s + ")");
    }

    // Skip comments / blank lines, then read the size line.
    offset_t declared_nnz = -1;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty() || line[0] == '%') continue;
      std::istringstream sizes(line);
      long long r = 0, c = 0, z = 0;
      if (!(sizes >> r >> c >> z) || r < 0 || c < 0 || z < 0) {
        fail(line_no, "invalid size line");
      }
      if (r > std::numeric_limits<index_t>::max() ||
          c > std::numeric_limits<index_t>::max()) {
        fail(line_no, "rows or cols beyond the 32-bit index range");
      }
      data.rows = static_cast<index_t>(r);
      data.cols = static_cast<index_t>(c);
      declared_nnz = static_cast<offset_t>(z);
      break;
    }
    if (declared_nnz < 0) fail(line_no, "missing size line");

    // The declared count is untrusted, so the entries grow as they are
    // read; a count the file does not hold fails the check below.
    offset_t seen = 0;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty() || line[0] == '%') continue;
      std::istringstream entry(line);
      long long r = 0, c = 0;
      double v = 1.0;
      if (!(entry >> r >> c)) fail(line_no, "invalid entry line");
      if (!data.pattern && !(entry >> v)) {
        fail(line_no, "missing value on entry line");
      }
      if (r < 1 || r > data.rows || c < 1 || c > data.cols) {
        fail(line_no, "entry index out of declared range");
      }
      const auto row = static_cast<index_t>(r - 1);
      const auto col = static_cast<index_t>(c - 1);
      data.entries.push_back({row, col, v});
      if (data.symmetric && row != col) {
        data.entries.push_back({col, row, v});
      }
      ++seen;
    }
    if (seen != declared_nnz) {
      fail(line_no, "entry count does not match the size line");
    }
    return data;
  }
}

MatrixMarketData readMatrixMarketFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open file: " + path);
  return readMatrixMarket(in);
}

CsrMatrix readCsrFromMatrixMarketFile(const std::string& path) {
  const MatrixMarketData data = readMatrixMarketFile(path);
  return CsrMatrix::fromTriplets(data.rows, data.cols, data.entries);
}

void writeMatrixMarket(std::ostream& out, const CsrMatrix& m) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << m.rows() << " " << m.cols() << " " << m.nnz() << "\n";
  out << std::setprecision(17);
  for (index_t i = 0; i < m.rows(); ++i) {
    const auto cols_i = m.rowCols(i);
    const auto vals_i = m.rowValues(i);
    for (size_t k = 0; k < cols_i.size(); ++k) {
      out << (i + 1) << " " << (cols_i[k] + 1) << " " << vals_i[k] << "\n";
    }
  }
}

void writeMatrixMarketFile(const std::string& path, const CsrMatrix& m) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open file for writing: " + path);
  writeMatrixMarket(out, m);
}

}  // namespace sts::sparse

#include "sparse/permute.hpp"

#include <numeric>
#include <stdexcept>

namespace sts::sparse {

namespace {

/// True iff `i` indexes a vector of `n` entries.
bool inRange(index_t i, size_t n) {
  return i >= 0 && static_cast<size_t>(i) < n;
}

}  // namespace

bool isPermutation(std::span<const index_t> p) {
  std::vector<bool> seen(p.size(), false);
  for (const index_t v : p) {
    if (!inRange(v, p.size()) || seen[static_cast<size_t>(v)]) {
      return false;
    }
    seen[static_cast<size_t>(v)] = true;
  }
  return true;
}

std::vector<index_t> inversePermutation(std::span<const index_t> p) {
  if (!isPermutation(p)) {
    throw std::invalid_argument("inversePermutation: input not a permutation");
  }
  std::vector<index_t> inv(p.size());
  for (size_t i = 0; i < p.size(); ++i) {
    inv[static_cast<size_t>(p[i])] = static_cast<index_t>(i);
  }
  return inv;
}

std::vector<index_t> identityPermutation(index_t n) {
  std::vector<index_t> p(static_cast<size_t>(n));
  std::iota(p.begin(), p.end(), index_t{0});
  return p;
}

std::vector<double> permuteVector(std::span<const double> v,
                                  std::span<const index_t> new_to_old) {
  if (v.size() != new_to_old.size()) {
    throw std::invalid_argument("permuteVector: size mismatch");
  }
  std::vector<double> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    const index_t old = new_to_old[i];
    if (!inRange(old, v.size())) {
      throw std::invalid_argument("permuteVector: entry out of range");
    }
    out[i] = v[static_cast<size_t>(old)];
  }
  return out;
}

std::vector<double> unpermuteVector(std::span<const double> v,
                                    std::span<const index_t> new_to_old) {
  if (v.size() != new_to_old.size()) {
    throw std::invalid_argument("unpermuteVector: size mismatch");
  }
  std::vector<double> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    const index_t old = new_to_old[i];
    if (!inRange(old, v.size())) {
      throw std::invalid_argument("unpermuteVector: entry out of range");
    }
    out[static_cast<size_t>(old)] = v[i];
  }
  return out;
}

std::vector<index_t> composePermutations(std::span<const index_t> a,
                                         std::span<const index_t> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("composePermutations: size mismatch");
  }
  std::vector<index_t> c(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (!inRange(b[i], a.size())) {
      throw std::invalid_argument("composePermutations: entry out of range");
    }
    c[i] = a[static_cast<size_t>(b[i])];
  }
  return c;
}

}  // namespace sts::sparse

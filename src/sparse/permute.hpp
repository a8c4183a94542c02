#pragma once

#include <span>
#include <vector>

#include "sparse/types.hpp"

/// \file permute.hpp
/// Permutation helpers. Convention used throughout the library:
/// a permutation vector `new_to_old` maps *new* positions to *old* ones,
/// i.e. permuted[i] = original[new_to_old[i]]. This matches the reordering
/// of Section 5 of the paper, where the schedule dictates the new order.

namespace sts::sparse {

/// True iff `p` contains each of 0..p.size()-1 exactly once.
bool isPermutation(std::span<const index_t> p);

/// inv[p[i]] = i. Throws std::invalid_argument if `p` is not a permutation.
std::vector<index_t> inversePermutation(std::span<const index_t> p);

/// [0, 1, ..., n-1].
std::vector<index_t> identityPermutation(index_t n);

/// out[i] = v[new_to_old[i]]. This and the two helpers below throw
/// std::invalid_argument on a size mismatch or on an entry outside
/// [0, n); they do not check that the entries are distinct.
std::vector<double> permuteVector(std::span<const double> v,
                                  std::span<const index_t> new_to_old);

/// Inverse transform: out[new_to_old[i]] = v[i]. Used to map a solution of
/// the permuted system back to the original unknown ordering.
std::vector<double> unpermuteVector(std::span<const double> v,
                                    std::span<const index_t> new_to_old);

/// c[i] = a[b[i]] — composition "apply b, then a" in new_to_old convention.
std::vector<index_t> composePermutations(std::span<const index_t> a,
                                         std::span<const index_t> b);

}  // namespace sts::sparse

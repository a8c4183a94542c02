#pragma once

/// \file storage.hpp
/// The matrix layout of the solve hot path. Every executor walks the one
/// CSR the solver was analyzed on: after the §5 reordering each
/// (superstep, core) group is a contiguous row range of that matrix, which
/// already gives each thread a streaming walk over its own rows.
///
/// One value is left. It remains only so that callers still spelling
/// SolverOptions::storage and the StorageKind-taking facade forwards keep
/// compiling; both go once those callers move to the storage-free calls.

namespace sts::exec {

enum class StorageKind {
  kSharedCsr = 0,  ///< walk the analyzed CSR through row_ptr/col_idx
};

}  // namespace sts::exec

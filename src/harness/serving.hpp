#pragma once

#include <string>
#include <vector>

#include "engine/solver_engine.hpp"
#include "exec/solver.hpp"
#include "harness/runner.hpp"

/// \file serving.hpp
/// Measurement harness for the request-serving subsystem: how much
/// aggregate throughput does batched multi-RHS submission through
/// engine::SolverEngine buy over the classic sequential single-RHS solve
/// loop on the same analyzed solver? This is the serving-side counterpart
/// of the Table 7.7 block-parallel experiment: the win is barrier/flag
/// amortization across the coalesced right-hand sides. A third pass runs
/// the same staged backlog with EngineOptions::pin_threads — the
/// core-set-affinity configuration — so the pinned-vs-unpinned placement
/// effect is measured beside the batching effect.

namespace sts::harness {

struct ServingMeasurement {
  std::string matrix;
  std::string scheduler;
  int requests = 0;            ///< right-hand sides served per pass
  sts::index_t max_batch = 0;  ///< engine coalescing budget
  double sequential_seconds = 0.0;  ///< median: solve() loop, one context
  double batched_seconds = 0.0;     ///< median: staged engine pass
  double speedup = 0.0;             ///< sequential / batched
  double mean_batch_rhs = 0.0;      ///< realized engine batch size
  double sequential_rhs_per_second = 0.0;
  double batched_rhs_per_second = 0.0;
  /// Median staged pass with pin_threads (teams pinned to leased cores;
  /// the budget caps teams at the core-set size, so oversubscribed hosts
  /// run narrower pinned teams by design). 0 when affinity is unsupported.
  double pinned_seconds = 0.0;
  double pinned_rhs_per_second = 0.0;
  double pinned_speedup = 0.0;  ///< batched (unpinned) / pinned seconds
  std::uint64_t pinned_batches = 0;    ///< engine stat: batches pinned
  std::uint64_t migrated_threads = 0;  ///< engine stat: migrations corrected
  /// Barrier/flag wait share of the batched pass's executor-thread time,
  /// from SolverEngine::traceSummary() (batch-weighted mean over the
  /// per-team attribution rows). 0 when EngineOptions::trace is
  /// off or the build compiled tracing out — attribution is the always-on
  /// accumulator path, so in practice 0 only under -DSTS_TRACING=OFF.
  double batched_wait_fraction = 0.0;
  double pinned_wait_fraction = 0.0;  ///< same, for the pinned pass
};

/// Batch-weighted mean wait fraction over attribution rows (0 if empty or
/// no time was attributed). Shared by measureServing and the serving
/// benches so "wait share" means the same thing everywhere it is printed.
double waitFraction(const std::vector<engine::TraceSummaryRow>& rows);

/// Median resume()-to-completion seconds of a staged backlog: each pass
/// pauses the engine, submits every `rhs` entry (deterministic
/// coalescing), then times resume() to the last future. The first
/// `warmup` of `warmup + reps` passes are discarded. Shared by
/// measureServing and the serving benches so every configuration —
/// sequential, batched, pinned, elastic — is timed identically.
double measureStagedPasses(engine::SolverEngine& engine, engine::SolverId id,
                           const std::vector<std::vector<double>>& rhs,
                           int warmup, int reps);

/// Measures one (matrix, scheduler) serving configuration. All sides
/// solve the same `num_requests` right-hand sides per pass:
///   sequential — a solve() loop on one context (the pre-engine baseline);
///   batched    — a single-worker SolverEngine, requests staged while
///                dispatch is paused so coalescing is deterministic, timed
///                from resume() to drain();
///   pinned     — the batched engine again with pin_threads (skipped —
///                zeros — when the platform lacks affinity support).
/// One worker isolates the batching effect from multi-worker overlap.
/// Passes repeat warmup + reps times (median, runner.hpp methodology).
ServingMeasurement measureServing(const std::string& matrix_name,
                                  const CsrMatrix& lower, SchedulerKind kind,
                                  const MeasureOptions& opts,
                                  int num_requests, sts::index_t max_batch);

/// Geometric mean of the serving speedup over measurements.
double geomeanServingSpeedup(const std::vector<ServingMeasurement>& ms);

}  // namespace sts::harness

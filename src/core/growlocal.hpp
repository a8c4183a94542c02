#pragma once

#include <vector>

#include "core/schedule.hpp"
#include "dag/dag.hpp"

/// \file growlocal.hpp
/// The GrowLocal scheduler (paper §3, Algorithm 3.1).
///
/// A superstep is formed by repeated *trial iterations*: a trial assigns up
/// to α vertices to core 1 and weight-matched batches to the remaining
/// cores, prioritizing (Rule I) vertices that became executable exclusively
/// on a core within the current superstep, then smallest vertex ID. The
/// parallelization score β = ΣΩp / (maxΩp + L) decides whether the grown
/// superstep is "worthy" (β ≥ worthy_factor × best β seen this superstep,
/// App. B); if not, the last worthy assignment becomes the superstep and a
/// barrier is inserted. α starts at min_superstep_size and grows by
/// growth_factor per iteration, which keeps the total speculative work
/// linear in the final superstep size (Theorem 3.1: O(|E| log |V|)).

namespace sts::core {

struct GrowLocalOptions {
  int num_cores = 2;

  /// Synchronization-barrier cost L in vertex-weight units (§C.2; the paper
  /// uses 500 based on barrier latency vs double-precision FLOP cost).
  double sync_cost_l = 500.0;

  /// α₀: vertices given to core 1 in the first trial of each superstep.
  index_t min_superstep_size = 20;

  /// Multiplier applied to α between trials.
  double growth_factor = 1.5;

  /// A trial is worthy if β ≥ worthy_factor × best β so far this superstep.
  double worthy_factor = 0.97;

  /// Interpretation note (see DESIGN.md): the paper requires growth to
  /// continue only "while ensuring a sufficient amount of parallelization
  /// between the cores" (§3) but leaves the absolute test unspecified —
  /// with the App. B relative rule alone, a single-source DAG (e.g. a
  /// naturally ordered stencil matrix) would collapse into one serial
  /// superstep, contradicting the paper's own barrier counts (Table 7.2).
  /// We therefore require, from the second iteration on, a work balance of
  /// ΣΩp / (cores · maxΩp) ≥ min_utilization. 0 disables the floor and
  /// recovers the pure relative rule.
  double min_utilization = 0.85;

  /// Merge consecutive supersteps with no cross-core edges between them
  /// (a barrier that synchronizes nothing); keeps serial regions such as
  /// dependency chains in a single superstep.
  bool coalesce_supersteps = true;

  /// Fold-aware acceptance: team widths the schedule is expected to be
  /// folded onto at solve time (the elastic-serving contract,
  /// exec/elastic.hpp). When non-empty, each trial's worthiness
  /// additionally requires the trial's per-core loads to stay balanced
  /// AFTER folding (foldRankMap) onto every listed target — foldedMakespan
  /// on the trial's one-superstep load table — so imbalance that no
  /// after-the-fact rank packing can repair is rejected at schedule time.
  /// The final schedule is then the better of {fold-aware, plain} by the
  /// summed folded BSP cost Σ_t (foldedMakespanAt(·, t) + L ·
  /// numSupersteps) over targets ∪ {num_cores}, so enabling targets
  /// never loses to folding-after-the-fact on that metric (the
  /// bench_fold_policies gate). Entries must be >= 1; values above
  /// num_cores clamp to it. Empty (default) keeps the original test.
  std::vector<int> fold_targets = {};
};

/// Runs GrowLocal on `dag`. Deterministic. Throws std::invalid_argument on
/// bad options. The returned schedule is always valid (validateSchedule).
Schedule growLocalSchedule(const Dag& dag, const GrowLocalOptions& opts = {});

}  // namespace sts::core

#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dag/dag.hpp"

/// \file schedule.hpp
/// The parallel schedule of Definition 2.1: assignments π (core) and σ
/// (superstep) plus an explicit execution order within each
/// (superstep, core) group. The order matters: vertices scheduled on the
/// same core in the same superstep may depend on each other and must be
/// executed in a dependency-respecting sequence.
///
/// Schedules are immutable after construction and share their assignment
/// arrays through a const payload, so copying a Schedule — including
/// foldTo(numCores()), which returns *this — is O(1) and allocation-free.
///
/// A schedule's "core" is a RANK, not a physical CPU: execution may fold
/// any schedule onto a smaller team (foldTo / foldRankMap below — the
/// elasticity contract in docs/ARCHITECTURE.md), and the serving engine
/// maps the resulting team onto concrete CPU ids via
/// engine::CoreBudget's core-set mode (the affinity contract). Nothing in
/// this layer knows about either; it only promises that whole-rank merges
/// preserve validity.

namespace sts::core {

using dag::Dag;
using dag::weight_t;
using sts::index_t;
using sts::offset_t;

/// Builds the rank -> slot map folding `width` ranks onto `target` slots
/// (Schedule::foldTo and the executor-side plan folds in exec/elastic.hpp):
/// LPT packing of whole ranks by their per-superstep work (heaviest total
/// first, each placed on the slot that grows the folded makespan least),
/// or p -> p mod target where that folds no worse. Whole-rank maps keep
/// every fold valid: same-superstep edges are intra-core by Definition 2.1
/// and therefore stay intra-core. `rank_loads` is the superstep-major
/// per-(superstep, rank) work table (size num_supersteps * width, e.g.
/// Schedule::rankLoads); target == width returns the identity without
/// reading it. Throws std::invalid_argument on bad sizes.
std::vector<int> foldRankMap(index_t num_supersteps, int width, int target,
                             std::span<const weight_t> rank_loads = {});

/// Folded compute makespan of a candidate rank map: sum over supersteps of
/// the maximum per-slot load — the BSP compute term a fold is judged by.
/// `rank_map` has `width` entries in [0, target).
weight_t foldedMakespan(std::span<const weight_t> rank_loads,
                        index_t num_supersteps, int width, int target,
                        std::span<const int> rank_map);

/// Whole-fold load imbalance: foldedMakespan over the perfectly balanced
/// ideal ceil(total_work / target) (1.0 = every superstep perfectly
/// balanced across the target slots — the same makespan/ideal ratio as
/// ScheduleStats::imbalance, evaluated at the folded width). The
/// harness-table imbalance metric for fold comparisons; compare values
/// only between folds of the same schedule.
double foldedImbalance(std::span<const weight_t> rank_loads,
                       index_t num_supersteps, int width, int target,
                       std::span<const int> rank_map);

class Schedule;

/// Convenience composition of rankLoads + foldRankMap + foldedMakespan:
/// the folded compute makespan of `schedule` re-targeted to `target` slots
/// (empty `vertex_weights` = unit weights). This is the analyze-time cost
/// model the fold-aware GrowLocal sums over its target teams
/// (growlocal.hpp): makespan ratios between targets predict how a solve's
/// compute time scales with team size.
/// Throws std::invalid_argument unless 1 <= target <= numCores().
weight_t foldedMakespanAt(const Schedule& schedule, int target,
                          std::span<const weight_t> vertex_weights = {});

/// An immutable (π, σ, order) triple over a DAG's vertices: coreOf(v) is
/// the rank executing v, superstepOf(v) the barrier-delimited phase, and
/// group(s, p) the dependency-respecting execution order of rank p's work
/// in superstep s. Construction validates nothing by itself —
/// validateSchedule is the opt-in Def. 2.1 check the solver facade runs
/// during analysis. Copies are O(1) (shared payload).
class Schedule {
 public:
  Schedule();

  /// Builds from π/σ plus an explicit in-group execution order: `order`
  /// lists all vertices grouped by superstep-major, core-minor; group g =
  /// superstep * num_cores + core; `group_ptr` has S*P+1 boundaries.
  Schedule(index_t n, int num_cores, index_t num_supersteps,
           std::vector<int> core, std::vector<index_t> superstep,
           std::vector<index_t> order, std::vector<offset_t> group_ptr);

  /// Builds from π/σ only; the in-group order is derived by sorting each
  /// group by (wavefront level, vertex ID), which always yields a valid
  /// execution order. Supersteps are compacted (empty ones removed).
  static Schedule fromAssignment(const Dag& dag, int num_cores,
                                 std::span<const int> core,
                                 std::span<const index_t> superstep);

  /// All of the DAG on one core in one superstep, in topological (ID) order
  /// for ID-ascending DAGs; used as the serial reference schedule.
  static Schedule serial(const Dag& dag);

  index_t numVertices() const { return n_; }
  int numCores() const { return num_cores_; }
  index_t numSupersteps() const { return num_supersteps_; }
  /// Barriers during execution: one between consecutive supersteps.
  index_t numBarriers() const {
    return num_supersteps_ > 0 ? num_supersteps_ - 1 : 0;
  }

  int coreOf(index_t v) const { return payload_->core[static_cast<size_t>(v)]; }
  index_t superstepOf(index_t v) const {
    return payload_->superstep[static_cast<size_t>(v)];
  }
  std::span<const int> cores() const { return payload_->core; }
  std::span<const index_t> supersteps() const { return payload_->superstep; }

  /// Vertices of (superstep s, core p) in execution order.
  std::span<const index_t> group(index_t s, int p) const;

  /// Re-targets the schedule to `num_cores` <= numCores() processors by
  /// folding whole ranks onto the smaller width by foldRankMap over
  /// rankLoads(vertex_weights) (empty = unit weights). Superstep structure
  /// is preserved exactly; the folded group (s, q) concatenates the old
  /// groups (s, p) for every rank p mapped to q, in ascending p, each
  /// keeping its internal order. Validity is preserved for any
  /// rank-granularity map: within a superstep every edge is intra-core
  /// (Def. 2.1 forbids same-superstep cross-core edges), so merging cores
  /// cannot break the in-group execution order, and cross-superstep edges
  /// only ever become intra-core, which is strictly weaker to satisfy.
  /// Folding to numCores() shares this schedule's payload (an O(1) copy);
  /// widening throws std::invalid_argument.
  Schedule foldTo(int num_cores,
                  std::span<const weight_t> vertex_weights = {}) const;

  /// The fold workhorse: merges ranks by an explicit `rank_map` (numCores()
  /// entries in [0, num_cores)). foldTo is foldRankMap plus this.
  Schedule foldWith(std::span<const int> rank_map, int num_cores) const;

  /// Per-(superstep, rank) work table, superstep-major (size
  /// numSupersteps() * numCores()): entry [s * numCores() + p] sums the
  /// weights of group(s, p). Empty `vertex_weights` means unit weights
  /// (group sizes). Feeds foldRankMap / the harness fold-quality tables.
  std::vector<weight_t> rankLoads(
      std::span<const weight_t> vertex_weights = {}) const;

  /// The flat execution order (superstep-major, core-minor).
  std::span<const index_t> executionOrder() const { return payload_->order; }
  std::span<const offset_t> groupPtr() const { return payload_->group_ptr; }

 private:
  /// The assignment arrays, shared immutable between copies (Schedule
  /// copies — solver facades, fold-to-self — are shallow).
  struct Payload {
    std::vector<int> core;
    std::vector<index_t> superstep;
    std::vector<index_t> order;
    std::vector<offset_t> group_ptr = {0};
  };
  static std::shared_ptr<const Payload> emptyPayload();

  index_t n_ = 0;
  int num_cores_ = 0;
  index_t num_supersteps_ = 0;
  std::shared_ptr<const Payload> payload_;
};

/// Outcome of validateSchedule; `ok` iff the schedule satisfies Def. 2.1,
/// covers every vertex exactly once, and every group's execution order
/// respects intra-group dependencies.
struct ScheduleValidation {
  bool ok = true;
  std::string message;
};

ScheduleValidation validateSchedule(const Dag& dag, const Schedule& schedule);

/// Aggregate schedule quality metrics (§2.2 cost discussion).
struct ScheduleStats {
  index_t supersteps = 0;
  index_t barriers = 0;
  weight_t total_work = 0;
  /// sum over supersteps of the maximum per-core load: the compute term of
  /// the BSP cost.
  weight_t makespan_work = 0;
  /// makespan_work / ceil(total/P): 1.0 is a perfectly balanced schedule.
  double imbalance = 0.0;
  /// makespan_work + L * barriers.
  double bsp_cost = 0.0;
  /// #wavefronts / #supersteps: the Table 7.2 barrier-reduction metric.
  double wavefront_reduction = 0.0;
};

ScheduleStats computeScheduleStats(const Dag& dag, const Schedule& schedule,
                                   double sync_cost_l = 500.0);

/// Removes barriers that synchronize nothing: merges consecutive supersteps
/// s, s+1 whenever every edge from s to s+1 stays on one core. Pure cost
/// reduction — the result is valid whenever the input is. Execution order
/// within a merged (core, superstep) group is the concatenation of the old
/// groups, which preserves all intra-core orderings.
Schedule coalesceSupersteps(const Dag& dag, const Schedule& schedule);

}  // namespace sts::core

#include "core/growlocal.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

namespace sts::core {

namespace {

/// Min-heap of vertex IDs with an explicit clear (std::priority_queue
/// cannot be reset cheaply between trials). Holds one core's exclusive
/// vertices during a trial.
class MinIdHeap {
 public:
  void push(index_t v) {
    data_.push_back(v);
    std::push_heap(data_.begin(), data_.end(), std::greater<>{});
  }
  index_t pop() {
    std::pop_heap(data_.begin(), data_.end(), std::greater<>{});
    const index_t v = data_.back();
    data_.pop_back();
    return v;
  }
  bool empty() const { return data_.empty(); }
  void clear() { data_.clear(); }

 private:
  std::vector<index_t> data_;
};

/// All mutable scheduler state. A trial journals its effects so that it can
/// be rolled back to the last barrier in O(trial size).
///
/// The free ready pool (vertices whose parents are all committed) is an
/// ascending array read through a cursor. Nothing joins it during a trial:
/// a vertex freed mid-trial has a parent in the trial, so it goes to an
/// exclusive heap or waits for the barrier, and no pool vertex can enter an
/// exclusive heap. Reading the array in order is therefore exactly a
/// min-heap's pop order, rollback only rewinds the cursor, and a trial
/// always takes a prefix of the pool.
class GrowLocalState {
 public:
  GrowLocalState(const Dag& dag, const GrowLocalOptions& opts)
      : dag_(dag),
        opts_(opts),
        n_(dag.numVertices()),
        parents_left_(static_cast<size_t>(n_)),
        committed_(static_cast<size_t>(n_), 0),
        ready_epoch_(static_cast<size_t>(n_), 0),
        first_core_(static_cast<size_t>(n_), 0),
        multi_core_(static_cast<size_t>(n_), 0),
        excl_heap_(static_cast<size_t>(opts.num_cores)),
        omega_(static_cast<size_t>(opts.num_cores), 0) {
    for (index_t v = 0; v < n_; ++v) {
      parents_left_[static_cast<size_t>(v)] = dag.inDegree(v);
      if (parents_left_[static_cast<size_t>(v)] == 0) free_.push_back(v);
    }
  }

  /// Runs one trial with parameter `alpha`. Returns false if nothing could
  /// be assigned (only possible when the DAG is exhausted).
  bool runTrial(index_t alpha) {
    ++epoch_;
    assigned_.clear();
    decremented_.clear();
    for (auto& h : excl_heap_) h.clear();
    std::fill(omega_.begin(), omega_.end(), weight_t{0});
    core1_hit_alpha_ = false;

    // I. Core 1 (index 0): up to alpha vertices by Rule I.
    index_t count = 0;
    while (count < alpha) {
      const index_t v = popBest(0);
      if (v < 0) break;
      assign(v, 0);
      ++count;
    }
    core1_hit_alpha_ = (count == alpha);
    const weight_t omega1 = omega_[0];

    // Cores 2..k: assign until the core's weight reaches Ω1 (the last
    // vertex may overshoot, realizing Ωp ≤ μΩ1 of App. B).
    for (int p = 1; p < opts_.num_cores; ++p) {
      while (omega_[static_cast<size_t>(p)] < omega1) {
        const index_t v = popBest(p);
        if (v < 0) break;
        assign(v, p);
      }
    }
    return !assigned_.empty();
  }

  double parallelizationScore() const {
    const weight_t sum = std::accumulate(omega_.begin(), omega_.end(), weight_t{0});
    const weight_t max = *std::max_element(omega_.begin(), omega_.end());
    return static_cast<double>(sum) /
           (static_cast<double>(max) + opts_.sync_cost_l);
  }

  /// Work balance of the trial, ΣΩp / (cores · maxΩp) in (0, 1]; the
  /// "sufficient parallelization" floor is tested against this (it must be
  /// independent of L, or small supersteps could never pass).
  double utilization() const {
    const weight_t sum = std::accumulate(omega_.begin(), omega_.end(), weight_t{0});
    const weight_t max = *std::max_element(omega_.begin(), omega_.end());
    if (max == 0) return 1.0;
    return static_cast<double>(sum) /
           (static_cast<double>(opts_.num_cores) * static_cast<double>(max));
  }

  /// utilization() evaluated AFTER folding the trial's Ω vector
  /// onto `target` slots (a one-superstep load table): the balance an
  /// elastic solve at that width would actually see. A trial can look
  /// balanced at full width yet fold into one overloaded slot — this is
  /// the quantity the fold-aware acceptance tests against.
  double foldedUtilization(int target) const {
    if (target >= opts_.num_cores) return utilization();
    const weight_t sum =
        std::accumulate(omega_.begin(), omega_.end(), weight_t{0});
    const auto map = foldRankMap(1, opts_.num_cores, target, omega_);
    const weight_t max =
        foldedMakespan(omega_, 1, opts_.num_cores, target, map);
    if (max == 0) return 1.0;
    return static_cast<double>(sum) /
           (static_cast<double>(target) * static_cast<double>(max));
  }

  /// Undo the last trial completely (back to the last barrier).
  void rollback() {
    for (const index_t u : decremented_) {
      ++parents_left_[static_cast<size_t>(u)];
    }
    cursor_ = 0;
  }

  /// Apply a saved assignment list as superstep `s`. Must be called with
  /// the state rolled back to the barrier the list was formed from;
  /// `pool_taken` is poolTaken() of the trial that formed it.
  void commit(const std::vector<std::pair<index_t, int>>& saved,
              size_t pool_taken, index_t s) {
    for (const auto& [v, p] : saved) {
      committed_[static_cast<size_t>(v)] = 1;
      core_[static_cast<size_t>(v)] = p;
      superstep_[static_cast<size_t>(v)] = s;
      order_records_.push_back(v);
      for (const index_t u : dag_.children(v)) {
        if (--parents_left_[static_cast<size_t>(u)] == 0) freed_.push_back(u);
      }
    }
    committed_count_ += static_cast<index_t>(saved.size());
    // Children the trial already ran exclusively are committed, not free.
    std::erase_if(freed_, [this](index_t u) {
      return committed_[static_cast<size_t>(u)] != 0;
    });
    std::sort(freed_.begin(), freed_.end());
    merged_.clear();
    std::merge(free_.begin() + static_cast<std::ptrdiff_t>(pool_taken),
               free_.end(), freed_.begin(), freed_.end(),
               std::back_inserter(merged_));
    free_.swap(merged_);
    freed_.clear();
  }

  const std::vector<std::pair<index_t, int>>& trialAssignments() const {
    return assigned_;
  }
  /// Pool vertices the last trial took: the prefix free_[0, poolTaken()).
  size_t poolTaken() const { return cursor_; }
  bool core1HitAlpha() const { return core1_hit_alpha_; }
  index_t committedCount() const { return committed_count_; }

  void prepareOutput() {
    core_.assign(static_cast<size_t>(n_), 0);
    superstep_.assign(static_cast<size_t>(n_), 0);
    order_records_.reserve(static_cast<size_t>(n_));
  }

  Schedule buildSchedule(index_t num_supersteps) const {
    // order_records_ is already superstep-major (commits are sequential)
    // and core-major within a superstep (trials assign core 0 first).
    const size_t groups = static_cast<size_t>(num_supersteps) *
                          static_cast<size_t>(opts_.num_cores);
    std::vector<offset_t> group_ptr(groups + 1, 0);
    auto group_of = [&](index_t v) {
      return static_cast<size_t>(superstep_[static_cast<size_t>(v)]) *
                 static_cast<size_t>(opts_.num_cores) +
             static_cast<size_t>(core_[static_cast<size_t>(v)]);
    };
    for (const index_t v : order_records_) ++group_ptr[group_of(v) + 1];
    std::partial_sum(group_ptr.begin(), group_ptr.end(), group_ptr.begin());
    std::vector<index_t> order(static_cast<size_t>(n_));
    std::vector<offset_t> cursor(group_ptr.begin(), group_ptr.end() - 1);
    for (const index_t v : order_records_) {
      order[static_cast<size_t>(cursor[group_of(v)]++)] = v;
    }
    return Schedule(n_, opts_.num_cores, num_supersteps,
                    std::vector<int>(core_), std::vector<index_t>(superstep_),
                    std::move(order), std::move(group_ptr));
  }

 private:
  /// Rule I: exclusive-to-p vertices first (smallest ID), then the free
  /// ready pool (smallest ID). Returns -1 when nothing is assignable to p.
  index_t popBest(int p) {
    auto& excl = excl_heap_[static_cast<size_t>(p)];
    if (!excl.empty()) return excl.pop();
    return cursor_ < free_.size() ? free_[cursor_++] : -1;
  }

  void assign(index_t v, int p) {
    assigned_.emplace_back(v, p);
    omega_[static_cast<size_t>(p)] += dag_.weight(v);
    for (const index_t u : dag_.children(v)) {
      --parents_left_[static_cast<size_t>(u)];
      decremented_.push_back(u);
      // Track which cores computed parents of u this superstep.
      if (ready_epoch_[static_cast<size_t>(u)] != epoch_) {
        ready_epoch_[static_cast<size_t>(u)] = epoch_;
        first_core_[static_cast<size_t>(u)] = p;
        multi_core_[static_cast<size_t>(u)] = 0;
      } else if (first_core_[static_cast<size_t>(u)] != p) {
        multi_core_[static_cast<size_t>(u)] = 1;
      }
      if (parents_left_[static_cast<size_t>(u)] == 0 &&
          !multi_core_[static_cast<size_t>(u)]) {
        // Became ready with all same-superstep parents on one core:
        // executable exclusively there before the next barrier.
        excl_heap_[static_cast<size_t>(first_core_[static_cast<size_t>(u)])]
            .push(u);
      }
      // If multi_core_: ready but blocked until the barrier; the commit
      // replay re-discovers it and feeds the free pool.
    }
  }

  const Dag& dag_;
  const GrowLocalOptions& opts_;
  index_t n_;

  std::vector<index_t> parents_left_;
  std::vector<char> committed_;
  std::vector<std::uint32_t> ready_epoch_;
  std::vector<int> first_core_;
  std::vector<char> multi_core_;

  // Free ready pool: ascending, uncommitted, read from cursor_ on.
  std::vector<index_t> free_;
  size_t cursor_ = 0;
  // commit() scratch: the vertices it frees, and the merged next pool.
  std::vector<index_t> freed_;
  std::vector<index_t> merged_;
  std::vector<MinIdHeap> excl_heap_;
  std::vector<weight_t> omega_;

  // Trial journal.
  std::vector<std::pair<index_t, int>> assigned_;
  std::vector<index_t> decremented_;
  std::uint32_t epoch_ = 0;
  bool core1_hit_alpha_ = false;

  // Committed schedule.
  std::vector<int> core_;
  std::vector<index_t> superstep_;
  std::vector<index_t> order_records_;
  index_t committed_count_ = 0;
};

/// True iff the trial's loads stay balanced after folding onto
/// every requested target (vacuously true with no targets).
bool foldBalanced(const GrowLocalState& state, const GrowLocalOptions& opts) {
  for (const int target : opts.fold_targets) {
    const int t = std::min(target, opts.num_cores);
    if (state.foldedUtilization(t) < opts.min_utilization) return false;
  }
  return true;
}

/// The metric fold-aware scheduling competes on: summed folded BSP cost
/// (folded compute makespan + L per barrier) across the requested
/// targets plus the full width. The keep-better-of-two selection below
/// makes fold-aware never lose to folding-after-the-fact on this quantity
/// by construction (the bench_fold_policies gate).
double foldedBspCost(const Schedule& schedule, const GrowLocalOptions& opts,
                     std::span<const weight_t> weights) {
  std::vector<int> targets = opts.fold_targets;
  targets.push_back(opts.num_cores);
  double cost = 0.0;
  for (const int raw : targets) {
    const int t = std::clamp(raw, 1, schedule.numCores());
    cost += static_cast<double>(foldedMakespanAt(schedule, t, weights)) +
            opts.sync_cost_l * static_cast<double>(schedule.numSupersteps());
  }
  return cost;
}

Schedule growLocalScheduleImpl(const Dag& dag, const GrowLocalOptions& opts) {
  if (opts.num_cores <= 0) {
    throw std::invalid_argument("growLocalSchedule: num_cores must be positive");
  }
  if (opts.min_superstep_size <= 0 || opts.growth_factor <= 1.0 ||
      opts.worthy_factor <= 0.0 || opts.worthy_factor > 1.0 ||
      opts.sync_cost_l < 0.0 || opts.min_utilization < 0.0 ||
      opts.min_utilization > 1.0) {
    throw std::invalid_argument("growLocalSchedule: bad options");
  }
  const index_t n = dag.numVertices();
  if (n == 0) {
    return Schedule(0, opts.num_cores, 0, {}, {}, {},
                    std::vector<offset_t>{0});
  }

  GrowLocalState state(dag, opts);
  state.prepareOutput();

  index_t superstep = 0;
  std::vector<std::pair<index_t, int>> saved;
  size_t saved_pool_taken = 0;
  while (state.committedCount() < n) {
    double alpha = static_cast<double>(opts.min_superstep_size);
    double best_beta = -1.0;
    saved.clear();
    while (true) {
      const bool any = state.runTrial(static_cast<index_t>(alpha));
      if (!any) {
        // No ready vertex: impossible for an acyclic graph with work left.
        throw std::logic_error(
            "growLocalSchedule: no ready vertices but work remains (cyclic "
            "input?)");
      }
      const double beta = state.parallelizationScore();
      const bool worthy =
          saved.empty() ||
          (beta >= opts.worthy_factor * best_beta &&
           state.utilization() >= opts.min_utilization &&
           foldBalanced(state, opts));
      if (worthy) {
        saved = state.trialAssignments();
        saved_pool_taken = state.poolTaken();
        best_beta = std::max(best_beta, beta);
        const bool exhausted_dag =
            state.committedCount() +
                static_cast<index_t>(saved.size()) == n;
        const bool maximal_trial = !state.core1HitAlpha();
        state.rollback();
        if (exhausted_dag || maximal_trial) break;
        alpha *= opts.growth_factor;
      } else {
        state.rollback();
        break;
      }
    }
    state.commit(saved, saved_pool_taken, superstep);
    ++superstep;
  }
  Schedule schedule = state.buildSchedule(superstep);
  if (opts.coalesce_supersteps) {
    schedule = coalesceSupersteps(dag, schedule);
  }
  return schedule;
}

}  // namespace

Schedule growLocalSchedule(const Dag& dag, const GrowLocalOptions& opts) {
  if (opts.fold_targets.empty()) return growLocalScheduleImpl(dag, opts);
  for (const int target : opts.fold_targets) {
    if (target < 1) {
      throw std::invalid_argument(
          "growLocalSchedule: fold_targets entries must be >= 1");
    }
  }
  // Keep the better of {fold-aware, plain} under the summed folded BSP
  // cost: the fold-aware acceptance can only reject trials, which may cost
  // extra barriers; this selection guarantees the feature never loses to
  // plain scheduling + after-the-fact bin packing on the metric it targets.
  GrowLocalOptions plain = opts;
  plain.fold_targets.clear();
  Schedule base = growLocalScheduleImpl(dag, plain);
  Schedule aware = growLocalScheduleImpl(dag, opts);
  return foldedBspCost(aware, opts, dag.weights()) <=
                 foldedBspCost(base, opts, dag.weights())
             ? std::move(aware)
             : std::move(base);
}

}  // namespace sts::core

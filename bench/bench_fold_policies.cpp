/// Fold quality: core::foldRankMap's work-aware fold against the p mod t
/// map it is never worse than. Part 1 measures the fold itself: for each
/// dataset x scheduler x target team size, the folded compute makespan
/// (sum over supersteps of the max per-slot load) and the whole-fold
/// imbalance of both maps — the HDagg-style observation that balanced
/// merging beats naive grouping, applied to schedule re-targeting. Part 2
/// closes the loop at schedule time: GrowLocal built with fold_targets
/// (fold-aware acceptance) is compared against the plain build on the
/// summed folded BSP cost over the same targets — schedule-time awareness
/// must never lose to folding after the fact.
///
///   STS_BENCH_SCALE                   dataset sizing as usual;
///   STS_FOLD_WIDTH    (default 8)     schedule width C.
///
/// Emits JSON with host metadata. Exit code 0 iff the fold's makespan is
/// never worse than p mod t's on every measured configuration (the
/// foldRankMap guarantee, re-checked end to end here) AND the fold-aware
/// GrowLocal build never costs more than the plain build on the summed
/// folded metric (the growLocalSchedule keep-better-of-two guarantee).
/// tests/test_fold_policies.cpp pins part 1's rows at scale 0.05.

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/schedule.hpp"
#include "dag/dag.hpp"
#include "exec/solver.hpp"
#include "harness/datasets.hpp"

namespace {

using sts::bench::envInt;

struct FoldRow {
  std::string dataset;
  std::string matrix;
  std::string scheduler;
  int team = 0;
  long long modulo_makespan = 0;
  long long binpack_makespan = 0;
  double modulo_imbalance = 0.0;
  double binpack_imbalance = 0.0;
};

struct FoldAwareRow {
  std::string dataset;
  std::string matrix;
  double plain_cost = 0.0;
  double aware_cost = 0.0;
  long long plain_supersteps = 0;
  long long aware_supersteps = 0;
};

/// The selection metric growLocalSchedule uses for its keep-better-of-two:
/// summed over `targets`, the folded makespan at that team width plus L
/// per superstep. Recomputed here so the gate checks the public
/// contract end to end rather than trusting the scheduler's own arithmetic.
double summedFoldedCost(const sts::core::Schedule& schedule,
                        const std::vector<int>& targets, double sync_l,
                        std::span<const sts::dag::weight_t> weights) {
  double cost = 0.0;
  for (const int raw : targets) {
    const int t = std::clamp(raw, 1, schedule.numCores());
    cost += static_cast<double>(
                sts::core::foldedMakespanAt(schedule, t, weights)) +
            sync_l * static_cast<double>(schedule.numSupersteps());
  }
  return cost;
}

}  // namespace

int main() {
  using namespace sts;

  const int width = envInt("STS_FOLD_WIDTH", 8);

  bench::banner("Fold policies", "Steiner et al. (elasticity follow-up)",
                "Work-aware vs. modulo rank folding: folded makespan");
  std::printf("schedule width %d\n\n", width);

  // The imbalance-prone families the work-aware fold is for, plus one
  // SuiteSparse(-standin or real) representative.
  std::vector<harness::DatasetEntry> entries;
  std::vector<std::string> entry_dataset;
  {
    auto narrow = harness::narrowBandSet();
    if (!narrow.empty()) {
      entry_dataset.push_back("narrow-band");
      entries.push_back(std::move(narrow.front()));
    }
    auto erdos = harness::erdosRenyiSet();
    if (!erdos.empty()) {
      entry_dataset.push_back("erdos-renyi");
      entries.push_back(std::move(erdos.front()));
    }
    auto real = harness::suiteSparseReal();
    auto standin = harness::suiteSparseStandin();
    if (!real.empty()) {
      entry_dataset.push_back("suitesparse");
      entries.push_back(std::move(real.front()));
    } else if (!standin.empty()) {
      entry_dataset.push_back("suitesparse-standin");
      entries.push_back(std::move(standin.front()));
    }
  }

  const std::vector<std::pair<std::string, exec::SchedulerKind>> schedulers =
      {{"GrowLocal", exec::SchedulerKind::kGrowLocal},
       {"Wavefront", exec::SchedulerKind::kWavefront},
       {"HDagg", exec::SchedulerKind::kHdagg}};

  // ------------------------------------------------ part 1: fold quality
  std::vector<FoldRow> fold_rows;
  bool binpack_never_worse = true;
  for (size_t e = 0; e < entries.size(); ++e) {
    const auto& entry = entries[e];
    const dag::Dag dag = dag::Dag::fromLowerTriangular(entry.lower);
    for (const auto& [sched_name, kind] : schedulers) {
      exec::SolverOptions opts;
      opts.scheduler = kind;
      opts.num_threads = width;
      opts.reorder = false;
      opts.validate = false;
      const auto solver = exec::TriangularSolver::analyze(entry.lower, opts);
      const core::Schedule& schedule = solver.schedule();
      const auto loads = schedule.rankLoads(dag.weights());
      const auto steps = schedule.numSupersteps();
      const int cores = schedule.numCores();
      for (int t = 2; t < cores; t *= 2) {
        FoldRow row;
        row.dataset = entry_dataset[e];
        row.matrix = entry.name;
        row.scheduler = sched_name;
        row.team = t;
        std::vector<int> mod(static_cast<size_t>(cores));
        for (int p = 0; p < cores; ++p) mod[static_cast<size_t>(p)] = p % t;
        const auto pack = core::foldRankMap(steps, cores, t, loads);
        row.modulo_makespan =
            core::foldedMakespan(loads, steps, cores, t, mod);
        row.binpack_makespan =
            core::foldedMakespan(loads, steps, cores, t, pack);
        row.modulo_imbalance =
            core::foldedImbalance(loads, steps, cores, t, mod);
        row.binpack_imbalance =
            core::foldedImbalance(loads, steps, cores, t, pack);
        if (row.binpack_makespan > row.modulo_makespan) {
          binpack_never_worse = false;
        }
        std::printf("%-14s %-10s team %2d: makespan modulo %10lld  "
                    "binpack %10lld  (%5.2fx -> %5.2fx imbalance)\n",
                    entry.name.c_str(), sched_name.c_str(), t,
                    row.modulo_makespan, row.binpack_makespan,
                    row.modulo_imbalance, row.binpack_imbalance);
        fold_rows.push_back(std::move(row));
      }
    }
  }

  // ---------------------- part 2: fold-aware scheduling never-loses gate
  // GrowLocal with fold_targets rejects trials whose per-core loads no
  // after-the-fact bin-packing can rebalance, then keeps the better of
  // {fold-aware, plain} by the summed folded BSP cost. Re-derive that cost
  // here from the public fold API and require aware <= plain on every
  // entry: schedule-time awareness must never lose to fixing it up later.
  std::vector<FoldAwareRow> fold_aware_rows;
  bool fold_aware_never_worse = true;
  {
    core::GrowLocalOptions gl_plain;
    gl_plain.num_cores = width;
    core::GrowLocalOptions gl_aware = gl_plain;
    gl_aware.fold_targets = {2, std::max(2, width / 2)};
    std::vector<int> targets = gl_aware.fold_targets;
    targets.push_back(width);
    for (size_t e = 0; e < entries.size(); ++e) {
      const auto& entry = entries[e];
      const dag::Dag dag = dag::Dag::fromLowerTriangular(entry.lower);
      const core::Schedule plain = core::growLocalSchedule(dag, gl_plain);
      const core::Schedule aware = core::growLocalSchedule(dag, gl_aware);
      FoldAwareRow row;
      row.dataset = entry_dataset[e];
      row.matrix = entry.name;
      row.plain_cost = summedFoldedCost(plain, targets, gl_plain.sync_cost_l,
                                        dag.weights());
      row.aware_cost = summedFoldedCost(aware, targets, gl_plain.sync_cost_l,
                                        dag.weights());
      row.plain_supersteps = static_cast<long long>(plain.numSupersteps());
      row.aware_supersteps = static_cast<long long>(aware.numSupersteps());
      if (row.aware_cost > row.plain_cost) fold_aware_never_worse = false;
      std::printf("%-14s fold-aware GrowLocal: cost plain %12.0f (%lld "
                  "steps)  aware %12.0f (%lld steps)  %s\n",
                  entry.name.c_str(), row.plain_cost, row.plain_supersteps,
                  row.aware_cost, row.aware_supersteps,
                  row.aware_cost <= row.plain_cost ? "ok" : "WORSE");
      fold_aware_rows.push_back(std::move(row));
    }
  }

  std::printf("\nJSON: {\"bench\":\"fold_policies\",%s,"
              "\"schedule_width\":%d,\"fold\":[",
              bench::hostMetaJson().c_str(), width);
  for (size_t i = 0; i < fold_rows.size(); ++i) {
    const auto& r = fold_rows[i];
    std::printf("%s{\"dataset\":\"%s\",\"matrix\":\"%s\","
                "\"scheduler\":\"%s\",\"team\":%d,"
                "\"modulo_makespan\":%lld,\"binpack_makespan\":%lld,"
                "\"modulo_imbalance\":%.4g,\"binpack_imbalance\":%.4g}",
                i == 0 ? "" : ",", r.dataset.c_str(), r.matrix.c_str(),
                r.scheduler.c_str(), r.team, r.modulo_makespan,
                r.binpack_makespan, r.modulo_imbalance, r.binpack_imbalance);
  }
  std::printf("],\"fold_aware\":[");
  for (size_t i = 0; i < fold_aware_rows.size(); ++i) {
    const auto& r = fold_aware_rows[i];
    std::printf("%s{\"dataset\":\"%s\",\"matrix\":\"%s\","
                "\"plain_cost\":%.6g,\"aware_cost\":%.6g,"
                "\"plain_supersteps\":%lld,\"aware_supersteps\":%lld}",
                i == 0 ? "" : ",", r.dataset.c_str(), r.matrix.c_str(),
                r.plain_cost, r.aware_cost, r.plain_supersteps,
                r.aware_supersteps);
  }
  std::printf("]}\n");

  std::printf("\nclaims under test: (1) bin-packing whole ranks by "
              "per-superstep load never folds\nworse than p mod t; (2) "
              "fold-aware GrowLocal never costs more than the plain build\n"
              "on the summed folded BSP metric.\n");
  std::printf(binpack_never_worse ? "binpack claim holds.\n"
                                  : "binpack claim FAILED.\n");
  std::printf(fold_aware_never_worse ? "fold-aware claim holds.\n"
                                     : "fold-aware claim FAILED.\n");
  return (binpack_never_worse && fold_aware_never_worse) ? 0 : 1;
}

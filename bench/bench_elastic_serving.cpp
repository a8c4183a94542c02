/// Elastic serving: the concurrency/parallelism trade-off of the per-batch
/// team size. An analyzed schedule of width C is re-targetable to any
/// team t <= C (Schedule::foldTo; bitwise-lossless), so under deep backlog
/// an engine with a shrunk fixed team runs more batches concurrently
/// instead of spending every core on one solve — the elasticity gap
/// Steiner et al. identify for the source paper's schedules. This bench
/// sweeps offered load (staged backlog depth) and per-batch team size and
/// emits JSON: team size vs. aggregate throughput per dataset. Every
/// configuration is measured twice — unpinned, and with
/// EngineOptions::pin_threads so each batch's team runs pinned to its
/// disjoint leased core set (the core-set-affinity configuration; the
/// pinned columns print "-" when the platform lacks affinity support).
///
///   STS_BENCH_SCALE / STS_BENCH_REPS control dataset sizing as usual;
///   STS_ELASTIC_WIDTH    (default 4)  schedule width C;
///   STS_ELASTIC_WORKERS  (default C)  engine dispatcher threads;
///   STS_ELASTIC_BATCH    (default 8)  coalescing budget;
///   STS_ELASTIC_REPS     (default 5)  timed passes per configuration.
///
/// Exit code 0 iff, under the deepest backlog, some fixed team t < C beats
/// the full-width-only configuration on at least one dataset (the unpinned
/// sweep — pinning is reported, not gated, because its benefit depends on
/// the host's cache topology).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "engine/solver_engine.hpp"
#include "exec/affinity.hpp"
#include "harness/datasets.hpp"
#include "harness/serving.hpp"
#include "harness/stats.hpp"

namespace {

using sts::bench::envInt;

struct Config {
  std::string name;
  int team = 0;          ///< fixed per-batch team
};

struct Result {
  std::string dataset;
  std::string matrix;
  std::string config;
  int team = 0;
  int backlog = 0;
  double median_seconds = 0.0;
  double rhs_per_second = 0.0;
  double mean_team_size = 0.0;
  /// Same configuration with pin_threads: teams pinned to disjoint leased
  /// core sets. 0 when affinity is unsupported.
  double pinned_median_seconds = 0.0;
  double pinned_rhs_per_second = 0.0;
  double pinned_mean_team_size = 0.0;
  std::uint64_t migrated_threads = 0;  ///< migrations the pins corrected
};

/// Median resume()-to-drain seconds for a staged backlog of single-RHS
/// requests, over `reps` timed passes after one warmup (the shared
/// harness staging methodology).
double measurePass(sts::engine::SolverEngine& engine,
                   sts::engine::SolverId id,
                   const std::vector<std::vector<double>>& rhs, int reps) {
  return sts::harness::measureStagedPasses(engine, id, rhs, /*warmup=*/1,
                                           reps);
}

}  // namespace

int main() {
  using namespace sts;

  const int width = envInt("STS_ELASTIC_WIDTH", 4);
  const int workers = envInt("STS_ELASTIC_WORKERS", width);
  const auto max_batch =
      static_cast<index_t>(envInt("STS_ELASTIC_BATCH", 8));
  const int reps = envInt("STS_ELASTIC_REPS", 5);
  const std::vector<int> backlogs = {workers, 4 * workers, 16 * workers};

  bench::banner("Elastic serving", "Steiner et al. (elasticity follow-up)",
                "Team size vs. aggregate throughput under offered load");
  std::printf("schedule width %d, %d workers, coalescing budget %d, "
              "%u hardware cores\n\n",
              width, workers, static_cast<int>(max_batch),
              std::thread::hardware_concurrency());

  std::vector<Config> configs;
  configs.push_back({"full", width});
  for (int t = 1; t < width; ++t) {
    configs.push_back({"team=" + std::to_string(t), t});
  }

  std::vector<harness::DatasetEntry> entries;
  std::vector<std::string> entry_dataset;
  {
    auto standin = harness::suiteSparseStandin();
    for (size_t i = 0; i < standin.size() && i < 2; ++i) {
      entry_dataset.push_back("suitesparse-standin");
      entries.push_back(std::move(standin[i]));
    }
    auto erdos = harness::erdosRenyiSet();
    if (!erdos.empty()) {
      entry_dataset.push_back("erdos-renyi");
      entries.push_back(std::move(erdos.front()));
    }
  }

  std::vector<Result> results;
  bool shrunk_wins = false;
  for (size_t e = 0; e < entries.size(); ++e) {
    const auto& entry = entries[e];
    exec::SolverOptions solver_opts;
    solver_opts.scheduler = exec::SchedulerKind::kGrowLocal;
    solver_opts.num_threads = width;
    solver_opts.validate = false;
    auto solver = std::make_shared<const exec::TriangularSolver>(
        exec::TriangularSolver::analyze(entry.lower, solver_opts));
    const auto n = static_cast<size_t>(entry.lower.rows());

    const int deepest = backlogs.back();
    std::vector<std::vector<double>> rhs(static_cast<size_t>(deepest));
    for (size_t j = 0; j < rhs.size(); ++j) {
      rhs[j].resize(n);
      for (size_t i = 0; i < n; ++i) {
        rhs[j][i] = 1.0 + 0.25 * static_cast<double>((i + 7 * j) % 13);
      }
    }

    double full_deep_rhs_per_s = 0.0;
    double best_shrunk_deep = 0.0;
    std::string best_shrunk_name;
    for (const auto& config : configs) {
      for (const int backlog : backlogs) {
        // One engine per (config, backlog) row so the reported stats
        // describe exactly this offered-load level, not the sweep so far.
        engine::EngineOptions opts;
        opts.num_workers = workers;
        opts.max_batch = max_batch;
        opts.start_paused = true;
        opts.team_size = config.team;
        const std::vector<std::vector<double>> slice(
            rhs.begin(), rhs.begin() + backlog);
        Result r;
        r.dataset = entry_dataset[e];
        r.matrix = entry.name;
        r.config = config.name;
        r.team = config.team;
        r.backlog = backlog;
        {
          engine::SolverEngine engine(opts);
          const auto id = engine.registerSolver(solver);
          r.median_seconds = measurePass(engine, id, slice, reps);
          r.rhs_per_second =
              static_cast<double>(backlog) / r.median_seconds;
          const auto stats = engine.stats(id);
          r.mean_team_size = stats.mean_team_size;
        }
        // The pinned twin: identical load, but every batch's team pins to
        // its leased core set (disjoint across concurrent batches). The
        // budget caps teams at the detected core count, so the pinned
        // column doubles as the never-oversubscribe configuration.
        if (sts::exec::affinitySupported() &&
            !sts::exec::systemCoreSet().empty()) {
          engine::EngineOptions pinned_opts = opts;
          pinned_opts.pin_threads = true;
          engine::SolverEngine engine(pinned_opts);
          const auto id = engine.registerSolver(solver);
          r.pinned_median_seconds = measurePass(engine, id, slice, reps);
          r.pinned_rhs_per_second =
              static_cast<double>(backlog) / r.pinned_median_seconds;
          const auto stats = engine.stats(id);
          r.pinned_mean_team_size = stats.mean_team_size;
          r.migrated_threads = stats.migrated_threads;
        }
        if (r.pinned_median_seconds > 0.0) {
          std::printf("%-20s %-12s backlog %4d: %8.3f ms, %9.0f rhs/s | "
                      "pinned %8.3f ms, %9.0f rhs/s\n",
                      entry.name.c_str(), config.name.c_str(), backlog,
                      r.median_seconds * 1e3, r.rhs_per_second,
                      r.pinned_median_seconds * 1e3, r.pinned_rhs_per_second);
        } else {
          std::printf("%-20s %-12s backlog %4d: %8.3f ms, %9.0f rhs/s | "
                      "pinned -\n",
                      entry.name.c_str(), config.name.c_str(), backlog,
                      r.median_seconds * 1e3, r.rhs_per_second);
        }
        if (backlog == deepest) {
          if (config.name == "full") {
            full_deep_rhs_per_s = r.rhs_per_second;
          } else if (r.rhs_per_second > best_shrunk_deep) {
            best_shrunk_deep = r.rhs_per_second;
            best_shrunk_name = config.name;
          }
        }
        results.push_back(std::move(r));
      }
    }
    if (best_shrunk_deep > full_deep_rhs_per_s) shrunk_wins = true;
    std::printf("  -> deep backlog on %s: full %0.0f rhs/s vs best shrunk "
                "(%s) %0.0f rhs/s\n\n",
                entry.name.c_str(), full_deep_rhs_per_s,
                best_shrunk_name.c_str(), best_shrunk_deep);
  }

  // Machine-readable output: team size vs. aggregate throughput.
  std::printf("JSON: {\"bench\":\"elastic_serving\",%s,"
              "\"schedule_width\":%d,\"workers\":%d,\"max_batch\":%d,"
              "\"results\":[",
              bench::hostMetaJson().c_str(), width, workers,
              static_cast<int>(max_batch));
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::printf("%s{\"dataset\":\"%s\",\"matrix\":\"%s\",\"config\":\"%s\","
                "\"team\":%d,\"backlog\":%d,\"median_seconds\":%.6g,"
                "\"rhs_per_second\":%.6g,\"mean_team_size\":%.3g,"
                "\"pinned_median_seconds\":%.6g,"
                "\"pinned_rhs_per_second\":%.6g,"
                "\"pinned_mean_team_size\":%.3g,\"migrated_threads\":%llu}",
                i == 0 ? "" : ",", r.dataset.c_str(), r.matrix.c_str(),
                r.config.c_str(), r.team, r.backlog, r.median_seconds,
                r.rhs_per_second, r.mean_team_size, r.pinned_median_seconds,
                r.pinned_rhs_per_second, r.pinned_mean_team_size,
                static_cast<unsigned long long>(r.migrated_threads));
  }
  std::printf("]}\n");

  std::printf("\nclaim under test: under deep backlog, folding solves onto "
              "shrunk teams buys more aggregate\nthroughput than full-width "
              "solves — the elasticity trade-off.\n");
  std::printf(shrunk_wins ? "claim holds.\n" : "claim FAILED.\n");
  return shrunk_wins ? 0 : 1;
}

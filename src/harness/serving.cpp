#include "harness/serving.hpp"

#include <chrono>
#include <memory>

#include "exec/affinity.hpp"
#include "harness/stats.hpp"

namespace sts::harness {

double waitFraction(const std::vector<engine::TraceSummaryRow>& rows) {
  double compute = 0.0;
  double wait = 0.0;
  for (const auto& row : rows) {
    compute += row.compute_seconds;
    wait += row.wait_seconds;
  }
  const double total = compute + wait;
  return total > 0.0 ? wait / total : 0.0;
}

double measureStagedPasses(engine::SolverEngine& engine,
                           engine::SolverId id,
                           const std::vector<std::vector<double>>& rhs,
                           int warmup, int reps) {
  using Clock = std::chrono::high_resolution_clock;
  std::vector<double> pass_seconds;
  const int passes = warmup + reps;
  for (int pass = 0; pass < passes; ++pass) {
    engine.pause();
    std::vector<std::future<std::vector<double>>> futures;
    futures.reserve(rhs.size());
    for (const auto& b : rhs) futures.push_back(engine.submit(id, b));
    const auto t0 = Clock::now();
    engine.resume();
    for (auto& f : futures) f.get();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (pass >= warmup) pass_seconds.push_back(seconds);
  }
  return quantile(pass_seconds, 0.5);
}

ServingMeasurement measureServing(const std::string& matrix_name,
                                  const CsrMatrix& lower, SchedulerKind kind,
                                  const MeasureOptions& opts,
                                  int num_requests, sts::index_t max_batch) {
  ServingMeasurement m;
  m.matrix = matrix_name;
  m.scheduler = exec::schedulerKindName(kind);
  m.requests = num_requests;
  m.max_batch = max_batch;

  exec::SolverOptions solver_opts;
  solver_opts.scheduler = kind;
  solver_opts.num_threads = opts.num_threads;
  solver_opts.reorder = opts.reorder &&
                        (kind == SchedulerKind::kGrowLocal ||
                         kind == SchedulerKind::kFunnelGrowLocal);
  solver_opts.num_schedule_blocks = opts.num_schedule_blocks;
  solver_opts.validate = false;
  auto solver = std::make_shared<const exec::TriangularSolver>(
      exec::TriangularSolver::analyze(lower, solver_opts));
  const auto n = static_cast<size_t>(lower.rows());

  // Distinct right-hand sides per request, deterministic across passes.
  std::vector<std::vector<double>> rhs(static_cast<size_t>(num_requests));
  for (size_t j = 0; j < rhs.size(); ++j) {
    auto& b = rhs[j];
    b.resize(n);
    for (size_t i = 0; i < n; ++i) {
      b[i] = 1.0 + 0.25 * static_cast<double>((i + 7 * j) % 13);
    }
  }

  // Baseline: the pre-engine serving loop — one request at a time through
  // one context, paying the full barrier bill per right-hand side. Both
  // sides pin the full analyzed width (not the clamped default team) so
  // the measurement isolates batch amortization from elasticity, which
  // bench_elastic_serving measures separately.
  const int width = solver->numThreads();
  {
    auto ctx = solver->createContext();
    std::vector<double> x(n, 0.0);
    m.sequential_seconds = medianSeconds(
        [&] {
          for (const auto& b : rhs) solver->solve(b, x, *ctx, width);
        },
        opts.warmup, opts.reps);
  }

  // Engine: stage the same backlog while paused (deterministic coalescing),
  // then time resume-to-drain. One worker isolates the batching effect.
  engine::EngineOptions engine_opts;
  engine_opts.num_workers = 1;
  engine_opts.max_batch = max_batch;
  engine_opts.start_paused = true;
  engine_opts.team_size = width;
  {
    engine::SolverEngine engine(engine_opts);
    const auto id = engine.registerSolver(solver);
    m.batched_seconds =
        measureStagedPasses(engine, id, rhs, opts.warmup, opts.reps);
    m.mean_batch_rhs = engine.stats(id).mean_batch_rhs;
    m.batched_wait_fraction = waitFraction(engine.traceSummary(id));
  }

  // Pinned engine: identical staged passes, but every batch's team is
  // pinned to its leased core set (the core-set-affinity configuration).
  // The budget caps teams at the detected core count, so an analyzed width
  // beyond the machine runs narrower pinned teams — by design.
  if (exec::affinitySupported() && !exec::systemCoreSet().empty()) {
    engine::EngineOptions pinned_opts = engine_opts;
    pinned_opts.pin_threads = true;
    engine::SolverEngine engine(pinned_opts);
    const auto id = engine.registerSolver(solver);
    m.pinned_seconds =
        measureStagedPasses(engine, id, rhs, opts.warmup, opts.reps);
    const auto stats = engine.stats(id);
    m.pinned_batches = stats.pinned_batches;
    m.migrated_threads = stats.migrated_threads;
    m.pinned_wait_fraction = waitFraction(engine.traceSummary(id));
  }

  m.speedup = m.sequential_seconds / m.batched_seconds;
  m.sequential_rhs_per_second =
      static_cast<double>(num_requests) / m.sequential_seconds;
  m.batched_rhs_per_second =
      static_cast<double>(num_requests) / m.batched_seconds;
  if (m.pinned_seconds > 0.0) {
    m.pinned_speedup = m.batched_seconds / m.pinned_seconds;
    m.pinned_rhs_per_second =
        static_cast<double>(num_requests) / m.pinned_seconds;
  }
  return m;
}

double geomeanServingSpeedup(const std::vector<ServingMeasurement>& ms) {
  // Explicit 0.0 for "no measurements" keeps bench summaries printable
  // (geometricMean itself throws on empty input).
  if (ms.empty()) return 0.0;
  std::vector<double> speedups;
  speedups.reserve(ms.size());
  for (const auto& m : ms) speedups.push_back(m.speedup);
  return geometricMean(speedups);
}

}  // namespace sts::harness

/// Serving: one analyzed solver, many concurrent clients.
///
/// Analyzes a 2-D Poisson lower triangle once, registers it with an
/// engine::SolverEngine, and fires a backlog of single-RHS requests at it
/// from several client threads. The engine coalesces compatible queued
/// requests into multi-RHS batches (one schedule traversal per batch) and
/// worker concurrency is safe because every in-flight batch runs on its
/// own SolveContext. Every batch runs on the solver's default team; the
/// shared CoreBudget (`core_budget` + auto-detected core set) leases every
/// team a disjoint set of CPU ids, and `pin_threads` pins team members to
/// their leased cores (see the interaction table in engine/types.hpp) —
/// all bitwise-lossless, so every client still gets exact results. Prints
/// the per-solver serving statistics, including the realized team sizes
/// and pin/migration counters, the per-team compute-vs-wait attribution
/// rows, and the metrics registry. Set STS_TRACE_OUT=<file> to also record
/// the whole run as a Perfetto/chrome trace_event JSON (load it at
/// https://ui.perfetto.dev): every request's queue-wait, the coalesce
/// decision, the core-budget lease, the pin outcome, plan builds (the
/// analysis included), and per-superstep compute/barrier spans on every
/// executor thread.
///
///   ./engine_serving
///   STS_TRACE_OUT=/tmp/serving_trace.json ./engine_serving

#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "datagen/grids.hpp"
#include "engine/solver_engine.hpp"
#include "exec/affinity.hpp"
#include "exec/solver.hpp"
#include "exec/verify.hpp"
#include "obs/trace.hpp"

int main() {
  using namespace sts;

  // Tracing is opt-in per run: no STS_TRACE_OUT, no session, and the
  // instrumentation points cost one predicted-false branch each.
  const char* trace_path = std::getenv("STS_TRACE_OUT");
  std::shared_ptr<obs::TraceSession> trace;
  if (trace_path != nullptr && trace_path[0] != '\0') {
    trace = obs::TraceSession::start();
    trace->nameCurrentThread("main");
  }

  const sparse::CsrMatrix a = datagen::grid2dLaplacian5(120, 120);
  const sparse::CsrMatrix lower = a.lowerTriangle();
  std::printf("matrix: %s\n", lower.summary().c_str());

  exec::SolverOptions options;
  options.num_threads = 2;
  auto solver = std::make_shared<const exec::TriangularSolver>(
      exec::TriangularSolver::analyze(lower, options));
  std::printf("analyzed once: %d supersteps, %.3f ms\n",
              static_cast<int>(solver->schedule().numSupersteps()),
              solver->analysisSeconds() * 1e3);

  // Every knob is optional and bitwise-lossless, so this block is safe to
  // copy into production code.
  engine::EngineOptions engine_options;
  engine_options.num_workers = 2;     // dispatcher threads
  engine_options.max_batch = 8;       // coalescing budget (RHS per batch)
  engine_options.core_budget = 0;     // aggregate team cap (0 = unlimited)
  engine_options.pin_threads = true;  // pin teams to leased, disjoint cores
  // engine_options.core_set = {0, 2, 4};  // or name the cores explicitly
  engine::SolverEngine engine(engine_options);
  const auto id = engine.registerSolver(solver);
  if (engine.coreBudget().hasCoreSet()) {
    std::printf("core set: %zu CPUs leased disjointly across batches\n",
                engine.coreBudget().coreSet().size());
  } else {
    std::printf("core set: none (affinity unsupported) — running unpinned\n");
  }

  // The ground truth every client's request is built from.
  const auto x_true = exec::referenceSolution(lower.rows(), /*seed=*/9);
  const auto b = lower.multiply(x_true);

  // Four clients, 16 requests each, all against the one analyzed solver.
  constexpr int kClients = 4;
  constexpr int kPerClient = 16;
  std::vector<std::future<double>> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::async(std::launch::async, [&] {
      double worst = 0.0;
      std::vector<std::future<std::vector<double>>> pending;
      pending.reserve(kPerClient);
      for (int r = 0; r < kPerClient; ++r) {
        pending.push_back(engine.submit(id, b));
      }
      for (auto& f : pending) {
        const std::vector<double> x = f.get();
        worst = std::max(worst, exec::relMaxAbsDiff(x, x_true));
      }
      return worst;
    }));
  }

  double worst = 0.0;
  for (auto& client : clients) worst = std::max(worst, client.get());
  engine.drain();

  const auto stats = engine.stats(id);
  std::printf("served %llu requests in %llu batches "
              "(mean %.1f RHS/batch, %llu RHS coalesced)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.batches),
              stats.mean_batch_rhs,
              static_cast<unsigned long long>(stats.coalesced_rhs));
  std::printf("latency p50 %.3f ms, p95 %.3f ms, throughput %.0f rhs/s\n",
              stats.latency_p50_seconds * 1e3,
              stats.latency_p95_seconds * 1e3,
              stats.throughput_rhs_per_second);
  std::printf("teams: mean %.2f threads/batch, %llu batches throttled\n",
              stats.mean_team_size,
              static_cast<unsigned long long>(stats.budget_throttled_batches));
  std::printf("affinity: %llu batches pinned, %llu members pinned, "
              "%llu migrations corrected\n",
              static_cast<unsigned long long>(stats.pinned_batches),
              static_cast<unsigned long long>(stats.pinned_threads),
              static_cast<unsigned long long>(stats.migrated_threads));

  // Where did executor-thread time go? One attribution row per team size
  // the engine actually ran.
  const auto rows = engine.traceSummary(id);
  if (!rows.empty()) {
    std::printf("attribution (compute vs wait per executor thread):\n");
    for (const auto& row : rows) {
      std::printf("  team %d %4llu batches  compute %8.3f ms  "
                  "wait %8.3f ms (%.1f%%, max %.3f ms)\n",
                  row.team, static_cast<unsigned long long>(row.batches),
                  row.compute_seconds * 1e3, row.wait_seconds * 1e3,
                  row.wait_fraction * 100.0, row.max_wait_seconds * 1e3);
    }
  }
  std::printf("metrics registry:\n%s", engine.metrics().renderText().c_str());

  if (trace != nullptr) {
    trace->stop();
    if (trace->writeJson(trace_path)) {
      std::printf("trace: wrote %s (%llu events, %zu threads, "
                  "%llu dropped)\n",
                  trace_path,
                  static_cast<unsigned long long>(trace->totalEvents()),
                  trace->numThreads(),
                  static_cast<unsigned long long>(trace->droppedEvents()));
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n", trace_path);
    }
  }

  std::printf("worst relative error %.2e -> %s\n", worst,
              worst < 1e-10 ? "OK" : "FAILED");
  return worst < 1e-10 ? 0 : 1;
}

/// Kernel microbenchmarks (google-benchmark): the executor hot paths, the
/// scheduler itself, and ablations of the design parameters DESIGN.md
/// calls out (sync cost L, utilization floor, funnel direction).

#include <benchmark/benchmark.h>

#include <memory>

#include "baselines/spmp.hpp"
#include "core/coarsen.hpp"
#include "core/growlocal.hpp"
#include "core/reorder.hpp"
#include "dag/dag.hpp"
#include "dag/transitive.hpp"
#include "dag/wavefronts.hpp"
#include "datagen/grids.hpp"
#include "datagen/random_matrices.hpp"
#include "exec/bsp.hpp"
#include "exec/p2p.hpp"
#include "exec/row_kernels.hpp"
#include "exec/serial.hpp"
#include "exec/solver.hpp"
#include "obs/trace.hpp"

namespace {

using namespace sts;
using sparse::CsrMatrix;

const CsrMatrix& benchMatrix() {
  static const CsrMatrix lower =
      datagen::grid2dLaplacian5(120, 120).lowerTriangle();
  return lower;
}

const dag::Dag& benchDag() {
  static const dag::Dag d = dag::Dag::fromLowerTriangular(benchMatrix());
  return d;
}

void BM_SerialSolve(benchmark::State& state) {
  const auto& lower = benchMatrix();
  const std::vector<double> b(static_cast<size_t>(lower.rows()), 1.0);
  std::vector<double> x(b.size(), 0.0);
  for (auto _ : state) {
    exec::solveLowerSerial(lower, b, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * lower.nnz());
}
BENCHMARK(BM_SerialSolve);

void BM_BspSolve(benchmark::State& state) {
  const auto& lower = benchMatrix();
  const auto schedule = core::growLocalSchedule(
      benchDag(), {.num_cores = static_cast<int>(state.range(0))});
  const exec::BspExecutor executor(lower, schedule);
  const std::vector<double> b(static_cast<size_t>(lower.rows()), 1.0);
  std::vector<double> x(b.size(), 0.0);
  for (auto _ : state) {
    executor.solve(b, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * lower.nnz());
}
BENCHMARK(BM_BspSolve)->Arg(1)->Arg(2);

/// Tracing-overhead guard rows (docs/OBSERVABILITY.md). All three run the
/// same 2-thread BSP solve as BM_BspSolve/2; the row names are identical
/// across STS_TRACING=ON and =OFF builds so tools/bench_diff.py can
/// compare them directly:
///   TraceIdle    — instrumentation compiled in (default build) but no
///                  session and no sink: the cost every untraced solve
///                  pays. Under -DSTS_TRACING=OFF this measures the
///                  compiled-out baseline; CI diffs the two and fails if
///                  enabled-but-idle regresses the solve by > 2%.
///   TraceArmed   — a SolveTrace attribution sink attached to the context
///                  (what EngineOptions::trace adds to every batch).
///   TraceSession — a live TraceSession: every superstep records ring
///                  events (the full pay-when-tracing cost).
void BM_BspSolveTraced(benchmark::State& state, bool armed, bool session) {
  const auto& lower = benchMatrix();
  const auto schedule = core::growLocalSchedule(benchDag(), {.num_cores = 2});
  const exec::BspExecutor executor(lower, schedule);
  auto ctx = executor.createContext();
  obs::SolveTrace sink;
  if (armed) ctx->setTrace(&sink);
  std::shared_ptr<obs::TraceSession> trace;
  if (session) trace = obs::TraceSession::start();
  const std::vector<double> b(static_cast<size_t>(lower.rows()), 1.0);
  std::vector<double> x(b.size(), 0.0);
  for (auto _ : state) {
    executor.solve(b, x, *ctx);
    benchmark::DoNotOptimize(x.data());
  }
  if (trace != nullptr) trace->stop();
  state.SetItemsProcessed(state.iterations() * lower.nnz());
}
void BM_BspSolveTraceIdle(benchmark::State& state) {
  BM_BspSolveTraced(state, /*armed=*/false, /*session=*/false);
}
void BM_BspSolveTraceArmed(benchmark::State& state) {
  BM_BspSolveTraced(state, /*armed=*/true, /*session=*/false);
}
void BM_BspSolveTraceSession(benchmark::State& state) {
  BM_BspSolveTraced(state, /*armed=*/true, /*session=*/true);
}
BENCHMARK(BM_BspSolveTraceIdle);
BENCHMARK(BM_BspSolveTraceArmed);
BENCHMARK(BM_BspSolveTraceSession);

/// Failpoint-overhead guard row (docs/ROBUSTNESS.md): the same 2-thread
/// BSP solve as BM_BspSolveTraceIdle, with every failpoint DISARMED. The
/// row name is identical across STS_FAULTS=ON and =OFF builds, so
/// tools/bench_diff.py can compare them directly: compiled-in-but-idle
/// failpoints (one static ref + one relaxed load per superstep per
/// thread) must not regress the solve by > 2% vs the compiled-out build.
void BM_BspSolveFaultIdle(benchmark::State& state) {
  BM_BspSolveTraced(state, /*armed=*/false, /*session=*/false);
}
BENCHMARK(BM_BspSolveFaultIdle);

void BM_ContiguousSolve(benchmark::State& state) {
  const auto& lower = benchMatrix();
  const auto schedule = core::growLocalSchedule(benchDag(), {.num_cores = 2});
  auto problem = core::reorderForLocality(lower, schedule);
  const exec::ContiguousBspExecutor executor(problem.matrix,
                                             problem.num_supersteps,
                                             problem.num_cores,
                                             problem.group_ptr);
  const std::vector<double> b(static_cast<size_t>(lower.rows()), 1.0);
  std::vector<double> x(b.size(), 0.0);
  for (auto _ : state) {
    executor.solve(b, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * lower.nnz());
}
BENCHMARK(BM_ContiguousSolve);

void BM_P2pSolve(benchmark::State& state) {
  const auto& lower = benchMatrix();
  const auto spmp = baselines::spmpSchedule(benchDag(), {.num_cores = 2});
  exec::P2pExecutor executor(lower, spmp.schedule, spmp.reduced_dag);
  const std::vector<double> b(static_cast<size_t>(lower.rows()), 1.0);
  std::vector<double> x(b.size(), 0.0);
  for (auto _ : state) {
    executor.solve(b, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * lower.nnz());
}
BENCHMARK(BM_P2pSolve);

/// Scalar multi-RHS row kernel (computeRowMulti: the shared-CSR walk's
/// column loop, variable width) over every row serially; Arg = nrhs.
void BM_MultiRhsKernelScalar(benchmark::State& state) {
  const auto& lower = benchMatrix();
  const auto r = static_cast<size_t>(state.range(0));
  const auto n = static_cast<size_t>(lower.rows());
  const std::vector<double> b(n * r, 1.0);
  std::vector<double> x(b.size(), 0.0);
  for (auto _ : state) {
    for (index_t i = 0; i < lower.rows(); ++i) {
      exec::detail::computeRowMulti(lower.rowPtr(), lower.colIdx(),
                                    lower.values(), b, x, i,
                                    static_cast<index_t>(r));
    }
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * lower.nnz() *
                          static_cast<int64_t>(r));
}
BENCHMARK(BM_MultiRhsKernelScalar)->Arg(4)->Arg(8);

/// Column-blocked multi-RHS row kernel (computeRowMultiPacked: fixed
/// 8/4-wide register blocks + tail — the tiled walk's kernel) on the SAME
/// CSR memory, isolating the kernel effect from the walk.
void BM_MultiRhsKernelBlocked(benchmark::State& state) {
  const auto& lower = benchMatrix();
  const auto r = static_cast<size_t>(state.range(0));
  const auto n = static_cast<size_t>(lower.rows());
  const std::vector<double> b(n * r, 1.0);
  std::vector<double> x(b.size(), 0.0);
  const auto row_ptr = lower.rowPtr();
  const auto col_idx = lower.colIdx();
  const auto values = lower.values();
  for (auto _ : state) {
    for (index_t i = 0; i < lower.rows(); ++i) {
      const auto begin = static_cast<size_t>(row_ptr[static_cast<size_t>(i)]);
      const auto diag =
          static_cast<size_t>(row_ptr[static_cast<size_t>(i) + 1]) - 1;
      exec::detail::computeRowMultiPacked(col_idx.data() + begin,
                                          values.data() + begin,
                                          diag - begin, values[diag], b, x,
                                          i, r);
    }
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * lower.nnz() *
                          static_cast<int64_t>(r));
}
BENCHMARK(BM_MultiRhsKernelBlocked)->Arg(4)->Arg(8);

/// The full multi-RHS solve on one executor; Arg = nrhs.
void BM_BspSolveMultiShared(benchmark::State& state) {
  const auto& lower = benchMatrix();
  const auto schedule = core::growLocalSchedule(benchDag(), {.num_cores = 2});
  const exec::BspExecutor executor(lower, schedule);
  auto ctx = executor.createContext();
  const auto r = static_cast<index_t>(state.range(0));
  const std::vector<double> b(
      static_cast<size_t>(lower.rows()) * static_cast<size_t>(r), 1.0);
  std::vector<double> x(b.size(), 0.0);
  for (auto _ : state) {
    executor.solveMultiRhs(b, x, r, *ctx, executor.numThreads(),
                           core::FoldPolicy::kModulo);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * lower.nnz() *
                          static_cast<int64_t>(r));
}
BENCHMARK(BM_BspSolveMultiShared)->Arg(4)->Arg(8);

void BM_GrowLocalSchedule(benchmark::State& state) {
  const auto& d = benchDag();
  for (auto _ : state) {
    auto s = core::growLocalSchedule(d, {.num_cores = 2});
    benchmark::DoNotOptimize(s.numSupersteps());
  }
  state.SetItemsProcessed(state.iterations() * d.numEdges());
}
BENCHMARK(BM_GrowLocalSchedule);

void BM_FunnelPartition(benchmark::State& state) {
  const auto& d = benchDag();
  for (auto _ : state) {
    auto p = core::funnelPartition(d, {});
    benchmark::DoNotOptimize(p.num_parts);
  }
  state.SetItemsProcessed(state.iterations() * d.numEdges());
}
BENCHMARK(BM_FunnelPartition);

void BM_TransitiveReduction(benchmark::State& state) {
  const auto lower =
      datagen::erdosRenyiLower({.n = 5000, .p = 4e-3, .seed = 3});
  const auto d = dag::Dag::fromLowerTriangular(lower);
  for (auto _ : state) {
    auto r = dag::approximateTransitiveReduction(d);
    benchmark::DoNotOptimize(r.removed_edges);
  }
  state.SetItemsProcessed(state.iterations() * d.numEdges());
}
BENCHMARK(BM_TransitiveReduction);

void BM_Wavefronts(benchmark::State& state) {
  const auto& d = benchDag();
  for (auto _ : state) {
    auto wf = dag::computeWavefronts(d);
    benchmark::DoNotOptimize(wf.num_levels);
  }
  state.SetItemsProcessed(state.iterations() * d.numEdges());
}
BENCHMARK(BM_Wavefronts);

/// Ablation: the sync-cost parameter L (§C.2). Reports the superstep count
/// as a counter — larger L glues more wavefronts per superstep.
void BM_AblationSyncCostL(benchmark::State& state) {
  const auto& d = benchDag();
  core::GrowLocalOptions opts;
  opts.num_cores = 2;
  opts.sync_cost_l = static_cast<double>(state.range(0));
  index_t supersteps = 0;
  for (auto _ : state) {
    auto s = core::growLocalSchedule(d, opts);
    supersteps = s.numSupersteps();
  }
  state.counters["supersteps"] = static_cast<double>(supersteps);
}
BENCHMARK(BM_AblationSyncCostL)->Arg(50)->Arg(500)->Arg(5000);

/// Ablation: the utilization floor (our interpretation of the paper's
/// "sufficient parallelization" test; see growlocal.hpp).
void BM_AblationUtilizationFloor(benchmark::State& state) {
  const auto& d = benchDag();
  core::GrowLocalOptions opts;
  opts.num_cores = 2;
  opts.min_utilization = static_cast<double>(state.range(0)) / 100.0;
  index_t supersteps = 0;
  double imbalance = 0.0;
  for (auto _ : state) {
    auto s = core::growLocalSchedule(d, opts);
    supersteps = s.numSupersteps();
    imbalance = core::computeScheduleStats(d, s).imbalance;
  }
  state.counters["supersteps"] = static_cast<double>(supersteps);
  state.counters["imbalance"] = imbalance;
}
BENCHMARK(BM_AblationUtilizationFloor)->Arg(0)->Arg(60)->Arg(85)->Arg(95);

}  // namespace

BENCHMARK_MAIN();

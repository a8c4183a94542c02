/// Serving throughput: batched multi-RHS submission through the
/// engine::SolverEngine vs. the classic sequential single-RHS solve loop on
/// the same analyzed solver. The engine coalesces a staged backlog of
/// single-RHS requests into tiled multi-RHS batches, so every superstep
/// barrier is paid once per batch instead of once per request — the Table
/// 7.7 block-parallel amortization applied to request serving. Runs on the
/// §6.2 stand-in datasets. The "pinned" columns repeat the batched pass
/// with EngineOptions::pin_threads (teams pinned to their leased core set;
/// "-" when the platform lacks affinity support).
///
///   STS_BENCH_SCALE / STS_BENCH_REPS control size and repetitions;
///   STS_SERVE_REQUESTS (default 32) the staged backlog per pass;
///   STS_SERVE_BATCH (default 16) the coalescing budget.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "harness/serving.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"

namespace {

using sts::bench::envInt;

}  // namespace

int main() {
  using namespace sts;
  using harness::Table;

  const int requests = envInt("STS_SERVE_REQUESTS", 32);
  const auto max_batch =
      static_cast<sts::index_t>(envInt("STS_SERVE_BATCH", 16));

  bench::banner("Engine throughput", "Table 7.7 (serving analogue)",
                "Batched request serving vs sequential single-RHS solves");
  std::printf("backlog %d requests/pass, coalescing budget %d RHS, "
              "1 engine worker\n\n",
              requests, static_cast<int>(max_batch));

  // STS_TRACE_OUT=<file> records the whole bench as a Perfetto trace.
  const auto trace = bench::maybeTraceFromEnv();

  harness::MeasureOptions opts;
  std::vector<harness::ServingMeasurement> all;
  Table table({"dataset", "matrix", "seq ms", "batched ms", "speedup",
               "mean batch", "seq rhs/s", "batched rhs/s", "wait%",
               "pinned ms", "pin speedup"});
  for (const auto& [dataset_name, dataset] :
       {std::pair<std::string, harness::Dataset>{
            "suitesparse-standin", harness::suiteSparseStandin()},
        std::pair<std::string, harness::Dataset>{"erdos-renyi",
                                                 harness::erdosRenyiSet()}}) {
    for (const auto& entry : dataset) {
      auto m = harness::measureServing(entry.name, entry.lower,
                                       exec::SchedulerKind::kGrowLocal, opts,
                                       requests, max_batch);
      table.addRow({dataset_name, m.matrix,
                    Table::fmt(m.sequential_seconds * 1e3),
                    Table::fmt(m.batched_seconds * 1e3),
                    Table::fmt(m.speedup), Table::fmt(m.mean_batch_rhs, 1),
                    Table::fmt(m.sequential_rhs_per_second, 0),
                    Table::fmt(m.batched_rhs_per_second, 0),
                    Table::fmt(m.batched_wait_fraction * 100.0, 1),
                    m.pinned_seconds > 0.0
                        ? Table::fmt(m.pinned_seconds * 1e3)
                        : "-",
                    m.pinned_seconds > 0.0 ? Table::fmt(m.pinned_speedup)
                                           : "-"});
      all.push_back(std::move(m));
    }
  }
  table.print(std::cout);
  bench::finishTrace(trace);
  std::printf("\ngeomean serving speedup (batched / sequential): %.2fx\n",
              harness::geomeanServingSpeedup(all));
  std::printf("claim under test: coalesced multi-RHS batches amortize the "
              "per-superstep barrier across the backlog,\nso aggregate "
              "serving throughput beats the one-solve-at-a-time loop.\n");
  return harness::geomeanServingSpeedup(all) > 1.0 ? 0 : 1;
}

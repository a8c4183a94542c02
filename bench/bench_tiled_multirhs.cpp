/// Tiled multi-RHS bench: one tiled solve of nrhs right-hand sides vs
/// nrhs independent vector solves, across executor x team x nrhs. The
/// tile layout (exec/tile.hpp) repacks the batch into per-tile row-major
/// n x w blocks sized to a per-thread L2 share, so each superstep's matrix
/// pass touches a working set that fits in cache, and the tile kernel
/// (computeRowMultiTiled) register-blocks across RHS columns. Every column
/// must come out bitwise equal to a vector solve() of that column — a
/// tile never splits or reorders a column's FP sequence.
///
///   STS_BENCH_SCALE / STS_BENCH_REPS  dataset sizing as usual;
///   STS_TILED_WIDTH  (default 4)      analyzed schedule width C;
///   STS_TILED_REPS   (default 5)      timed passes per configuration;
///   STS_TILE_COLS                     overrides the tile width (tile.cpp).
///
/// Timing compares like with like, both sides in the solver's internal
/// row order: the tiled pass is solveTiles on PRE-packed buffers (the
/// engine's zero-copy entry packs requests directly into tiles), against
/// nrhs solvePermuted calls on pre-permuted columns on the same team —
/// what an engine batch replaces when it coalesces. The JSON keeps its
/// `untiled_seconds` key for that per-column baseline. Per-row
/// bytes_moved/flops feed tools/roofline.py. Exit code 0 iff the tiled
/// results equal per-column solve() bitwise everywhere — deliberately NOT
/// a speed gate, so the bench stays robust on 1-core CI runners; the
/// nrhs >= 8 geomean speedup is reported for the trajectory snapshots
/// (BENCH_8.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/solver.hpp"
#include "exec/tile.hpp"
#include "harness/datasets.hpp"
#include "harness/stats.hpp"

namespace {

using namespace sts;
using exec::SchedulerKind;
using exec::SolverOptions;
using exec::TileLayout;
using exec::TriangularSolver;

using sts::bench::envInt;

struct Row {
  std::string dataset;
  std::string matrix;
  std::string executor;
  int team = 0;
  index_t nrhs = 1;
  index_t tile_cols = 0;
  index_t num_tiles = 0;
  long long rows_n = 0;
  long long nnz = 0;
  double untiled_seconds = 0.0;
  double tiled_seconds = 0.0;
  double tiled_speedup = 0.0;
  std::size_t bytes_moved = 0;
  std::size_t flops = 0;
};

/// Median time of nrhs vector solves, one per pre-permuted column.
double timeColumns(const TriangularSolver& solver, exec::SolveContext& ctx,
                   const std::vector<std::vector<double>>& b_cols,
                   std::vector<std::vector<double>>& x_cols, int team,
                   int reps) {
  using Clock = std::chrono::high_resolution_clock;
  std::vector<double> seconds;
  seconds.reserve(static_cast<size_t>(reps));
  for (int pass = 0; pass < reps; ++pass) {
    const auto t0 = Clock::now();
    for (size_t c = 0; c < b_cols.size(); ++c) {
      solver.solvePermuted(b_cols[c], x_cols[c], ctx, team);
    }
    seconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return harness::quantile(seconds, 0.5);
}

double timeTiled(const TriangularSolver& solver, exec::SolveContext& ctx,
                 std::span<const double> b_tiled, std::span<double> x_tiled,
                 const TileLayout& layout, int team, int reps) {
  using Clock = std::chrono::high_resolution_clock;
  std::vector<double> seconds;
  seconds.reserve(static_cast<size_t>(reps));
  for (int pass = 0; pass < reps; ++pass) {
    const auto t0 = Clock::now();
    solver.solveTiles(b_tiled, x_tiled, layout, ctx, team);
    seconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return harness::quantile(seconds, 0.5);
}

}  // namespace

int main() {
  const int width = envInt("STS_TILED_WIDTH", 4);
  const int reps = envInt("STS_TILED_REPS", 5);

  bench::banner("Tiled multi-RHS", "Steiner et al. (locality follow-up)",
                "Cache-sized RHS column tiles vs one vector solve per "
                "column, executor x team x nrhs");
  std::printf("schedule width %d, %d timed reps per configuration\n\n", width,
              reps);

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

  struct ExecConfig {
    std::string name;
    SolverOptions options;
  };
  std::vector<ExecConfig> configs;
  {
    SolverOptions opts;
    opts.num_threads = width;
    opts.validate = false;
    opts.reorder = true;
    configs.push_back({"contiguous", opts});
    opts.reorder = false;
    configs.push_back({"bsp", opts});
    opts.scheduler = SchedulerKind::kSpmp;
    configs.push_back({"p2p", opts});
  }

  std::vector<int> teams = {1, width};
  teams.erase(std::unique(teams.begin(), teams.end()), teams.end());
  const std::vector<index_t> nrhs_sweep = {1, 8, 16, 32};

  std::vector<Row> rows;
  bool bitwise_ok = true;
  for (size_t e = 0; e < entries.size(); ++e) {
    const auto& entry = entries[e];
    const auto n = static_cast<size_t>(entry.lower.rows());
    for (const auto& config : configs) {
      const auto solver = TriangularSolver::analyze(entry.lower,
                                                    config.options);
      auto ctx = solver.createContext();
      const auto perm = solver.permutation();
      const bool permuted = solver.isPermuted();
      for (const int team : teams) {
        for (const index_t nrhs : nrhs_sweep) {
          const auto r = static_cast<size_t>(nrhs);
          std::vector<double> b(n * r);
          for (size_t i = 0; i < b.size(); ++i) {
            b[i] = 1.0 + 0.25 * static_cast<double>((3 * i + e) % 17);
          }
          const TileLayout layout = solver.tileLayout(nrhs);

          // Reference: solve() on each column (the warmup also pays the
          // one-time plan builds outside the timed region).
          std::vector<double> x_ref(b.size());
          std::vector<std::vector<double>> b_cols(r, std::vector<double>(n));
          std::vector<std::vector<double>> x_cols(r, std::vector<double>(n));
          {
            std::vector<double> bc(n);
            for (size_t c = 0; c < r; ++c) {
              for (size_t i = 0; i < n; ++i) bc[i] = b[i * r + c];
              solver.solve(bc, x_cols[c], *ctx, team);
              for (size_t i = 0; i < n; ++i) x_ref[i * r + c] = x_cols[c][i];
            }
          }

          // Full public multi-RHS path (internal pack + permutation): the
          // bitwise gate checks the layer users actually call.
          std::vector<double> x_public(b.size());
          solver.solveMultiRhs(b, x_public, nrhs, *ctx, team);
          if (x_ref != x_public) bitwise_ok = false;

          // Pre-permuted columns for the timed vector solves, and the same
          // rows packed into tiles for the timed solveTiles passes —
          // exactly what the engine's fused pack produces, paid once
          // outside the timing.
          std::vector<double> b_perm(b.size());
          for (size_t i = 0; i < n; ++i) {
            const size_t row = permuted ? static_cast<size_t>(perm[i]) : i;
            for (size_t c = 0; c < r; ++c) {
              b_perm[i * r + c] = b[row * r + c];
              b_cols[c][i] = b[row * r + c];
            }
          }
          std::vector<double> b_tiled(layout.totalDoubles());
          std::vector<double> x_tiled(layout.totalDoubles());
          layout.pack(b_perm, b_tiled);

          Row row;
          row.dataset = entry_dataset[e];
          row.matrix = entry.name;
          row.executor = config.name;
          row.team = team;
          row.nrhs = nrhs;
          row.tile_cols = layout.tileCols();
          row.num_tiles = layout.numTiles();
          row.rows_n = static_cast<long long>(entry.lower.rows());
          row.nnz = static_cast<long long>(entry.lower.nnz());
          row.untiled_seconds =
              timeColumns(solver, *ctx, b_cols, x_cols, team, reps);
          row.tiled_seconds = timeTiled(solver, *ctx, b_tiled, x_tiled,
                                        layout, team, reps);
          row.tiled_speedup = row.tiled_seconds > 0.0
                                  ? row.untiled_seconds / row.tiled_seconds
                                  : 0.0;
          // Byte model for tools/roofline.py: the matrix is streamed
          // once per tile (the tile loop replays the CSR walk), the
          // RHS/solution doubles move once each way.
          row.bytes_moved =
              exec::csrBytesMoved(entry.lower.rows(), entry.lower.nnz()) *
                  static_cast<std::size_t>(layout.numTiles()) +
              layout.bytesMoved();
          row.flops = 2 * static_cast<std::size_t>(entry.lower.nnz()) * r;

          // The pre-packed result must match the reference after
          // unpacking back to natural row order.
          std::vector<double> x_unpacked(b.size());
          layout.unpack(x_tiled, x_unpacked);
          std::vector<double> x_nat(b.size());
          for (size_t i = 0; i < n; ++i) {
            const size_t dst = permuted ? static_cast<size_t>(perm[i]) : i;
            for (size_t c = 0; c < r; ++c) {
              x_nat[dst * r + c] = x_unpacked[i * r + c];
            }
          }
          if (x_ref != x_nat) bitwise_ok = false;

          std::printf("%-14s %-10s team %2d nrhs %2d "
                      "(tile %2d x%2d): columns %9.3f ms  tiled %9.3f ms "
                      " (%.2fx)\n",
                      entry.name.c_str(), config.name.c_str(), team,
                      static_cast<int>(nrhs),
                      static_cast<int>(row.tile_cols),
                      static_cast<int>(row.num_tiles),
                      row.untiled_seconds * 1e3, row.tiled_seconds * 1e3,
                      row.tiled_speedup);
          rows.push_back(std::move(row));
        }
      }
    }
  }

  std::vector<double> multi_speedups;
  for (const auto& row : rows) {
    if (row.nrhs >= 8 && row.tiled_speedup > 0.0) {
      multi_speedups.push_back(row.tiled_speedup);
    }
  }
  const double multi_geomean =
      multi_speedups.empty() ? 0.0 : harness::geometricMean(multi_speedups);

  std::printf("\nJSON: {\"bench\":\"tiled_multirhs\",%s,"
              "\"schedule_width\":%d,\"reps\":%d,\"results\":[",
              bench::hostMetaJson().c_str(), width, reps);
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    std::printf("%s{\"dataset\":\"%s\",\"matrix\":\"%s\","
                "\"executor\":\"%s\",\"team\":%d,"
                "\"nrhs\":%d,\"tile_cols\":%d,\"num_tiles\":%d,"
                "\"rows\":%lld,\"nnz\":%lld,"
                "\"untiled_seconds\":%.6g,\"tiled_seconds\":%.6g,"
                "\"tiled_speedup\":%.4g,\"bytes_moved\":%zu,\"flops\":%zu}",
                i == 0 ? "" : ",", row.dataset.c_str(), row.matrix.c_str(),
                row.executor.c_str(), row.team,
                static_cast<int>(row.nrhs), static_cast<int>(row.tile_cols),
                static_cast<int>(row.num_tiles), row.rows_n, row.nnz,
                row.untiled_seconds, row.tiled_seconds, row.tiled_speedup,
                row.bytes_moved, row.flops);
  }
  std::printf("],\"multi_rhs_geomean_speedup\":%.4g,\"bitwise_equal\":%s}\n",
              multi_geomean, bitwise_ok ? "true" : "false");

  std::printf("\nclaim under test: every column of the tiled walk is "
              "bitwise identical to a vector\nsolve of that column on every "
              "executor x team x nrhs configuration (speed is\nreported, "
              "not gated).\n");
  std::printf("multi-RHS (nrhs >= 8) tiled geomean speedup: %.2fx\n",
              multi_geomean);
  std::printf(bitwise_ok ? "claim holds.\n" : "claim FAILED.\n");
  return bitwise_ok ? 0 : 1;
}

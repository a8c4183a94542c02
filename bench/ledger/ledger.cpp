/// The layered SpTRSV ledger: one workload per process, every layer timed
/// from outside through its public functions, every timed answer checked
/// outside the timed region.
///
///   ledger --workload paper_sweep --seed 1 --seconds 10 [--trace] [--smoke]
///          [--perturb] [--out DIR]
///
/// Output is one "<workload> <metric> <value> <unit>" line per metric plus
/// "# ..." host lines; run.py turns them into the benchmark's JSON result.
/// --trace adds the per-layer rows and records benchmark-owned spans around
/// every library call, written at exit as Perfetto JSON with a per-layer
/// self-time summary. --perturb corrupts one checked answer, so the
/// correctness gates are seen to fail.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/hdagg.hpp"
#include "core/growlocal.hpp"
#include "core/reorder.hpp"
#include "dag/dag.hpp"
#include "dag/wavefronts.hpp"
#include "datagen/grids.hpp"
#include "datagen/random_matrices.hpp"
#include "engine/solver_engine.hpp"
#include "exec/serial.hpp"
#include "exec/solver.hpp"
#include "exec/spin_barrier.hpp"
#include "exec/tile.hpp"
#include "exec/verify.hpp"
#include "harness/stats.hpp"
#include "obs/trace.hpp"
#include "sparse/ic0.hpp"
#include "sparse/ordering.hpp"

namespace {

using sts::index_t;
using sts::harness::geometricMean;
using sts::exec::TriangularSolver;
using sts::sparse::CsrMatrix;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <class F>
double timeIt(F&& f) {
  const auto t0 = Clock::now();
  f();
  return secondsSince(t0);
}

double median(std::span<const double> v) {
  return sts::harness::quantile(v, 0.5);
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------------ spans --

/// Benchmark-owned spans: name, layer, start, end, parent and (in serve) a
/// request id, kept in memory and written at exit. Recording is single
/// threaded — only the main thread calls into the library.
class Spans {
 public:
  struct Record {
    const char* layer;
    const char* name;
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
    std::int64_t parent;
    std::int64_t request;
  };

  class Scope {
   public:
    Scope(Spans* spans, const char* layer, const char* name,
          std::int64_t request)
        : spans_(spans) {
      if (spans_ != nullptr) id_ = spans_->open(layer, name, request);
    }
    ~Scope() {
      if (spans_ != nullptr) spans_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::size_t id_ = 0;
  };

  void setEnabled(bool on) { enabled_ = on; }

  Scope scope(const char* layer, const char* name, std::int64_t request = -1) {
    return Scope(enabled_ ? this : nullptr, layer, name, request);
  }

  /// A finished interval recorded after the fact (a request's latency from
  /// its due time to its observed completion).
  void record(const char* layer, const char* name, Clock::time_point begin,
              Clock::time_point end, std::int64_t request) {
    if (!enabled_) return;
    records_.push_back({layer, name, sts::obs::toNanos(begin),
                        sts::obs::toNanos(end), parentId(), request});
  }

  /// Self time per layer: each span's duration minus its children's.
  std::map<std::string, double> selfSeconds() const {
    std::vector<double> child(records_.size(), 0.0);
    for (const Record& r : records_) {
      if (r.parent >= 0) {
        child[static_cast<std::size_t>(r.parent)] += durationS(r);
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      self[records_[i].layer] += durationS(records_[i]) - child[i];
    }
    return self;
  }

  bool writePerfetto(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::uint64_t t0 = records_.empty() ? 0 : records_.front().begin_ns;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      const std::uint64_t begin = r.begin_ns >= t0 ? r.begin_ns - t0 : 0;
      std::fprintf(f,
                   "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\","
                   "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                   "\"id\":%zu,\"parent\":%lld,\"request\":%lld}}",
                   i == 0 ? "" : ",", r.request >= 0 ? 2 : 1, r.layer, r.name,
                   static_cast<double>(begin) / 1e3, durationS(r) * 1e6, i,
                   static_cast<long long>(r.parent),
                   static_cast<long long>(r.request));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  static double durationS(const Record& r) {
    return r.end_ns > r.begin_ns
               ? static_cast<double>(r.end_ns - r.begin_ns) / 1e9
               : 0.0;
  }
  std::int64_t parentId() const {
    return stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  }
  std::size_t open(const char* layer, const char* name, std::int64_t request) {
    const std::size_t id = records_.size();
    records_.push_back(
        {layer, name, sts::obs::nowNanos(), 0, parentId(), request});
    stack_.push_back(id);
    return id;
  }
  void close(std::size_t id) {
    records_[id].end_ns = sts::obs::nowNanos();
    stack_.pop_back();
  }

  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<std::size_t> stack_;
};

// -------------------------------------------------------------------- run --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool perturb = false;
  std::string out_dir = ".";
};

/// Process-wide state of one workload run: its team, its spans, and the
/// correctness ledger every checked answer lands in.
struct Run {
  Args args;
  int nproc = 1;
  int team = 1;
  Spans spans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool perturbed = false;
  /// Peak RSS once setup and the first warm-up calls are done (MB).
  double warm_rss_mb = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 5) {
        std::fprintf(stderr, "ledger: wrong answer in %s\n", what.c_str());
      }
    }
  }
  /// --perturb: corrupt the first checked answer of the workload's task.
  void maybePerturb(std::span<double> x) {
    if (args.perturb && !perturbed && !x.empty()) {
      x[0] += 1.0;
      perturbed = true;
    }
  }
  void metric(const std::string& name, double value, const char* unit) const {
    std::printf("%s %s %.12g %s\n", args.workload.c_str(), name.c_str(), value,
                unit);
  }
};

/// Exact solves must match the serial reference to this relative error.
constexpr double kExactTol = 1e-10;

bool matches(std::span<const double> x, std::span<const double> ref) {
  return sts::exec::relMaxAbsDiff(x, ref) <= kExactTol;
}

// ------------------------------------------------------------ timed rows --

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// One timed call plus the check of its answer. Samples are per call.
struct Row {
  std::string name;
  std::function<void()> call;
  std::function<bool()> ok;
  std::vector<double> samples;
  double medianS() const { return median(samples); }
};

/// Time-based repetition: one warm-up call per row, then rows take turns
/// in three rounds, each call timed alone and its answer checked outside
/// the timed interval, until the budget is spent (at least 6 samples).
void measure(Run& run, std::deque<Row>& rows, double budget_s) {
  constexpr int kRounds = 3;
  const double per_turn =
      budget_s / static_cast<double>(rows.size() * kRounds);
  for (Row& row : rows) {
    row.call();
    run.check(row.ok(), row.name);
  }
  if (run.warm_rss_mb == 0) run.warm_rss_mb = peakRssMb();
  for (int round = 0; round < kRounds; ++round) {
    for (Row& row : rows) {
      const auto t0 = Clock::now();
      for (int k = 0; k < 2 || secondsSince(t0) < per_turn; ++k) {
        row.samples.push_back(timeIt(row.call));
        run.check(row.ok(), row.name);
      }
    }
  }
}

// --------------------------------------------------------------- factors --

/// A triangular factor as its user holds it (lower, or upper for L^T).
struct Factor {
  std::string name;
  CsrMatrix matrix;
  bool upper = false;
};

void serialSolve(const Factor& f, std::span<const double> b,
                 std::span<double> x) {
  if (f.upper) {
    sts::exec::solveUpperSerial(f.matrix, b, x);
  } else {
    sts::exec::solveLowerSerial(f.matrix, b, x);
  }
}

/// The lower-triangular form the facade schedules (upper factors are
/// reversed, as TriangularSolver::analyze does).
CsrMatrix lowerForm(const Factor& f) {
  if (!f.upper) return f.matrix;
  const index_t n = f.matrix.rows();
  std::vector<index_t> reversal(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    reversal[static_cast<std::size_t>(i)] = n - 1 - i;
  }
  return f.matrix.symmetricPermuted(reversal);
}

/// Lower triangle of the 7-point Laplacian on an m^3 grid, built row by
/// row (the triplet path of datagen would need several times its memory
/// at the sizes big_stream uses). Same values as
/// grid3dLaplacian7(m, m, m).lowerTriangle().
CsrMatrix grid3dLower7(index_t m) {
  const auto mm = static_cast<std::size_t>(m);
  const std::size_t n = mm * mm * mm;
  std::vector<sts::offset_t> row_ptr(n + 1, 0);
  std::vector<index_t> cols;
  std::vector<double> vals;
  const std::size_t nnz = n + 3 * mm * mm * (mm - 1);
  cols.reserve(nnz);
  vals.reserve(nnz);
  std::size_t v = 0;
  for (std::size_t z = 0; z < mm; ++z) {
    for (std::size_t y = 0; y < mm; ++y) {
      for (std::size_t x = 0; x < mm; ++x, ++v) {
        auto push = [&](std::size_t c, double value) {
          cols.push_back(static_cast<index_t>(c));
          vals.push_back(value);
        };
        if (z > 0) push(v - mm * mm, -1.0);
        if (y > 0) push(v - mm, -1.0);
        if (x > 0) push(v - 1, -1.0);
        push(v, 6.0);
        row_ptr[v + 1] = static_cast<sts::offset_t>(cols.size());
      }
    }
  }
  const auto rows = static_cast<index_t>(n);
  return CsrMatrix(rows, rows, std::move(row_ptr), std::move(cols),
                   std::move(vals));
}

index_t scaledSide(index_t base, double factor) {
  return std::max<index_t>(
      4, static_cast<index_t>(std::lround(static_cast<double>(base) * factor)));
}

/// The seven §6.2 stand-ins at `scale` (1.0 in the benchmark); the two
/// random families draw their structure from the seed.
std::vector<Factor> paperFactors(double scale, std::uint64_t seed) {
  using namespace sts::datagen;
  const double lin2 = std::sqrt(scale);
  const double lin3 = std::cbrt(scale);
  const index_t n_rand = scaledSide(40000, scale);
  const index_t side2 = scaledSide(280, lin2);
  const index_t side7 = scaledSide(42, lin3);
  const index_t side27 = scaledSide(30, lin3);
  const CsrMatrix spd7 = grid3dLaplacian7(side7, side7, side7);

  std::vector<Factor> out;
  out.push_back({"grid2d_5pt", grid2dLaplacian5(side2, side2).lowerTriangle()});
  out.push_back({"grid3d_7pt", spd7.lowerTriangle()});
  out.push_back({"grid3d_27pt",
                 grid3dLaplacian27(side27, side27, side27).lowerTriangle()});
  out.push_back({"er_d25", erdosRenyiLower({.n = n_rand,
                                            .p = 2.0 * 25.0 / n_rand,
                                            .seed = mixSeed(seed, 1)})});
  out.push_back({"nb_p14_b10", narrowBandLower({.n = n_rand,
                                                .p = 0.14,
                                                .b = 10.0,
                                                .seed = mixSeed(seed, 2)})});
  const auto rcm = sts::sparse::reverseCuthillMcKee(spd7);
  out.push_back({"grid3d_7pt_ic0",
                 sts::sparse::incompleteCholesky(spd7.symmetricPermuted(rcm))
                     .lower});
  const auto nd = sts::sparse::nestedDissection(spd7);
  out.push_back({"grid3d_7pt_nd", spd7.symmetricPermuted(nd).lowerTriangle()});
  return out;
}

// -------------------------------------------------------------- prepared --

/// A factor after setup: its analyzed solver, a context, and checked
/// single- and block-RHS inputs with their serial references.
struct Prepared {
  const Factor* factor = nullptr;
  std::shared_ptr<const TriangularSolver> solver;
  std::unique_ptr<sts::exec::SolveContext> ctx;
  double analyze_s = 0.0;  ///< median analyze wall time
  std::vector<double> b, x, x_ref;
  // Block inputs (row-major n x nrhs); built on demand.
  index_t nrhs = 0;
  std::vector<double> bb, bx, bx_ref;

  std::size_t n() const { return static_cast<std::size_t>(solver->numRows()); }
  const std::string& name() const { return factor->name; }
};

sts::exec::SolverOptions solverOptions(int team) {
  sts::exec::SolverOptions opts;
  opts.scheduler = sts::exec::SchedulerKind::kGrowLocal;
  opts.num_threads = team;
  return opts;
}

/// Analyzes `f` at least `reps` times and for at least `min_s` seconds
/// (median wall time kept), then builds its single-RHS input
/// b = T x_true with the serial reference solution.
void prepare(Run& run, Prepared& p, const Factor& f, int team, int reps,
             double min_s, std::uint64_t seed) {
  p.factor = &f;
  std::vector<double> times;
  double total = 0.0;
  for (int r = 0; r < reps || (total < min_s && r < 100); ++r) {
    p.solver.reset();
    std::unique_ptr<TriangularSolver> solver;
    times.push_back(timeIt([&] {
      auto span = run.spans.scope("facade", "analyze");
      solver = std::make_unique<TriangularSolver>(
          TriangularSolver::analyze(f.matrix, solverOptions(team)));
    }));
    total += times.back();
    p.solver = std::move(solver);
  }
  p.analyze_s = median(times);
  p.ctx = p.solver->createContext();
  const auto n = static_cast<std::size_t>(f.matrix.rows());
  p.b = f.matrix.multiply(sts::exec::referenceSolution(f.matrix.rows(), seed));
  p.x.assign(n, 0.0);
  p.x_ref.assign(n, 0.0);
  serialSolve(f, p.b, p.x_ref);
}

void prepareBlock(Prepared& p, index_t nrhs, std::uint64_t seed) {
  const std::size_t n = p.n();
  const auto r = static_cast<std::size_t>(nrhs);
  p.nrhs = nrhs;
  p.bb.assign(n * r, 0.0);
  p.bx.assign(n * r, 0.0);
  p.bx_ref.assign(n * r, 0.0);
  std::vector<double> col(n);
  for (std::size_t c = 0; c < r; ++c) {
    const auto bc = p.factor->matrix.multiply(sts::exec::referenceSolution(
        p.solver->numRows(), mixSeed(seed, 1000 + c)));
    serialSolve(*p.factor, bc, col);
    for (std::size_t i = 0; i < n; ++i) {
      p.bb[i * r + c] = bc[i];
      p.bx_ref[i * r + c] = col[i];
    }
  }
}

/// Facade single-RHS solve at `team`. `task` marks the workload's task
/// row, whose answer --perturb corrupts.
Row solveRow(Run& run, Prepared& p, int team, bool task = false) {
  return {p.name() + ".solve",
          [&run, &p, team] {
            auto span = run.spans.scope("facade", "solve");
            p.solver->solve(p.b, p.x, *p.ctx, team);
          },
          [&run, &p, task] {
            if (task) run.maybePerturb(p.x);
            return matches(p.x, p.x_ref);
          },
          {}};
}

/// Facade block solve of the prepared nrhs columns at `team`.
Row tiledRow(Run& run, Prepared& p, int team, bool task = false) {
  return {p.name() + ".tiled",
          [&run, &p, team] {
            auto span = run.spans.scope("facade", "solveMultiRhsTiled");
            const auto& o = p.solver->options();
            p.solver->solveMultiRhsTiled(p.bb, p.bx, p.nrhs, *p.ctx, team,
                                         o.fold_policy, o.storage);
          },
          [&run, &p, task] {
            if (task) run.maybePerturb(p.bx);
            return matches(p.bx, p.bx_ref);
          },
          {}};
}

// ------------------------------------------------------------ exec layer --

/// Buffers for the exec-layer rows of one factor: the same inputs in the
/// solver's internal (schedule-permuted) order, single and tiled.
struct ExecBuffers {
  std::vector<double> bp, xp, xs, spmv_out;
  sts::exec::TileLayout layout;
  std::vector<double> bt, xt, unpacked;
};

std::vector<double> toInternal(const Prepared& p, std::span<const double> v,
                               std::size_t width) {
  const auto perm = p.solver->permutation();
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < p.n(); ++i) {
    const auto old = static_cast<std::size_t>(perm[i]);
    for (std::size_t c = 0; c < width; ++c) {
      out[i * width + c] = v[old * width + c];
    }
  }
  return out;
}

bool matchesInternal(const Prepared& p, std::span<const double> internal,
                     std::span<const double> ref, std::size_t width) {
  return matches(toInternal(p, ref, width), internal);
}

/// The per-layer rows of one factor: serial kernel, permuted-order solves
/// at team 1 and T, tiles without the facade's pack, and an SpMV.
std::vector<Row> execRows(Run& run, Prepared& p, ExecBuffers& eb, int team) {
  const std::size_t n = p.n();
  eb.bp = toInternal(p, p.b, 1);
  eb.xp.assign(n, 0.0);
  eb.xs.assign(n, 0.0);
  eb.layout = p.solver->tileLayout(p.nrhs);
  const auto r = static_cast<std::size_t>(p.nrhs);
  eb.bt.assign(n * r, 0.0);
  eb.xt.assign(n * r, 0.0);
  eb.unpacked.assign(n * r, 0.0);
  eb.layout.pack(toInternal(p, p.bb, r), eb.bt);

  std::vector<Row> rows;
  rows.push_back({p.name() + ".serial",
                  [&run, &p, &eb] {
                    auto span = run.spans.scope("exec", "solveSerial");
                    serialSolve(*p.factor, p.b, eb.xs);
                  },
                  [&p, &eb] { return matches(eb.xs, p.x_ref); },
                  {}});
  for (const int t : {1, team}) {
    rows.push_back({p.name() + ".permuted.t" + std::to_string(t),
                    [&run, &p, &eb, t] {
                      auto span = run.spans.scope("exec", "solvePermuted");
                      p.solver->solvePermuted(eb.bp, eb.xp, *p.ctx, t);
                    },
                    [&p, &eb] { return matchesInternal(p, eb.xp, p.x_ref, 1); },
                    {}});
  }
  rows.push_back({p.name() + ".tiles",
                  [&run, &p, &eb, team] {
                    auto span = run.spans.scope("exec", "solveTiles");
                    const auto& o = p.solver->options();
                    p.solver->solveTiles(eb.bt, eb.xt, eb.layout, *p.ctx, team,
                                         o.fold_policy, o.storage);
                  },
                  [&p, &eb, r] {
                    eb.layout.unpack(eb.xt, eb.unpacked);
                    return matchesInternal(p, eb.unpacked, p.bx_ref, r);
                  },
                  {}});
  rows.push_back({p.name() + ".spmv",
                  [&run, &p, &eb] {
                    auto span = run.spans.scope("sparse", "multiply");
                    eb.spmv_out = p.factor->matrix.multiply(p.x_ref);
                  },
                  [&p, &eb] { return matches(eb.spmv_out, p.b); },
                  {}});
  return rows;
}

/// L of the BSP cost model: one crossing of exec::SpinBarrier by `team`
/// OpenMP threads, in microseconds.
double barrierMicros(int team, int crossings) {
  sts::exec::SpinBarrier barrier(team);
  const double s = timeIt([&] {
#pragma omp parallel num_threads(team)
    {
      int sense = barrier.initialSense();
      for (int i = 0; i < crossings; ++i) barrier.wait(sense, team);
    }
  });
  return s / crossings * 1e6;
}

/// STREAM triad at `team` threads on three arrays of `doubles` each.
double streamGbs(int team, std::size_t doubles) {
  std::vector<double> a(doubles), b(doubles), c(doubles);
  const auto n = static_cast<std::ptrdiff_t>(doubles);
#pragma omp parallel for num_threads(team) schedule(static)
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i)] = 0.0;
    b[static_cast<std::size_t>(i)] = 1.0;
    c[static_cast<std::size_t>(i)] = 2.0;
  }
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    times.push_back(timeIt([&] {
#pragma omp parallel for num_threads(team) schedule(static)
      for (std::ptrdiff_t i = 0; i < n; ++i) {
        const auto k = static_cast<std::size_t>(i);
        a[k] = b[k] + 3.0 * c[k];
      }
    }));
  }
  if (a[doubles / 2] != 7.0) throw std::runtime_error("stream triad: bad sum");
  return 24.0 * static_cast<double>(doubles) / median(times) / 1e9;
}

// ----------------------------------------------------- layer bookkeeping --

/// Setup of one factor split into its layers, each the median of `reps`.
struct LayerSetup {
  double dag_s = 0, schedule_s = 0, reorder_s = 0;
  double wavefronts = 0, hdagg_supersteps = 0;
};

LayerSetup timeLayers(Run& run, const Factor& f, int team, int reps) {
  const CsrMatrix lower = lowerForm(f);
  sts::core::GrowLocalOptions gl = solverOptions(team).growlocal;
  gl.num_cores = team;
  std::vector<double> dag_t, sched_t, reorder_t;
  LayerSetup out;
  for (int r = 0; r < reps; ++r) {
    sts::dag::Dag dag;
    sts::core::Schedule schedule;
    dag_t.push_back(timeIt([&] {
      auto span = run.spans.scope("dag", "fromLowerTriangular");
      dag = sts::dag::Dag::fromLowerTriangular(lower);
    }));
    sched_t.push_back(timeIt([&] {
      auto span = run.spans.scope("core", "growLocalSchedule");
      schedule = sts::core::growLocalSchedule(dag, gl);
    }));
    reorder_t.push_back(timeIt([&] {
      auto span = run.spans.scope("core", "reorderForLocality");
      (void)sts::core::reorderForLocality(lower, schedule);
    }));
    if (r == 0) {
      auto span = run.spans.scope("dag", "computeWavefronts");
      out.wavefronts =
          static_cast<double>(sts::dag::computeWavefronts(dag).num_levels);
      auto hspan = run.spans.scope("baselines", "hdaggSchedule");
      sts::baselines::HdaggOptions ho;
      ho.num_cores = team;
      out.hdagg_supersteps = static_cast<double>(
          sts::baselines::hdaggSchedule(dag, ho).numSupersteps());
    }
  }
  out.dag_s = median(dag_t);
  out.schedule_s = median(sched_t);
  out.reorder_s = median(reorder_t);
  return out;
}

/// Accumulates the per-layer metrics over a workload's factors: setup
/// times and counts sum, solve times combine as geometric means (as the
/// end-to-end solve_ms does).
struct LayerLedger {
  double dag_s = 0, schedule_s = 0, reorder_s = 0;
  double wavefronts = 0, supersteps = 0, makespan = 0, hdagg = 0;
  std::vector<double> imbalance, serial, t1, tT, solve, tiled_rhs, tiles_rhs,
      spmv, kernel_gbs, bytes_per_s, model, work_term;
  double barrier_us = 0;

  void addSetup(const LayerSetup& s) {
    dag_s += s.dag_s;
    schedule_s += s.schedule_s;
    reorder_s += s.reorder_s;
    wavefronts += s.wavefronts;
    hdagg += s.hdagg_supersteps;
  }

  /// rows: serial, permuted.t1, permuted.tT, tiles, spmv (execRows order).
  void addExec(const Prepared& p, const std::vector<Row>& rows, double solve_s,
               double tiled_s) {
    const auto& st = p.solver->stats();
    const auto& o = p.solver->options();
    const double t1_s = rows[1].medianS();
    const double tT_s = rows[2].medianS();
    const double bytes =
        static_cast<double>(p.solver->storageBytesMoved(1, o.fold_policy,
                                                        o.storage)) +
        16.0 * static_cast<double>(p.n());
    const double per_work = t1_s / static_cast<double>(st.total_work);
    const double work = static_cast<double>(st.makespan_work) * per_work;
    supersteps += static_cast<double>(st.supersteps);
    makespan += static_cast<double>(st.makespan_work);
    imbalance.push_back(st.imbalance);
    serial.push_back(rows[0].medianS());
    t1.push_back(t1_s);
    tT.push_back(tT_s);
    solve.push_back(solve_s);
    tiled_rhs.push_back(tiled_s / static_cast<double>(p.nrhs));
    tiles_rhs.push_back(rows[3].medianS() / static_cast<double>(p.nrhs));
    spmv.push_back(rows[4].medianS());
    kernel_gbs.push_back(bytes / t1_s / 1e9);
    bytes_per_s.push_back(bytes / tT_s);
    work_term.push_back(work);
    model.push_back(work +
                    static_cast<double>(st.barriers) * barrier_us * 1e-6);
  }

  void emit(const Run& run, double stream_gbs) const {
    const double serial_s = geometricMean(serial);
    const double solve_s = geometricMean(solve);
    const double t_s = geometricMean(tT);
    const double model_s = geometricMean(model);
    run.metric("dag.build_s", dag_s, "s");
    run.metric("dag.wavefronts", wavefronts, "count");
    run.metric("core.schedule_s", schedule_s, "s");
    run.metric("core.reorder_s", reorder_s, "s");
    run.metric("core.supersteps", supersteps, "count");
    run.metric("core.barrier_reduction", wavefronts / supersteps, "ratio");
    run.metric("core.makespan_work", makespan, "count");
    run.metric("core.imbalance", geometricMean(imbalance), "ratio");
    run.metric("baselines.hdagg_supersteps", hdagg, "count");
    run.metric("core.barrier_reduction_vs_hdagg", hdagg / supersteps, "ratio");
    run.metric("exec.serial_ms", serial_s * 1e3, "ms");
    run.metric("exec.kernel_gbs", geometricMean(kernel_gbs), "GB/s");
    run.metric("exec.stream_gbs", stream_gbs, "GB/s");
    run.metric("exec.bw_frac", geometricMean(bytes_per_s) / 1e9 / stream_gbs,
               "ratio");
    run.metric("exec.speedup_vs_serial", serial_s / solve_s, "ratio");
    run.metric("exec.permuted_ms.t1", geometricMean(t1) * 1e3, "ms");
    run.metric("exec.permuted_ms.tT", t_s * 1e3, "ms");
    run.metric("exec.barrier_us", barrier_us, "us");
    run.metric("exec.model_ms", model_s * 1e3, "ms");
    run.metric("exec.model_ratio", t_s / model_s, "ratio");
    run.metric("exec.sync_ms", (t_s - geometricMean(work_term)) * 1e3, "ms");
    run.metric("facade.permute_ms", (solve_s - t_s) * 1e3, "ms");
    run.metric("facade.pack_ms",
               (geometricMean(tiled_rhs) - geometricMean(tiles_rhs)) * 1e3,
               "ms");
  }
};

// --------------------------------------------------------------- helpers --


unsigned long long memAvailableBytes() {
  std::ifstream meminfo("/proc/meminfo");
  std::string key;
  unsigned long long kb = 0;
  std::string unit;
  while (meminfo >> key >> kb >> unit) {
    if (key == "MemAvailable:") return kb * 1024ULL;
  }
  return 0;
}

/// Stream arrays of at least 4x the last-level cache, in doubles.
std::size_t streamDoubles(const Run& run) {
  if (run.args.smoke) return std::size_t{1} << 20;
  return 4 * sts::exec::cacheGeometry().l3_bytes / sizeof(double) + 1;
}

void finishTrace(Run& run, double task_untraced, double task_traced) {
  run.metric("obs.trace_overhead", task_traced / task_untraced, "ratio");
  for (const auto& [layer, s] : run.spans.selfSeconds()) {
    run.metric("selftime_s." + layer, s, "s");
  }
  const std::string path =
      run.args.out_dir + "/" + run.args.workload + ".spans.json";
  if (!run.spans.writePerfetto(path)) {
    std::fprintf(stderr, "ledger: cannot write %s\n", path.c_str());
  }
  std::printf("# spans %s\n", path.c_str());
}

/// Runs the per-layer rows of `factors` at `team` plus `extra` rows; the
/// facade single-RHS and tiled rows are included per factor.
void layerPass(Run& run, std::deque<Prepared>& factors, int team,
               std::deque<Row>& extra, double budget_s, LayerLedger& ledger) {
  std::deque<ExecBuffers> bufs(factors.size());
  std::deque<Row> rows;
  std::vector<std::size_t> first;  // index of each factor's first row
  for (std::size_t i = 0; i < factors.size(); ++i) {
    Prepared& p = factors[i];
    first.push_back(rows.size());
    rows.push_back(solveRow(run, p, team));
    rows.push_back(tiledRow(run, p, team));
    for (Row& r : execRows(run, p, bufs[i], team)) rows.push_back(std::move(r));
  }
  const std::size_t n_factor_rows = rows.size();
  for (Row& r : extra) rows.push_back(std::move(r));
  measure(run, rows, budget_s);
  for (std::size_t i = 0; i < factors.size(); ++i) {
    const std::size_t k = first[i];
    const auto first_exec = rows.begin() + static_cast<std::ptrdiff_t>(k + 2);
    std::vector<Row> exec_rows(first_exec, first_exec + 5);
    ledger.addExec(factors[i], exec_rows, rows[k].medianS(),
                   rows[k + 1].medianS());
  }
  // Hand the extra rows (with their samples) back to the caller.
  extra.clear();
  for (std::size_t k = n_factor_rows; k < rows.size(); ++k) {
    extra.push_back(std::move(rows[k]));
  }
}

// ------------------------------------------------------------- workloads --

struct Sizes {
  double paper_scale = 1.0;
  index_t iccg_side = 64;
  index_t serve_side = 42;
  /// Analyses per factor: at least this many, and at least
  /// setup_min_s seconds of them, so small setups get a steady median.
  int setup_reps = 5;
  double setup_min_s = 0.5;
};

Sizes sizesFor(const Args& args) {
  Sizes s;
  if (args.smoke) {
    s.paper_scale = 0.02;
    s.iccg_side = 12;
    s.serve_side = 12;
    s.setup_reps = 2;
    s.setup_min_s = 0.0;
  }
  return s;
}

/// Setup shared by every workload: analyzes each factor and returns the
/// summed median analyze times; traced runs add the per-layer split of
/// the same work.
double setupFactors(Run& run, const Sizes& sizes,
                    const std::vector<Factor>& factors,
                    std::deque<Prepared>& out, int team, LayerLedger* layers) {
  double setup = 0.0;
  for (std::size_t i = 0; i < factors.size(); ++i) {
    out.emplace_back();
    prepare(run, out.back(), factors[i], team, sizes.setup_reps,
            sizes.setup_min_s, mixSeed(run.args.seed, 100 + i));
    setup += out.back().analyze_s;
    if (layers != nullptr) {
      layers->addSetup(timeLayers(run, factors[i], team, sizes.setup_reps));
    }
  }
  return setup;
}

int paperSweep(Run& run, const Sizes& sizes) {
  const std::vector<Factor> factors =
      paperFactors(sizes.paper_scale, run.args.seed);
  std::deque<Prepared> prepared;
  LayerLedger layers;
  run.metric("setup_s",
             setupFactors(run, sizes, factors, prepared, run.team,
                          run.args.trace ? &layers : nullptr),
             "s");
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    prepareBlock(prepared[i], 16, mixSeed(run.args.seed, 200 + i));
  }

  std::deque<Row> rows;
  for (Prepared& p : prepared) {
    rows.push_back(solveRow(run, p, run.team));
    rows.push_back(tiledRow(run, p, run.team, true));
  }
  run.spans.setEnabled(false);
  measure(run, rows, run.args.seconds * (run.args.trace ? 0.3 : 1.0));
  std::vector<double> solve, task;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    solve.push_back(rows[2 * i].medianS());
    task.push_back(rows[2 * i + 1].medianS() / 16.0);
    run.metric("solve_ms." + prepared[i].name(), solve.back() * 1e3, "ms");
    run.metric("block_ms_per_rhs." + prepared[i].name(), task.back() * 1e3,
               "ms");
  }
  run.metric("solve_ms", geometricMean(solve) * 1e3, "ms");
  run.metric("task_ms", geometricMean(task) * 1e3, "ms");
  if (!run.args.trace) return 0;

  layers.barrier_us = barrierMicros(run.team, 100000);
  const double stream = streamGbs(run.team, streamDoubles(run));
  run.spans.setEnabled(true);
  std::deque<Row> none;
  layerPass(run, prepared, run.team, none, run.args.seconds * 0.7, layers);
  layers.emit(run, stream);
  run.metric("sparse.spmv_ms", geometricMean(layers.spmv) * 1e3, "ms");
  run.metric("app.solve_frac",
             geometricMean(layers.tiles_rhs) / geometricMean(layers.tiled_rhs),
             "ratio");
  finishTrace(run, geometricMean(task), geometricMean(layers.tiled_rhs));
  return 0;
}

/// Computed bytes one sweep of grid3dLower7(side) streams from the matrix.
std::size_t gridLower7Bytes(index_t side) {
  const auto m = static_cast<std::size_t>(side);
  const std::size_t n = m * m * m;
  return sts::exec::csrBytesMoved(
      static_cast<index_t>(n),
      static_cast<sts::offset_t>(n + 3 * m * m * (m - 1)));
}

int bigStream(Run& run, Sizes sizes) {
  const auto& cache = sts::exec::cacheGeometry();
  index_t side = 16;
  if (!run.args.smoke) {
    if (!cache.detected) {
      std::fprintf(stderr, "ledger: big_stream needs the L3 size from sysfs; "
                           "none was detected\n");
      return 3;
    }
    // Smallest grid whose computed matrix stream is at least 4x L3.
    const std::size_t target = 4 * cache.l3_bytes;
    side = 8;
    while (gridLower7Bytes(side) < target) ++side;
    const std::size_t bytes = gridLower7Bytes(side);
    // Original + analysis copy + DAG + reordered matrix + vectors.
    const unsigned long long need = 5ULL * bytes;
    const unsigned long long avail = memAvailableBytes();
    std::printf("# big_stream side=%d matrix_bytes=%zu l3x4=%zu "
                "need_bytes=%llu mem_available_bytes=%llu\n",
                side, bytes, target, need, avail);
    if (avail < need) {
      std::fprintf(stderr, "ledger: big_stream needs ~%llu bytes of memory, "
                           "%llu available; refusing to shrink the input\n",
                   need, avail);
      return 3;
    }
  }
  const double stream = run.args.trace
                            ? streamGbs(run.team, streamDoubles(run))
                            : 0.0;
  std::vector<Factor> factors;
  factors.push_back({"grid3d_7pt_" + std::to_string(side), grid3dLower7(side)});
  const auto& f = factors.front();
  run.metric("matrix_bytes",
             static_cast<double>(sts::exec::csrBytesMoved(f.matrix.rows(),
                                                          f.matrix.nnz())),
             "B");
  std::deque<Prepared> prepared;
  LayerLedger layers;
  // Each analysis takes seconds here; traced runs, which time the layers
  // of every analysis as well, keep to three.
  if (run.args.trace && !run.args.smoke) sizes.setup_reps = 3;
  run.metric("setup_s",
             setupFactors(run, sizes, factors, prepared, run.team,
                          run.args.trace ? &layers : nullptr),
             "s");

  std::deque<Row> rows;
  rows.push_back(solveRow(run, prepared.front(), run.team, true));
  run.spans.setEnabled(false);
  measure(run, rows, run.args.seconds * (run.args.trace ? 0.3 : 1.0));
  const double solve = rows.front().medianS();
  run.metric("solve_ms", solve * 1e3, "ms");
  run.metric("task_ms", solve * 1e3, "ms");
  if (!run.args.trace) return 0;

  // Two RHS, not 16: sixteen 8 M-row columns would need gigabytes.
  prepareBlock(prepared.front(), 2, mixSeed(run.args.seed, 200));
  layers.barrier_us = barrierMicros(run.team, 100000);
  run.spans.setEnabled(true);
  std::deque<Row> none;
  layerPass(run, prepared, run.team, none, run.args.seconds * 0.7, layers);
  layers.emit(run, stream);
  run.metric("sparse.spmv_ms", layers.spmv.front() * 1e3, "ms");
  run.metric("app.solve_frac", layers.tT.front() / layers.solve.front(),
             "ratio");
  finishTrace(run, solve, layers.solve.front());
  return 0;
}

// ------------------------------------------------------------------ iccg --

struct CgResult {
  int iterations = 0;
  bool converged = false;
  std::vector<double> x;
  double precond_s = 0, spmv_s = 0, total_s = 0;
};

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// IC(0)-preconditioned CG to relative residual `tol`; each apply is a
/// facade solve on L, then one on L^T.
CgResult runCg(Run& run, const CsrMatrix& a, const std::vector<double>& b,
               Prepared& fwd, Prepared& bwd, double tol) {
  auto cg_span = run.spans.scope("app", "cg");
  const auto start = Clock::now();
  const std::size_t n = b.size();
  CgResult res;
  res.x.assign(n, 0.0);
  std::vector<double> r = b, z(n), p(n), tmp(n), ap;
  auto apply = [&] {
    const auto t0 = Clock::now();
    auto span = run.spans.scope("app", "precond_apply");
    {
      auto s = run.spans.scope("facade", "solve");
      fwd.solver->solve(r, tmp, *fwd.ctx, run.team);
    }
    {
      auto s = run.spans.scope("facade", "solve");
      bwd.solver->solve(tmp, z, *bwd.ctx, run.team);
    }
    res.precond_s += secondsSince(t0);
  };
  apply();
  p = z;
  double rz = dot(r, z);
  const double r0 = std::sqrt(dot(r, r));
  for (res.iterations = 1; res.iterations <= 1000; ++res.iterations) {
    {
      const auto t0 = Clock::now();
      auto span = run.spans.scope("sparse", "multiply");
      ap = a.multiply(p);
      res.spmv_s += secondsSince(t0);
    }
    const double alpha = rz / dot(p, ap);
    for (std::size_t i = 0; i < n; ++i) {
      res.x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    if (std::sqrt(dot(r, r)) / r0 < tol) {
      res.converged = true;
      break;
    }
    apply();
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  res.total_s = secondsSince(start);
  return res;
}

int iccg(Run& run, const Sizes& sizes) {
  constexpr double kTol = 1e-8;
  const index_t side = sizes.iccg_side;
  const CsrMatrix a = sts::datagen::grid3dLaplacian7(side, side, side);
  const CsrMatrix l = sts::sparse::incompleteCholesky(a).lower;
  std::vector<Factor> factors;
  factors.push_back({"ic0_L", l});
  factors.push_back({"ic0_Lt", l.transposed(), true});
  std::deque<Prepared> prepared;
  LayerLedger layers;
  run.metric("setup_s",
             setupFactors(run, sizes, factors, prepared, run.team,
                          run.args.trace ? &layers : nullptr),
             "s");
  const std::vector<double> b = a.multiply(
      sts::exec::referenceSolution(a.rows(), mixSeed(run.args.seed, 300)));
  const double b_norm = std::sqrt(dot(b, b));

  int expected_iters = 0;
  CgResult last;
  auto cgRow = [&] {
    return Row{"cg",
               [&] { last = runCg(run, a, b, prepared[0], prepared[1], kTol); },
               [&] {
                 run.maybePerturb(last.x);
                 const auto ax = a.multiply(last.x);
                 double rr = 0.0;
                 for (std::size_t i = 0; i < b.size(); ++i) {
                   rr += (b[i] - ax[i]) * (b[i] - ax[i]);
                 }
                 if (expected_iters == 0) expected_iters = last.iterations;
                 return last.converged && std::sqrt(rr) / b_norm <= 10 * kTol &&
                        last.iterations == expected_iters;
               },
               {}};
  };

  std::deque<Row> rows;
  rows.push_back(cgRow());
  rows.push_back(solveRow(run, prepared[0], run.team));
  rows.push_back(solveRow(run, prepared[1], run.team));
  run.spans.setEnabled(false);
  measure(run, rows, run.args.seconds * (run.args.trace ? 0.4 : 1.0));
  const double cg_s = rows[0].medianS();
  const std::vector<double> solves = {rows[1].medianS(), rows[2].medianS()};
  run.metric("solve_ms", geometricMean(solves) * 1e3, "ms");
  run.metric("task_ms", cg_s * 1e3, "ms");
  run.metric("app.iccg_iters", expected_iters, "count");
  if (!run.args.trace) return 0;

  for (std::size_t i = 0; i < prepared.size(); ++i) {
    prepareBlock(prepared[i], 16, mixSeed(run.args.seed, 200 + i));
  }
  layers.barrier_us = barrierMicros(run.team, 100000);
  const double stream = streamGbs(run.team, streamDoubles(run));
  run.spans.setEnabled(true);
  std::deque<Row> extra;
  extra.push_back(cgRow());
  layerPass(run, prepared, run.team, extra, run.args.seconds * 0.6, layers);
  layers.emit(run, stream);
  run.metric("sparse.spmv_ms",
             last.spmv_s / static_cast<double>(last.iterations) * 1e3, "ms");
  run.metric("app.solve_frac", last.precond_s / last.total_s, "ratio");
  finishTrace(run, cg_s, extra.front().medianS());
  return 0;
}

// ----------------------------------------------------------------- serve --

constexpr double kServeRate = 250.0;        ///< open loop, requests/s
constexpr std::size_t kOutstanding = 8;     ///< closed loop, in flight

/// Right-hand sides the serving phases cycle through, with references.
struct RhsPool {
  std::vector<std::vector<double>> b, x;
};

/// What serving phases measured, summed over the phases, with the
/// engine's own stats over the same intervals.
struct Phase {
  std::vector<double> latency_ms;  ///< open loop: from each due time
  std::vector<double> submit_us;   ///< time inside submit()
  double late_max_ms = 0;          ///< how late the generator ran
  std::uint64_t completed_in_window = 0;
  double window_s = 0;
  double rhs = 0, batches = 0, busy_s = 0, pack_s = 0, unpack_s = 0;

  /// serve_open: p50 latency from the due time. serve_closed: wall time
  /// per completed right-hand side.
  double taskMs(bool open) const {
    return open ? median(latency_ms)
                : window_s * 1e3 / static_cast<double>(completed_in_window);
  }
};

/// One serving phase, driven from this (the generator) thread, which also
/// collects completions by polling only the in-flight window. Open loop:
/// Poisson arrivals at kServeRate, each timed from its due time. Closed
/// loop: kOutstanding requests kept in flight. Every future must resolve;
/// every 16th response is checked against its serial reference. Adds its
/// measurements to `ph`.
void servePhase(Run& run, sts::engine::SolverEngine& engine,
                sts::engine::SolverId id, const RhsPool& pool, bool open,
                double seconds, std::uint64_t seed, Phase& ph) {
  struct InFlight {
    std::future<std::vector<double>> future;
    Clock::time_point due;
    std::size_t rhs;
    std::uint64_t request;
  };
  auto after = [](Clock::time_point t, double s) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(s));
  };
  const sts::engine::SolverServingStats before = engine.stats(id);
  std::vector<InFlight> inflight;
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(kServeRate);
  const auto t0 = Clock::now();
  const auto end = after(t0, seconds);
  const auto give_up = after(end, 10.0);
  auto next_due = open ? after(t0, gap(rng)) : t0;
  std::uint64_t request = 0;
  // Answers come back as fresh vectors; reusing them as the next requests'
  // right-hand sides keeps the client from growing the heap it shares
  // with the engine, so peak RSS measures the engine.
  std::vector<std::vector<double>> spare;
  auto nextRhs = [&]() -> std::vector<double> {
    const std::vector<double>& src = pool.b[request % pool.b.size()];
    if (spare.empty()) return src;
    std::vector<double> v = std::move(spare.back());
    spare.pop_back();
    v.assign(src.begin(), src.end());
    return v;
  };
  std::vector<double> next_b = nextRhs();

  auto submit = [&](Clock::time_point due) {
    const auto s0 = Clock::now();
    if (open) {
      const double late_ms =
          std::chrono::duration<double>(s0 - due).count() * 1e3;
      ph.late_max_ms = std::max(ph.late_max_ms, late_ms);
    }
    std::future<std::vector<double>> future;
    {
      auto span = run.spans.scope("engine", "submit",
                                  static_cast<std::int64_t>(request));
      future = engine.submit(id, std::move(next_b));
    }
    ph.submit_us.push_back(secondsSince(s0) * 1e6);
    inflight.push_back({std::move(future), open ? due : s0,
                        request % pool.b.size(), request});
    ++request;
    next_b = nextRhs();  // ready before the next due time
  };

  for (;;) {
    const auto now = Clock::now();
    if (now < end) {
      if (open) {
        while (now >= next_due) {
          submit(next_due);
          next_due = after(next_due, gap(rng));
        }
      } else {
        while (inflight.size() < kOutstanding) submit(now);
      }
    }
    for (std::size_t i = 0; i < inflight.size();) {
      InFlight& f = inflight[i];
      if (f.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const auto done = Clock::now();
      run.spans.record("engine", "request", f.due, done,
                       static_cast<std::int64_t>(f.request));
      if (open) {
        ph.latency_ms.push_back(
            std::chrono::duration<double>(done - f.due).count() * 1e3);
      } else if (done <= end) {
        ++ph.completed_in_window;
      }
      try {
        std::vector<double> x = f.future.get();
        if (f.request % 16 == 0) {
          run.maybePerturb(x);
          run.check(matches(x, pool.x[f.rhs]), "serve response");
        }
        spare.push_back(std::move(x));
      } catch (const std::exception& e) {
        run.check(false, std::string("serve request: ") + e.what());
      }
      f = std::move(inflight.back());
      inflight.pop_back();
    }
    if (now >= end && inflight.empty()) break;
    // Polling yields rather than sleeps: completions are seen within
    // microseconds, and OS work can still run on the generator's core.
    std::this_thread::yield();
    if (now >= give_up) {
      for (std::size_t i = 0; i < inflight.size(); ++i) {
        run.check(false, "serve request timed out");
      }
      break;
    }
  }
  engine.drain();
  const sts::engine::SolverServingStats after_stats = engine.stats(id);
  ph.window_s += std::chrono::duration<double>(end - t0).count();
  ph.rhs += static_cast<double>(after_stats.rhs_solved - before.rhs_solved);
  ph.batches += static_cast<double>(after_stats.batches - before.batches);
  ph.busy_s += after_stats.busy_seconds - before.busy_seconds;
  ph.pack_s += after_stats.pack_seconds - before.pack_seconds;
  ph.unpack_s += after_stats.unpack_seconds - before.unpack_seconds;
}

/// Median span duration, in microseconds, of each engine lifecycle stage
/// in an obs::TraceSession's Perfetto JSON.
std::map<std::string, double> stageP50Us(const std::string& json) {
  std::map<std::string, std::vector<double>> durs;
  const std::string key = "\"cat\":\"engine\",\"name\":\"";
  for (std::size_t pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos + 1)) {
    const std::size_t name_begin = pos + key.size();
    const std::size_t name_end = json.find('"', name_begin);
    const std::size_t obj_end = json.find('}', name_end);
    const std::size_t dur = json.find("\"dur\":", name_end);
    if (dur == std::string::npos || dur > obj_end) continue;  // an instant
    durs[json.substr(name_begin, name_end - name_begin)].push_back(
        std::strtod(json.c_str() + dur + 6, nullptr));
  }
  std::map<std::string, double> out;
  for (auto& [name, v] : durs) out[name] = median(v);
  return out;
}

/// serve_open / serve_closed: one engine worker whose team is every core
/// but the one the generator thread spins on.
int serve(Run& run, const Sizes& sizes, bool open) {
  const int team = std::max(1, run.nproc - 1);
  const index_t side = sizes.serve_side;
  std::vector<Factor> factors;
  factors.push_back(
      {"grid3d_7pt",
       sts::datagen::grid3dLaplacian7(side, side, side).lowerTriangle()});
  sts::engine::EngineOptions eo;
  eo.num_workers = 1;
  eo.team_size = team;
  sts::engine::SolverEngine engine(eo);

  std::deque<Prepared> prepared;
  LayerLedger layers;
  const double analyze_s = setupFactors(run, sizes, factors, prepared, team,
                                        run.args.trace ? &layers : nullptr);
  Prepared& p = prepared.front();
  sts::engine::SolverId id = 0;
  std::vector<double> register_s;
  for (int r = 0; r < sizes.setup_reps; ++r) {
    register_s.push_back(timeIt([&] {
      auto span = run.spans.scope("engine", "registerSolver");
      id = engine.registerSolver(p.solver);
    }));
  }
  run.metric("setup_s", analyze_s + median(register_s), "s");

  RhsPool pool;
  for (std::size_t k = 0; k < 16; ++k) {
    pool.b.push_back(factors[0].matrix.multiply(sts::exec::referenceSolution(
        factors[0].matrix.rows(), mixSeed(run.args.seed, 400 + k))));
    pool.x.emplace_back(pool.b.back().size());
    serialSolve(factors[0], pool.b.back(), pool.x.back());
  }

  // The facade solve and the serving phase take turns, three times, so
  // both see the same spread of host conditions.
  const double share = run.args.trace ? 0.4 : 1.0;
  std::deque<Row> rows;
  rows.push_back(solveRow(run, p, team));
  run.spans.setEnabled(false);
  Phase ph;
  for (std::uint64_t round = 0; round < 3; ++round) {
    measure(run, rows, run.args.seconds * share * 0.05);
    servePhase(run, engine, id, pool, open, run.args.seconds * share * 0.85 / 3,
               mixSeed(run.args.seed, 500 + round), ph);
  }
  const double solve_ms = rows.front().medianS() * 1e3;
  const double task_ms = ph.taskMs(open);
  run.metric("solve_ms", solve_ms, "ms");
  run.metric("task_ms", task_ms, "ms");
  if (open) {
    run.metric("serve.p99_ms", sts::harness::quantile(ph.latency_ms, 0.99),
               "ms");
    run.metric("serve.samples", static_cast<double>(ph.latency_ms.size()),
               "count");
    run.metric("gen.late_max_ms", ph.late_max_ms, "ms");
    run.metric("engine.overhead_ms", task_ms - solve_ms, "ms");
  } else {
    run.metric("serve.rhs_per_s",
               static_cast<double>(ph.completed_in_window) / ph.window_s,
               "1/s");
  }
  run.metric("engine.submit_us", median(ph.submit_us), "us");
  run.metric("engine.mean_batch_rhs", ph.rhs / ph.batches, "count");
  run.metric("engine.busy_frac", ph.busy_s / ph.window_s, "ratio");
  run.metric("engine.ms_per_rhs", ph.busy_s / ph.rhs * 1e3, "ms");
  run.metric("engine.pack_ms", ph.pack_s / ph.batches * 1e3, "ms");
  run.metric("engine.unpack_ms", ph.unpack_s / ph.batches * 1e3, "ms");
  if (!run.args.trace) return 0;

  prepareBlock(p, 16, mixSeed(run.args.seed, 200));
  layers.barrier_us = barrierMicros(team, 100000);
  const double stream = streamGbs(team, streamDoubles(run));
  run.spans.setEnabled(true);
  std::deque<Row> none;
  layerPass(run, prepared, team, none, run.args.seconds * 0.15, layers);
  layers.emit(run, stream);
  run.metric("sparse.spmv_ms", layers.spmv.front() * 1e3, "ms");
  const double solve_busy_s = ph.busy_s - ph.pack_s - ph.unpack_s;
  run.metric("app.solve_frac",
             open ? solve_ms / task_ms : solve_busy_s / ph.window_s, "ratio");

  // The traced serving pass: benchmark spans plus the engine's own
  // lifecycle spans from an armed obs::TraceSession.
  sts::obs::TraceSessionOptions to;
  to.ring_capacity = std::size_t{1} << 17;
  auto session = sts::obs::TraceSession::start(to);
  Phase traced;
  servePhase(run, engine, id, pool, open, run.args.seconds * 0.3,
             mixSeed(run.args.seed, 600), traced);
  session->stop();
  const std::string path =
      run.args.out_dir + "/" + run.args.workload + ".engine_trace.json";
  if (!session->writeJson(path)) {
    std::fprintf(stderr, "ledger: cannot write %s\n", path.c_str());
  }
  for (const auto& [stage, us] : stageP50Us(session->toJson())) {
    run.metric("engine.stage_p50_us." + stage, us, "us");
  }
  finishTrace(run, task_ms, traced.taskMs(open));
  return 0;
}

// ------------------------------------------------------------------ main --

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--out") {
      a.out_dir = value();
    } else if (k == "--trace") {
      a.trace = true;
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--perturb") {
      a.perturb = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  try {
    run.args = parseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s\n", e.what());
    return 2;
  }
  run.nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  run.team = std::min(4, run.nproc);
  const auto& cache = sts::exec::cacheGeometry();
  std::printf("# host nproc=%d team=%d l2_bytes=%zu l3_bytes=%zu "
              "cache_detected=%d mem_available_bytes=%llu\n",
              run.nproc, run.team, cache.l2_bytes, cache.l3_bytes,
              cache.detected ? 1 : 0, memAvailableBytes());

  const Sizes sizes = sizesFor(run.args);
  // Traced runs record setup spans too; each workload switches spans off
  // around its untraced end-to-end rows.
  run.spans.setEnabled(run.args.trace);
  int rc = 0;
  try {
    const std::string& w = run.args.workload;
    if (w == "paper_sweep") {
      rc = paperSweep(run, sizes);
    } else if (w == "big_stream") {
      rc = bigStream(run, sizes);
    } else if (w == "iccg") {
      rc = iccg(run, sizes);
    } else if (w == "serve_open") {
      rc = serve(run, sizes, true);
    } else if (w == "serve_closed") {
      rc = serve(run, sizes, false);
    } else {
      std::fprintf(stderr, "ledger: unknown workload '%s'\n", w.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s\n", e.what());
    return 4;
  }
  if (rc != 0) return rc;
  run.metric("warm_rss_mb", run.warm_rss_mb, "MB");
  run.metric("peak_rss_mb", peakRssMb(), "MB");
  run.metric("attempted", static_cast<double>(run.attempted), "count");
  run.metric("failed", static_cast<double>(run.failed), "count");
  std::fflush(stdout);
  return run.failed == 0 ? 0 : 1;
}

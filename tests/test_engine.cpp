#include "engine/solver_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/grids.hpp"
#include "datagen/random_matrices.hpp"
#include "exec/serial.hpp"
#include "exec/verify.hpp"
#include "test_util.hpp"

namespace sts::engine {
namespace {

using exec::SchedulerKind;
using exec::SolverOptions;
using exec::TriangularSolver;
using sparse::CsrMatrix;

std::shared_ptr<const TriangularSolver> analyzeShared(const CsrMatrix& lower,
                                                      bool reorder,
                                                      SchedulerKind kind =
                                                          SchedulerKind::kGrowLocal) {
  SolverOptions opts;
  opts.scheduler = kind;
  opts.num_threads = 2;
  opts.reorder = reorder;
  return std::make_shared<const TriangularSolver>(
      TriangularSolver::analyze(lower, opts));
}

TEST(SolverEngine, ServesSingleRequests) {
  const auto lower = datagen::bandedLower(300, 8, 0.5, 11);
  auto solver = analyzeShared(lower, /*reorder=*/true);
  const auto x_true = exec::referenceSolution(lower.rows(), 12);
  const auto b = lower.multiply(x_true);

  std::vector<double> expected(b.size(), 0.0);
  solver->solve(b, expected);

  SolverEngine engine({.num_workers = 2});
  const auto id = engine.registerSolver(solver);
  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < 6; ++r) futures.push_back(engine.submit(id, b));
  for (auto& f : futures) EXPECT_EQ(f.get(), expected);
}

/// The upper input is reversed, then reordered: its coalesced batches
/// cross a real permutation on the engine's tiled pack and unpack. Every
/// answer, coalesced or single, comes back in the vector its right-hand
/// side was submitted in.
TEST(SolverEngine, CoalescesStagedBacklogBitwise) {
  const auto lower = datagen::erdosRenyiLower({.n = 500, .p = 6e-3, .seed = 13});
  for (const bool upper : {false, true}) {
    SCOPED_TRACE(upper ? "upper" : "lower");
    const CsrMatrix matrix = upper ? lower.transposed() : lower;
    auto solver = analyzeShared(matrix, /*reorder=*/true);
    const auto n = static_cast<size_t>(matrix.rows());

    // Distinct RHS per request so coalesced columns are distinguishable.
    constexpr int kRequests = 12;
    constexpr int kSecondRound = 5;  // one batch of 4, then one of 1
    std::vector<std::vector<double>> rhs;
    std::vector<std::vector<double>> expected;
    for (int r = 0; r < kRequests + kSecondRound; ++r) {
      const auto x = exec::referenceSolution(matrix.rows(), 100 + r);
      rhs.push_back(matrix.multiply(x));
      expected.emplace_back(n, 0.0);
      solver->solve(rhs.back(), expected.back());
    }

    EngineOptions options;
    options.num_workers = 1;
    options.max_batch = 4;
    options.start_paused = true;
    SolverEngine engine(options);
    const auto id = engine.registerSolver(solver);

    // Stages requests [first, last) on the paused engine, releases them,
    // and checks each answer: bitwise equal to the facade solve, in the
    // very buffer the right-hand side was moved into submit() with.
    const auto serveStaged = [&](int first, int last) {
      std::vector<std::future<std::vector<double>>> futures;
      std::vector<const double*> buffers;
      for (int r = first; r < last; ++r) {
        std::vector<double> b = rhs[static_cast<size_t>(r)];
        buffers.push_back(b.data());
        futures.push_back(engine.submit(id, std::move(b)));
      }
      engine.resume();
      for (int r = first; r < last; ++r) {
        const auto j = static_cast<size_t>(r - first);
        const std::vector<double> x = futures[j].get();
        EXPECT_EQ(x, expected[static_cast<size_t>(r)]) << "request " << r;
        EXPECT_EQ(x.data(), buffers[j]) << "request " << r;
      }
      engine.drain();
    };
    serveStaged(0, kRequests);
    // The staged backlog must actually coalesce: 12 requests, batch budget 4.
    EXPECT_EQ(engine.stats(id).batches, 3u);

    // Second round on the same engine: the staging tiles a batch of 4
    // sized now serve a batch of 1 without being cleared.
    engine.pause();
    serveStaged(kRequests, kRequests + kSecondRound);

    const auto stats = engine.stats(id);
    constexpr auto kTotal =
        static_cast<std::uint64_t>(kRequests + kSecondRound);
    EXPECT_EQ(stats.requests, kTotal);
    EXPECT_EQ(stats.rhs_solved, kTotal);
    EXPECT_EQ(stats.batches, 5u);
    EXPECT_EQ(stats.coalesced_rhs, kTotal - 1);  // all but the lone one
    EXPECT_EQ(stats.tiled_batches, 4u);          // multi-RHS batches only
    EXPECT_DOUBLE_EQ(stats.mean_batch_rhs, 17.0 / 5.0);
    EXPECT_GT(stats.latency_p50_seconds, 0.0);
    EXPECT_GT(stats.throughput_rhs_per_second, 0.0);
  }
}

/// One gauge's value from the engine registry's text export.
double gaugeValue(const SolverEngine& engine, const std::string& name) {
  const std::string text = engine.metrics().renderText();
  const auto pos = text.find(name + ' ');
  if (pos == std::string::npos) {
    ADD_FAILURE() << "no gauge " << name;
    return -1.0;
  }
  return std::strtod(text.c_str() + pos + name.size() + 1, nullptr);
}

/// The pooled staging tiles are sized by the first burst and reused by the
/// next: the bytes they hold do not grow when the same staged burst is
/// served again, and stay within pooled contexts x 2 tiles x n x max_batch
/// doubles.
TEST(SolverEngine, StagingBytesGaugeIsBoundedAndStable) {
  const auto lower = datagen::bandedLower(400, 8, 0.5, 15);
  auto solver = analyzeShared(lower, /*reorder=*/true);
  const auto n = static_cast<size_t>(lower.rows());
  const auto b = lower.multiply(exec::referenceSolution(lower.rows(), 16));
  std::vector<double> expected(n);
  solver->solve(b, expected);

  EngineOptions options;
  options.num_workers = 1;  // one batch at a time: one pooled context
  options.max_batch = 4;
  options.start_paused = true;
  SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);
  const std::string gauge =
      "sts.solver" + std::to_string(id) + ".staging_bytes";

  // Ten staged requests: batches of 4, 4 and 2.
  const auto burst = [&] {
    std::vector<std::future<std::vector<double>>> futures;
    for (int r = 0; r < 10; ++r) futures.push_back(engine.submit(id, b));
    engine.resume();
    for (auto& f : futures) EXPECT_EQ(f.get(), expected);
    engine.drain();
    engine.pause();
    return gaugeValue(engine, gauge);
  };
  const double first = burst();
  const double second = burst();
  const double bound = static_cast<double>(options.num_workers) * 2.0 *
                       static_cast<double>(n) *
                       static_cast<double>(options.max_batch) * sizeof(double);
  EXPECT_GT(first, 0.0);
  EXPECT_LE(second, first);
  EXPECT_LE(second, bound);
}

/// The ISSUE acceptance stress: >= 8 concurrent solves through one engine
/// on a single analyzed solver, all bitwise-correct. coalesce=false forces
/// every request into its own batch, so 8 workers run 8 simultaneous
/// solves, each on its own pooled SolveContext. reorder=false keeps the
/// BspExecutor path, which is bit-identical to the serial kernel.
TEST(SolverEngine, ConcurrentSolvesStress) {
  const auto lower = datagen::bandedLower(400, 10, 0.5, 14);
  auto solver = analyzeShared(lower, /*reorder=*/false);
  const auto n = static_cast<size_t>(lower.rows());

  constexpr int kDistinctRhs = 4;
  constexpr int kRequests = 32;
  std::vector<std::vector<double>> rhs;
  std::vector<std::vector<double>> expected;
  for (int r = 0; r < kDistinctRhs; ++r) {
    const auto x = exec::referenceSolution(lower.rows(), 200 + r);
    rhs.push_back(lower.multiply(x));
    expected.emplace_back(n, 0.0);
    exec::solveLowerSerial(lower, rhs.back(), expected.back());
  }

  EngineOptions options;
  options.num_workers = 8;
  options.max_batch = 1;
  options.start_paused = true;  // stage the backlog, then release all at once
  SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);

  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < kRequests; ++r) {
    futures.push_back(engine.submit(id, rhs[static_cast<size_t>(r % kDistinctRhs)]));
  }
  engine.resume();
  for (int r = 0; r < kRequests; ++r) {
    EXPECT_EQ(futures[static_cast<size_t>(r)].get(),
              expected[static_cast<size_t>(r % kDistinctRhs)])
        << "request " << r;
  }
  engine.drain();

  const auto stats = engine.stats(id);
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.rhs_solved, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.batches, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.coalesced_rhs, 0u);
}

TEST(SolverEngine, MultiRhsRequestMatchesSingleSolves) {
  const auto lower = datagen::bandedLower(250, 6, 0.5, 15);
  auto solver = analyzeShared(lower, /*reorder=*/true);
  const auto n = static_cast<size_t>(lower.rows());
  constexpr index_t kNrhs = 3;

  std::vector<double> b_multi(n * kNrhs);
  std::vector<std::vector<double>> expected;
  for (index_t c = 0; c < kNrhs; ++c) {
    const auto x = exec::referenceSolution(lower.rows(), 300 + c);
    const auto b = lower.multiply(x);
    for (size_t i = 0; i < n; ++i) {
      b_multi[i * static_cast<size_t>(kNrhs) + static_cast<size_t>(c)] = b[i];
    }
    expected.emplace_back(n, 0.0);
    solver->solve(b, expected.back());
  }

  SolverEngine engine({.num_workers = 1});
  const auto id = engine.registerSolver(solver);
  const std::vector<double> x_multi =
      engine.submitMulti(id, b_multi, kNrhs).get();
  ASSERT_EQ(x_multi.size(), n * kNrhs);
  for (index_t c = 0; c < kNrhs; ++c) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x_multi[i * static_cast<size_t>(kNrhs) + static_cast<size_t>(c)],
                expected[static_cast<size_t>(c)][i])
          << "rhs " << c << " row " << i;
    }
  }
}

TEST(SolverEngine, MultipleSolversServeIndependently) {
  const auto lower_a = datagen::bandedLower(200, 5, 0.5, 16);
  const auto lower_b = datagen::chainLower(150);
  auto solver_a = analyzeShared(lower_a, /*reorder=*/true);
  auto solver_b = analyzeShared(lower_b, /*reorder=*/false);

  const auto xa = exec::referenceSolution(lower_a.rows(), 17);
  const auto xb = exec::referenceSolution(lower_b.rows(), 18);
  const auto ba = lower_a.multiply(xa);
  const auto bb = lower_b.multiply(xb);
  std::vector<double> ea(ba.size(), 0.0), eb(bb.size(), 0.0);
  solver_a->solve(ba, ea);
  solver_b->solve(bb, eb);

  EngineOptions options;
  options.num_workers = 2;
  options.start_paused = true;  // interleaved backlog exercises per-solver
                                // coalescing compatibility checks
  SolverEngine engine(options);
  const auto id_a = engine.registerSolver(solver_a);
  const auto id_b = engine.registerSolver(solver_b);

  std::vector<std::future<std::vector<double>>> fa, fb;
  for (int r = 0; r < 5; ++r) {
    fa.push_back(engine.submit(id_a, ba));
    fb.push_back(engine.submit(id_b, bb));
  }
  engine.resume();
  for (auto& f : fa) EXPECT_EQ(f.get(), ea);
  for (auto& f : fb) EXPECT_EQ(f.get(), eb);
}

TEST(SolverEngine, ConcurrentSubmittersAndP2pSolver) {
  // The SpMP/P2P path exercises the epoch-stamped flags in pooled contexts.
  const auto lower = datagen::erdosRenyiLower({.n = 400, .p = 8e-3, .seed = 19});
  auto solver = analyzeShared(lower, /*reorder=*/false, SchedulerKind::kSpmp);
  const auto x_true = exec::referenceSolution(lower.rows(), 20);
  const auto b = lower.multiply(x_true);
  std::vector<double> expected(b.size(), 0.0);
  exec::solveLowerSerial(lower, b, expected);

  SolverEngine engine({.num_workers = 4});
  const auto id = engine.registerSolver(solver);

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 6;
  std::vector<std::future<bool>> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.push_back(std::async(std::launch::async, [&] {
      bool all_ok = true;
      std::vector<std::future<std::vector<double>>> pending;
      for (int r = 0; r < kPerSubmitter; ++r) {
        pending.push_back(engine.submit(id, b));
      }
      for (auto& f : pending) all_ok = all_ok && (f.get() == expected);
      return all_ok;
    }));
  }
  for (auto& s : submitters) EXPECT_TRUE(s.get());
  engine.drain();
  EXPECT_EQ(engine.stats(id).rhs_solved,
            static_cast<std::uint64_t>(kSubmitters * kPerSubmitter));
}

TEST(SolverEngine, RejectsBadSubmissions) {
  const CsrMatrix id_matrix = CsrMatrix::identity(4);
  auto solver = analyzeShared(id_matrix, /*reorder=*/false);
  SolverEngine engine({.num_workers = 1});
  const auto id = engine.registerSolver(solver);

  EXPECT_THROW(engine.submit(id, std::vector<double>(3, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(engine.submit(id + 1, std::vector<double>(4, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(engine.submitMulti(id, std::vector<double>(8, 1.0), 3),
               std::invalid_argument);
  EXPECT_THROW(engine.registerSolver(nullptr), std::invalid_argument);
  EXPECT_THROW(SolverEngine({.num_workers = 0}), std::invalid_argument);

  EXPECT_NO_THROW(engine.submit(id, std::vector<double>(4, 1.0)).get());
  engine.shutdown();
  EXPECT_THROW(engine.submit(id, std::vector<double>(4, 1.0)),
               std::runtime_error);
}

TEST(SolverEngine, StopFailsFastQueuedRequestsWithTypedShutdown) {
  const auto lower = datagen::bandedLower(300, 8, 0.5, 23);
  auto solver = analyzeShared(lower, /*reorder=*/true);
  const auto b = lower.multiply(exec::referenceSolution(lower.rows(), 24));

  EngineOptions options;
  options.num_workers = 1;
  options.start_paused = true;  // workers parked: everything stays queued
  SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);
  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < 6; ++r) futures.push_back(engine.submit(id, b));

  engine.stop();  // fail-fast: must not wait for (paused) dispatch
  for (auto& f : futures) {
    // Every queued future resolves promptly — nothing blocks forever.
    ASSERT_EQ(f.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    try {
      f.get();
      FAIL() << "expected EngineError{kShutdown}";
    } catch (const EngineError& error) {
      EXPECT_EQ(error.code(), EngineErrorCode::kShutdown);
    }
  }
  EXPECT_THROW(engine.submit(id, b), EngineError);  // closed for business
}

TEST(SolverEngine, DestructionWithInFlightAndQueuedWorkNeverHangs) {
  // The shutdown-ordering regression this pins: destroying an engine while
  // workers hold in-flight batches AND requests are still queued must
  // drain gracefully — every accepted future resolves with a value. Runs
  // under TSan in CI (full-suite tsan job), which is where the original
  // ordering races would surface.
  const auto lower = datagen::bandedLower(400, 10, 0.5, 25);
  auto solver = analyzeShared(lower, /*reorder=*/true);
  const auto x_true = exec::referenceSolution(lower.rows(), 26);
  const auto b = lower.multiply(x_true);

  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<std::vector<double>>> futures;
    {
      SolverEngine engine({.num_workers = 3, .max_batch = 2});
      const auto id = engine.registerSolver(solver);
      for (int r = 0; r < 24; ++r) futures.push_back(engine.submit(id, b));
      // Destructor runs here with most requests still queued or solving.
    }
    for (auto& f : futures) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      EXPECT_LT(exec::relMaxAbsDiff(f.get(), x_true), 1e-10);
    }
  }
}

TEST(SolverEngine, DrainWaitsForBacklog) {
  const auto lower = datagen::bandedLower(300, 8, 0.5, 21);
  auto solver = analyzeShared(lower, /*reorder=*/true);
  const auto x_true = exec::referenceSolution(lower.rows(), 22);
  const auto b = lower.multiply(x_true);

  SolverEngine engine({.num_workers = 2});
  const auto id = engine.registerSolver(solver);
  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < 10; ++r) futures.push_back(engine.submit(id, b));
  engine.drain();
  for (auto& f : futures) {
    // Everything must already be done: get() cannot block after drain().
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_LT(exec::relMaxAbsDiff(f.get(), x_true), 1e-10);
  }
}

}  // namespace
}  // namespace sts::engine

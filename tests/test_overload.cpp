#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "datagen/random_matrices.hpp"
#include "engine/overload.hpp"
#include "engine/request_queue.hpp"
#include "engine/solver_engine.hpp"
#include "exec/solver.hpp"
#include "exec/verify.hpp"

namespace sts::engine {
namespace {

using exec::SolverOptions;
using exec::TriangularSolver;

std::shared_ptr<const TriangularSolver> analyzeShared(
    const sparse::CsrMatrix& lower) {
  SolverOptions opts;
  opts.num_threads = 2;
  opts.reorder = true;
  return std::make_shared<const TriangularSolver>(
      TriangularSolver::analyze(lower, opts));
}

// ---------------------------------------------------------------- ladder

TEST(OverloadStep, MonotoneInPressureAndOneRungPerStep) {
  constexpr int kMaxRung = 4;
  for (int current = 0; current <= kMaxRung; ++current) {
    int prev = -1;
    for (double pressure = 0.0; pressure <= 8.0; pressure += 0.05) {
      const int next = overloadStep(pressure, 0.5, current, kMaxRung);
      // Never more than one rung of movement, always inside the ladder.
      EXPECT_LE(std::abs(next - current), 1);
      EXPECT_GE(next, 0);
      EXPECT_LE(next, kMaxRung);
      // Monotone in pressure for a fixed current rung.
      if (prev >= 0) {
        EXPECT_GE(next, prev);
      }
      prev = next;
    }
  }
}

TEST(OverloadStep, EscalatesByFlooredPressure) {
  // Pressure in [r, r+1) asks for rung r; movement is one rung at a time.
  EXPECT_EQ(overloadStep(0.5, 0.5, 0, 3), 0);
  EXPECT_EQ(overloadStep(1.2, 0.5, 0, 3), 1);
  EXPECT_EQ(overloadStep(7.0, 0.5, 0, 3), 1);  // no jumps, however hard
  EXPECT_EQ(overloadStep(7.0, 0.5, 1, 3), 2);
  EXPECT_EQ(overloadStep(7.0, 0.5, 3, 3), 3);  // saturates at the top
}

TEST(OverloadStep, StepsDownOnlyPastHysteresis) {
  // At rung 2 with h = 0.5 the de-escalation boundary is pressure 1.5.
  EXPECT_EQ(overloadStep(1.9, 0.5, 2, 3), 2);  // inside the band: hold
  EXPECT_EQ(overloadStep(1.5, 0.5, 2, 3), 1);  // clears it: one rung down
  EXPECT_EQ(overloadStep(0.0, 0.5, 1, 3), 0);
  EXPECT_EQ(overloadStep(0.0, 0.5, 0, 3), 0);  // floor
}

TEST(OverloadController, WalksTheLadderOneUpdateAtATime) {
  OverloadController controller(/*target_delay=*/0.1, /*hysteresis=*/0.5,
                                /*max_rung=*/3);
  EXPECT_EQ(controller.rung(), 0);
  // Sustained 10x-target pressure: up exactly one rung per update.
  for (int expected = 1; expected <= 3; ++expected) {
    const auto step = controller.update(/*est_delay_seconds=*/1.0);
    EXPECT_TRUE(step.moved());
    EXPECT_EQ(step.to, expected);
  }
  EXPECT_EQ(controller.update(1.0).to, 3);  // saturated: hold
  // Pressure gone: down one rung per update, through the hysteresis band.
  for (int expected = 2; expected >= 0; --expected) {
    EXPECT_EQ(controller.update(0.0).to, expected);
  }
  EXPECT_FALSE(controller.update(0.0).moved());
}

// ----------------------------------------------------------------- queue

SolveRequest makeRequest(RequestPriority priority,
                         std::chrono::steady_clock::time_point expires_at =
                             std::chrono::steady_clock::time_point::max()) {
  SolveRequest request;
  request.solver = 0;
  request.nrhs = 1;
  request.b = {1.0};
  request.submitted = std::chrono::steady_clock::now();
  request.priority = priority;
  request.expires_at = expires_at;
  return request;
}

TEST(RequestQueue, AgingBoundsLatencyClassBypass) {
  RequestQueue queue;
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(queue.push(makeRequest(RequestPriority::kLatency)),
              RequestQueue::PushResult::kAccepted);
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(queue.push(makeRequest(RequestPriority::kThroughput)),
              RequestQueue::PushResult::kAccepted);
  }
  // kAgingEvery latency pops may bypass waiting throughput work; the next
  // pop must serve the aged throughput head — bounded starvation, not
  // strict priority.
  std::vector<RequestPriority> order;
  while (queue.size() > 0) {
    auto batch = queue.popBatch(/*max_rhs=*/1, /*coalesce=*/false);
    ASSERT_EQ(batch.size(), 1u);
    order.push_back(batch.front().priority);
  }
  const std::vector<RequestPriority> expected = {
      RequestPriority::kLatency,    RequestPriority::kLatency,
      RequestPriority::kLatency,    RequestPriority::kLatency,
      RequestPriority::kThroughput,  // aged in after kAgingEvery bypasses
      RequestPriority::kLatency,    RequestPriority::kLatency,
      RequestPriority::kThroughput};
  EXPECT_EQ(order, expected);
}

TEST(RequestQueue, CoalescingNeverCrossesTheClassBoundary) {
  RequestQueue queue;
  ASSERT_EQ(queue.push(makeRequest(RequestPriority::kLatency)),
            RequestQueue::PushResult::kAccepted);
  ASSERT_EQ(queue.push(makeRequest(RequestPriority::kThroughput)),
            RequestQueue::PushResult::kAccepted);
  ASSERT_EQ(queue.push(makeRequest(RequestPriority::kThroughput)),
            RequestQueue::PushResult::kAccepted);
  ASSERT_EQ(queue.push(makeRequest(RequestPriority::kLatency)),
            RequestQueue::PushResult::kAccepted);
  // First pop: the latency class only — a latency request is never merged
  // into (or behind) a throughput batch, however much budget remains.
  auto first = queue.popBatch(/*max_rhs=*/16, /*coalesce=*/true);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].priority, RequestPriority::kLatency);
  EXPECT_EQ(first[1].priority, RequestPriority::kLatency);
  auto second = queue.popBatch(/*max_rhs=*/16, /*coalesce=*/true);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].priority, RequestPriority::kThroughput);
  EXPECT_EQ(second.size() + first.size(), 4u);
}

TEST(RequestQueue, BoundedDepthReportsFullAndClosedReportsClosed) {
  RequestQueue queue(/*max_depth=*/2);
  EXPECT_EQ(queue.push(makeRequest(RequestPriority::kThroughput)),
            RequestQueue::PushResult::kAccepted);
  EXPECT_EQ(queue.push(makeRequest(RequestPriority::kLatency)),
            RequestQueue::PushResult::kAccepted);
  EXPECT_EQ(queue.push(makeRequest(RequestPriority::kLatency)),
            RequestQueue::PushResult::kFull);
  queue.close();
  EXPECT_EQ(queue.push(makeRequest(RequestPriority::kLatency)),
            RequestQueue::PushResult::kClosed);
}

TEST(RequestQueue, LazyExpirySweepsDeadRequestsIntoTheCallerList) {
  RequestQueue queue;
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  ASSERT_EQ(queue.push(makeRequest(RequestPriority::kThroughput, past)),
            RequestQueue::PushResult::kAccepted);
  ASSERT_EQ(queue.push(makeRequest(RequestPriority::kThroughput)),
            RequestQueue::PushResult::kAccepted);
  std::vector<SolveRequest> expired;
  auto batch = queue.popBatch(/*max_rhs=*/1, /*coalesce=*/false,
                              /*backlog=*/nullptr, &expired);
  // The live request comes back as the batch; the dead one via `expired`.
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired.front().expires_at, past);
  EXPECT_EQ(queue.size(), 0u);
}

// ---------------------------------------------------------------- engine

TEST(OverloadEngine, IdleLadderServesExactBitwise) {
  const auto lower =
      datagen::erdosRenyiLower({.n = 400, .p = 8e-3, .seed = 31});
  auto solver = analyzeShared(lower);
  const auto x_true = exec::referenceSolution(lower.rows(), 7);
  const auto b = lower.multiply(x_true);
  std::vector<double> expected(b.size(), 0.0);
  solver->solve(b, expected);

  EngineOptions options;
  options.num_workers = 2;
  options.overload_control = true;
  options.overload_target_delay = 1e6;  // unreachable: the ladder is idle
  SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);

  std::vector<std::future<SolveResponse>> futures;
  for (int r = 0; r < 8; ++r) {
    futures.push_back(engine.submit(id, b, SubmitOptions{}));
  }
  for (auto& f : futures) {
    SolveResponse response = f.get();
    // Rung 0 = the configured (exact) tier, bitwise — an idle ladder is
    // indistinguishable from overload_control off.
    EXPECT_EQ(response.degrade.rung, 0);
    EXPECT_FALSE(response.degrade.degraded);
    EXPECT_EQ(response.degrade.tier, ServiceTier::kExact);
    EXPECT_EQ(response.degrade.staleness, 0);
    EXPECT_EQ(response.x, expected);
  }
  EXPECT_EQ(engine.overloadRung(), 0);
  EXPECT_EQ(engine.stats(id).degraded_batches, 0u);
}

TEST(OverloadEngine, PressureShedsPrecisionAndReportsDegradeInfo) {
  const auto lower =
      datagen::erdosRenyiLower({.n = 600, .p = 6e-3, .seed = 37});
  auto solver = analyzeShared(lower);
  const auto x_true = exec::referenceSolution(lower.rows(), 9);
  const auto b = lower.multiply(x_true);

  EngineOptions options;
  options.num_workers = 1;
  options.start_paused = true;
  options.overload_control = true;
  options.overload_target_delay = 1e-6;  // any real wait saturates pressure
  options.overload_max_rung = 3;
  options.stale_tolerance = 1e-8;
  SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);

  // Stage latency-class work while paused; each submit feeds the ladder
  // and the aging head wait drives pressure far past target, so the rung
  // climbs one submit at a time to the top.
  SubmitOptions latency;
  latency.priority = RequestPriority::kLatency;
  std::vector<std::future<SolveResponse>> futures;
  for (int r = 0; r < 8; ++r) {
    futures.push_back(engine.submit(id, b, latency));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(engine.overloadRung(), options.overload_max_rung);

  // At the top rung new THROUGHPUT-class work is refused with a typed
  // error; the staged latency work above was all admitted.
  auto refused = engine.submit(id, b);
  try {
    refused.get();
    FAIL() << "expected EngineError{kRejected}";
  } catch (const EngineError& error) {
    EXPECT_EQ(error.code(), EngineErrorCode::kRejected);
  }

  engine.resume();
  int degraded = 0;
  for (auto& f : futures) {
    SolveResponse response = f.get();
    if (!response.degrade.degraded) continue;
    ++degraded;
    // DegradeInfo accuracy: a shed batch on a kExact engine runs the
    // bounded-stale tier with staleness == rung, below the reject rung,
    // at the configured tolerance (growth defaults to 1.0) — and the
    // refinement contract holds on the RETURNED solution, not just the
    // reported residual.
    EXPECT_EQ(response.degrade.tier, ServiceTier::kBoundedStale);
    EXPECT_GE(response.degrade.rung, 1);
    EXPECT_LT(response.degrade.rung, options.overload_max_rung);
    EXPECT_EQ(response.degrade.staleness,
              static_cast<sts::index_t>(response.degrade.rung));
    EXPECT_DOUBLE_EQ(response.degrade.tolerance, options.stale_tolerance);
    EXPECT_LE(response.degrade.residual, response.degrade.tolerance);
    EXPECT_LE(exec::residualInf(lower, response.x, b),
              response.degrade.tolerance);
  }
  EXPECT_GT(degraded, 0);
  // A batch resolves its futures before it books its stats; drain() waits
  // for the booking too.
  engine.drain();
  const auto stats = engine.stats(id);
  EXPECT_GT(stats.degraded_batches, 0u);
  EXPECT_EQ(stats.rejected_requests, 1u);
}

TEST(OverloadEngine, BoundedQueueRejectsBeyondDepthWithTypedError) {
  const auto lower = datagen::bandedLower(200, 6, 0.5, 41);
  auto solver = analyzeShared(lower);
  const auto b = lower.multiply(exec::referenceSolution(lower.rows(), 11));

  EngineOptions options;
  options.num_workers = 1;
  options.start_paused = true;
  options.max_queue_depth = 2;
  SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);

  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < 5; ++r) futures.push_back(engine.submit(id, b));
  int rejected = 0;
  engine.resume();
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const EngineError& error) {
      EXPECT_EQ(error.code(), EngineErrorCode::kRejected);
      ++rejected;
    }
  }
  // Depth 2: the first two queued, the other three were refused — and
  // every refused future resolved (nothing blocks forever).
  EXPECT_EQ(rejected, 3);
  EXPECT_EQ(engine.stats(id).rejected_requests, 3u);
  engine.drain();
}

TEST(OverloadEngine, DeadlinesExpireLazilyWithTypedError) {
  const auto lower = datagen::bandedLower(200, 6, 0.5, 43);
  auto solver = analyzeShared(lower);
  const auto b = lower.multiply(exec::referenceSolution(lower.rows(), 13));

  EngineOptions options;
  options.num_workers = 1;
  options.start_paused = true;
  SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);

  SubmitOptions strict;
  strict.max_queue_wait_seconds = 0.005;
  auto doomed = engine.submit(id, b, strict);
  auto patient = engine.submit(id, b, SubmitOptions{});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine.resume();

  try {
    doomed.get();
    FAIL() << "expected EngineError{kExpired}";
  } catch (const EngineError& error) {
    EXPECT_EQ(error.code(), EngineErrorCode::kExpired);
  }
  EXPECT_FALSE(patient.get().x.empty());  // the undeadlined one solved
  EXPECT_EQ(engine.stats(id).expired_requests, 1u);
  engine.drain();
}

TEST(OverloadEngine, ValidatesOverloadOptions) {
  EngineOptions bad_target;
  bad_target.overload_control = true;
  bad_target.overload_target_delay = 0.0;
  EXPECT_THROW(SolverEngine{bad_target}, std::invalid_argument);
  EngineOptions bad_rung;
  bad_rung.overload_max_rung = 0;
  EXPECT_THROW(SolverEngine{bad_rung}, std::invalid_argument);
  EngineOptions bad_growth;
  bad_growth.overload_tolerance_growth = 0.5;
  EXPECT_THROW(SolverEngine{bad_growth}, std::invalid_argument);
  EngineOptions bad_deadline_engine;
  SolverEngine engine(bad_deadline_engine);
  const auto lower = datagen::bandedLower(50, 4, 0.5, 3);
  const auto id = engine.registerSolver(analyzeShared(lower));
  SubmitOptions negative;
  negative.deadline_seconds = -1.0;
  EXPECT_THROW(
      engine.submit(id, std::vector<double>(50, 1.0), negative),
      std::invalid_argument);
}

}  // namespace
}  // namespace sts::engine

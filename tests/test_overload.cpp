#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <optional>
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

// ----------------------------------------------------------------- latch

TEST(OverloadStep, MonotoneInPressureForEitherState) {
  for (const bool engaged : {false, true}) {
    bool prev = false;
    for (double pressure = 0.0; pressure <= 3.0; pressure += 0.05) {
      const bool next = overloadStep(pressure, 0.5, engaged);
      // Engaged at some pressure means engaged at every higher one.
      EXPECT_TRUE(next || !prev) << "pressure " << pressure;
      prev = next;
    }
  }
}

TEST(OverloadStep, EngagesAtTargetAndReleasesPastHysteresis) {
  EXPECT_FALSE(overloadStep(0.99, 0.5, false));
  EXPECT_TRUE(overloadStep(1.0, 0.5, false));
  EXPECT_TRUE(overloadStep(7.0, 0.5, false));
  // Engaged with h = 0.5: the release boundary is pressure 0.5.
  EXPECT_TRUE(overloadStep(0.9, 0.5, true));  // inside the band: hold
  EXPECT_TRUE(overloadStep(0.51, 0.5, true));
  EXPECT_FALSE(overloadStep(0.5, 0.5, true));  // clears it: release
  EXPECT_FALSE(overloadStep(0.0, 0.5, true));
}

TEST(OverloadStep, NanPressureHoldsTheState) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(overloadStep(nan, 0.5, false));
  EXPECT_TRUE(overloadStep(nan, 0.5, true));
}

TEST(QueueDelayEstimate, PricesQueuedRequestsAsCoalescedBatches) {
  const double p50 = 2e-3;
  // 3 queued single-RHS requests at batch cap 8 drain as one batch.
  EXPECT_DOUBLE_EQ(queueDelayEstimate(p50, 3, 8, 1, 0.0), p50);
  // One past a full batch needs a second; workers share the batches.
  EXPECT_DOUBLE_EQ(queueDelayEstimate(p50, 9, 8, 1, 0.0), 2 * p50);
  EXPECT_DOUBLE_EQ(queueDelayEstimate(p50, 9, 8, 2, 0.0), p50);
  // Coalescing off (cap 1): every queued request is a batch.
  EXPECT_DOUBLE_EQ(queueDelayEstimate(p50, 3, 1, 1, 0.0), 3 * p50);
  // An empty queue prices nothing; a cap or worker count of 0 counts as 1.
  EXPECT_DOUBLE_EQ(queueDelayEstimate(p50, 0, 8, 2, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(queueDelayEstimate(p50, 3, 0, 0, 0.0), 3 * p50);
  // A stalled head outlasting the depth term dominates it (max, not sum),
  // and a fresh head does not.
  EXPECT_DOUBLE_EQ(queueDelayEstimate(p50, 3, 8, 1, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(queueDelayEstimate(p50, 24, 8, 1, 1e-3), 3 * p50);
}

TEST(OverloadController, ReportsEachFlipOnce) {
  OverloadController controller(/*target_delay=*/0.1, /*hysteresis=*/0.5);
  EXPECT_FALSE(controller.engaged());
  EXPECT_EQ(controller.update(0.05), std::nullopt);  // below target
  EXPECT_EQ(controller.update(1.0), std::optional<bool>(true));
  EXPECT_TRUE(controller.engaged());
  EXPECT_EQ(controller.update(1.0), std::nullopt);   // already engaged
  EXPECT_EQ(controller.update(0.07), std::nullopt);  // inside the band
  EXPECT_EQ(controller.update(0.04), std::optional<bool>(false));
  EXPECT_FALSE(controller.engaged());
}

TEST(OverloadController, RacingUpdatesReportOneFlip) {
  OverloadController controller(/*target_delay=*/0.1, /*hysteresis=*/0.5);
  std::atomic<int> flips{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      if (controller.update(1.0)) flips.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(flips.load(), 1);
  EXPECT_TRUE(controller.engaged());
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
    auto batch = queue.popBatch(/*max_rhs=*/1);
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
  auto first = queue.popBatch(/*max_rhs=*/16);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].priority, RequestPriority::kLatency);
  EXPECT_EQ(first[1].priority, RequestPriority::kLatency);
  auto second = queue.popBatch(/*max_rhs=*/16);
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
  auto batch = queue.popBatch(/*max_rhs=*/1, /*backlog=*/nullptr, &expired);
  // The live request comes back as the batch; the dead one via `expired`.
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired.front().expires_at, past);
  EXPECT_EQ(queue.size(), 0u);
}

// ---------------------------------------------------------------- engine

TEST(OverloadEngine, IdleLatchServesExactBitwise) {
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
  options.overload_target_delay = 1e6;  // unreachable: the latch stays off
  SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);

  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < 8; ++r) futures.push_back(engine.submit(id, b));
  // A released latch is indistinguishable from overload_control off.
  for (auto& f : futures) EXPECT_EQ(f.get(), expected);
  EXPECT_FALSE(engine.overloadEngaged());
  EXPECT_EQ(engine.stats(id).rejected_requests, 0u);
}

TEST(OverloadEngine, EngagedLatchRejectsThroughputAndAdmitsLatency) {
  const auto lower =
      datagen::erdosRenyiLower({.n = 600, .p = 6e-3, .seed = 37});
  auto solver = analyzeShared(lower);
  const auto x_true = exec::referenceSolution(lower.rows(), 9);
  const auto b = lower.multiply(x_true);
  std::vector<double> expected(b.size(), 0.0);
  solver->solve(b, expected);

  EngineOptions options;
  options.num_workers = 1;
  options.start_paused = true;
  options.overload_control = true;
  options.overload_target_delay = 1e-6;  // any real wait engages the latch
  SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);

  // Stage latency-class work while paused; each submit feeds the latch,
  // and the aging head wait drives pressure far past the target.
  SubmitOptions latency;
  latency.priority = RequestPriority::kLatency;
  std::vector<std::future<std::vector<double>>> futures;
  for (int r = 0; r < 8; ++r) {
    futures.push_back(engine.submit(id, b, latency));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(engine.overloadEngaged());

  // Engaged: new THROUGHPUT-class work is refused with a typed error; the
  // staged latency work above was all admitted.
  auto refused = engine.submit(id, b);
  try {
    refused.get();
    FAIL() << "expected EngineError{kRejected}";
  } catch (const EngineError& error) {
    EXPECT_EQ(error.code(), EngineErrorCode::kRejected);
  }

  engine.resume();
  // Admitted work runs the exact executors, engaged latch or not.
  for (auto& f : futures) EXPECT_EQ(f.get(), expected);
  // A batch resolves its futures before it books its stats; drain() waits
  // for the booking too. The emptied queue has released the latch.
  engine.drain();
  EXPECT_FALSE(engine.overloadEngaged());
  EXPECT_EQ(engine.stats(id).rejected_requests, 1u);
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
  EXPECT_FALSE(patient.get().empty());  // the undeadlined one solved
  EXPECT_EQ(engine.stats(id).expired_requests, 1u);
  engine.drain();
}

TEST(OverloadEngine, FarDeadlinesNeverExpireAndNanDeadlinesThrow) {
  const auto lower = datagen::bandedLower(200, 6, 0.5, 47);
  auto solver = analyzeShared(lower);
  const auto x_true = exec::referenceSolution(lower.rows(), 17);
  const auto b = lower.multiply(x_true);
  std::vector<double> expected(b.size(), 0.0);
  solver->solve(b, expected);

  SolverEngine engine(EngineOptions{});
  const auto id = engine.registerSolver(solver);
  // Budgets past the steady clock's range mean "never", not "already".
  const double inf = std::numeric_limits<double>::infinity();
  for (const double far : {1e10, inf}) {
    SubmitOptions deadline;
    deadline.deadline_seconds = far;
    EXPECT_EQ(engine.submit(id, b, deadline).get(), expected) << far;
    SubmitOptions queue_wait;
    queue_wait.max_queue_wait_seconds = far;
    EXPECT_EQ(engine.submit(id, b, queue_wait).get(), expected) << far;
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SubmitOptions nan_deadline;
  nan_deadline.deadline_seconds = nan;
  EXPECT_THROW(engine.submit(id, b, nan_deadline), std::invalid_argument);
  SubmitOptions nan_queue_wait;
  nan_queue_wait.max_queue_wait_seconds = nan;
  EXPECT_THROW(engine.submit(id, b, nan_queue_wait), std::invalid_argument);
  engine.drain();
  EXPECT_EQ(engine.stats(id).expired_requests, 0u);
}

TEST(OverloadEngine, ValidatesOverloadOptions) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EngineOptions bad_target;
  bad_target.overload_control = true;
  bad_target.overload_target_delay = 0.0;
  EXPECT_THROW(SolverEngine{bad_target}, std::invalid_argument);
  EngineOptions nan_target;
  nan_target.overload_control = true;
  nan_target.overload_target_delay = nan;
  EXPECT_THROW(SolverEngine{nan_target}, std::invalid_argument);
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

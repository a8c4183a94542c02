#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "datagen/random_matrices.hpp"
#include "engine/solver_engine.hpp"
#include "exec/solver.hpp"
#include "exec/verify.hpp"
#include "harness/stats.hpp"
#include "obs/registry.hpp"

/// \file test_obs.cpp
/// The observability layer: trace rings (wraparound, dropped accounting,
/// concurrent emit — run under TSan in CI), session JSON export (span
/// nesting), the metrics registry (histogram quantiles vs the exact
/// harness::quantile), the proportional SLO step function, and the
/// serving-stats API contract. Every test here also compiles (and the
/// non-ring-emission subset passes identically) under -DSTS_TRACING=OFF,
/// which CI builds as a separate job.

namespace sts::obs {
namespace {

TraceEvent spanEvent(std::uint64_t ts, std::uint64_t dur, const char* name) {
  TraceEvent e;
  e.ts_ns = ts;
  e.dur_ns = dur;
  e.cat = "test";
  e.name = name;
  return e;
}

TEST(TraceRing, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1).capacity(), 2u);  // floor of 2 slots
  EXPECT_EQ(TraceRing(3).capacity(), 4u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
  EXPECT_EQ(TraceRing(1024).capacity(), 1024u);
}

TEST(TraceRing, RetainsEverythingBelowCapacity) {
  TraceRing ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ring.emit(spanEvent(i, 1, "e"));
  }
  EXPECT_EQ(ring.emitted(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].ts_ns, i);  // oldest first
  }
}

TEST(TraceRing, WraparoundDropsOldestAndCountsDrops) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 11; ++i) {
    ring.emit(spanEvent(i, 1, "e"));
  }
  EXPECT_EQ(ring.emitted(), 11u);
  EXPECT_EQ(ring.dropped(), 7u);  // 11 emitted, 4 retained
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The retained window is the newest 4, still oldest first.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].ts_ns, 7 + i);
  }
}

#if STS_TRACING
TEST(TraceSession, StartStopTogglesTheProcessSwitch) {
  EXPECT_EQ(TraceSession::current(), nullptr);
  EXPECT_FALSE(tracingActive());
  auto session = TraceSession::start();
  ASSERT_NE(session, nullptr);
  EXPECT_TRUE(tracingActive());
  EXPECT_EQ(TraceSession::start(), session);  // idempotent while active
  session->stop();
  EXPECT_FALSE(tracingActive());
  EXPECT_EQ(TraceSession::current(), nullptr);
}

/// Extracts the `"ts"` and `"dur"` microsecond values of the (single)
/// event named `name` from a trace_event JSON string.
void extractSpan(const std::string& json, const std::string& name,
                 double* ts_us, double* dur_us) {
  const std::size_t at = json.find("\"name\":\"" + name + "\"");
  ASSERT_NE(at, std::string::npos) << name << " missing from " << json;
  const std::size_t ts_at = json.find("\"ts\":", at);
  ASSERT_NE(ts_at, std::string::npos);
  *ts_us = std::strtod(json.c_str() + ts_at + 5, nullptr);
  const std::size_t dur_at = json.find("\"dur\":", at);
  ASSERT_NE(dur_at, std::string::npos);
  *dur_us = std::strtod(json.c_str() + dur_at + 6, nullptr);
}

TEST(TraceSession, NestedSpansNestInTheExportedJson) {
  auto session = TraceSession::start();
  {
    ScopedSpan outer("test", "outer");
    {
      ScopedSpan inner("test", "inner", "depth", 1);
    }
  }
  emitInstant("test", "marker", "k", 7);
  session->stop();
  EXPECT_EQ(session->numThreads(), 1u);
  EXPECT_EQ(session->totalEvents(), 3u);
  EXPECT_EQ(session->droppedEvents(), 0u);

  const std::string json = session->toJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"depth\":1"), std::string::npos);
  EXPECT_NE(json.find("\"k\":7"), std::string::npos);

  // The outer scope strictly contains the inner one on the timeline.
  double outer_ts = 0, outer_dur = 0, inner_ts = 0, inner_dur = 0;
  extractSpan(json, "outer", &outer_ts, &outer_dur);
  extractSpan(json, "inner", &inner_ts, &inner_dur);
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur + 1e-3);
}

TEST(TraceSession, ConcurrentEmittersEachGetTheirOwnRing) {
  auto session = TraceSession::start();
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        ScopedSpan span("test", "work", "thread", static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  session->stop();
  EXPECT_EQ(session->numThreads(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(session->totalEvents(),
            static_cast<std::uint64_t>(kThreads) * kEventsPerThread);
  EXPECT_EQ(session->droppedEvents(), 0u);
  // The export must serialize all rings without touching freed memory
  // (TSan job); spot-check it is parseable-looking JSON.
  const std::string json = session->toJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(TraceSession, RingCapacityDropsAreReported) {
  TraceSessionOptions options;
  options.ring_capacity = 16;
  auto session = TraceSession::start(options);
  for (int i = 0; i < 100; ++i) {
    emitInstant("test", "flood");
  }
  session->stop();
  // totalEvents reports what the export retains; the rest are dropped.
  EXPECT_EQ(session->totalEvents(), 16u);
  EXPECT_EQ(session->droppedEvents(), 100u - 16u);
}
#endif  // STS_TRACING

TEST(SolveTrace, AccumulatesAcrossThreadsAndTracksMaxWait) {
  SolveTrace trace;
  std::thread a([&] { trace.add(100, 10, 2, 10); });
  std::thread b([&] { trace.add(200, 30, 2, 25); });
  a.join();
  b.join();
  trace.add(1, 1, 1, 5);
  EXPECT_EQ(trace.compute_ns.load(), 301u);
  EXPECT_EQ(trace.wait_ns.load(), 41u);
  EXPECT_EQ(trace.thread_steps.load(), 5u);
  EXPECT_EQ(trace.max_wait_ns.load(), 25u);  // max, not sum
}

#if STS_TRACING
TEST(StepTracer, SplitsComputeFromWaitIntoTheSink) {
  SolveTrace sink;
  {
    StepTracer tracer(&sink);
    tracer.computeDone(0);
    tracer.waitDone(0);
    tracer.computeDone(1);
    tracer.waitDone(1);
  }
  EXPECT_EQ(sink.thread_steps.load(), 2u);
  // Both segments measured something (monotonic clock, possibly 0 on a
  // coarse clock — the invariant is accumulation, not magnitude).
  EXPECT_GE(sink.compute_ns.load() + sink.wait_ns.load(), 0u);
}

TEST(StepTracer, DisabledWithoutSinkOrSession) {
  SolveTrace sink;
  {
    StepTracer tracer(nullptr);
    tracer.computeDone(0);
    tracer.waitDone(0);
  }
  EXPECT_EQ(sink.thread_steps.load(), 0u);
}
#endif  // STS_TRACING

TEST(Histogram, QuantilesMatchExactQuantileWithinBucketError) {
  Histogram hist;
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> dist(-6.0, 1.2);  // latency-shaped
  std::vector<double> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double v = dist(rng);
    values.push_back(v);
    hist.record(v);
  }
  EXPECT_EQ(hist.count(), 20000u);
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact = harness::quantile(values, q);
    const double approx = hist.quantile(q);
    // Log-bucketed with 8 sub-buckets/octave: one sub-bucket width
    // (2^(1/8)-1 ~ 9%) of bucketing error, plus the nearest-rank vs
    // sample-quantile definitional gap — 12% covers both.
    EXPECT_NEAR(approx, exact, exact * 0.12)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(Histogram, HandlesExtremesAndEmpty) {
  Histogram hist;
  EXPECT_EQ(hist.quantile(0.5), 0.0);  // empty histogram
  hist.record(0.0);                    // underflow bucket
  hist.record(1e300);                  // overflow bucket
  hist.record(-1.0);                   // negative: clamps with zero/underflow
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_GE(hist.quantile(1.0), hist.quantile(0.01));
}

TEST(Registry, GetOrCreateReturnsStableInstruments) {
  Registry registry;
  Counter& c1 = registry.counter("test.requests");
  Counter& c2 = registry.counter("test.requests");
  EXPECT_EQ(&c1, &c2);
  c1.inc();
  c2.add(4);
  EXPECT_EQ(c1.value(), 5u);
  registry.gauge("test.width").set(3.5);
  registry.histogram("test.latency").record(0.25);
  const std::string text = registry.renderText();
  EXPECT_NE(text.find("test.requests 5"), std::string::npos);
  EXPECT_NE(text.find("test.width 3.5"), std::string::npos);
  EXPECT_NE(text.find("test.latency_count 1"), std::string::npos);
  const std::string json = registry.renderJson();
  EXPECT_NE(json.find("\"test.requests\":5"), std::string::npos);
}

}  // namespace
}  // namespace sts::obs

namespace sts::engine {
namespace {

TEST(SloStep, HoldsInsideTheDeadband) {
  // p95 exactly at target, and within +-10% of it: no actuation.
  EXPECT_EQ(sloStep(0.050, 0.050, 4, 8, 1, false), 4);
  EXPECT_EQ(sloStep(0.054, 0.050, 4, 8, 1, true), 4);
  EXPECT_EQ(sloStep(0.046, 0.050, 4, 8, 1, true), 4);
}

TEST(SloStep, GrowsProportionallyToTheViolation) {
  // 50% over target at width 4: step = round(0.5 * 0.5 * 4) = 1.
  EXPECT_EQ(sloStep(0.075, 0.050, 4, 8, 1, false), 5);
  // 200% over target at width 2: step = round(0.5 * 2.0 * 2) = 2.
  EXPECT_EQ(sloStep(0.150, 0.050, 2, 8, 1, false), 4);
  // Unreachable target saturates at base without overflowing.
  EXPECT_EQ(sloStep(10.0, 1e-12, 2, 8, 1, false), 8);
}

TEST(SloStep, ShrinksOnlyUnderDeepBacklog) {
  // 60% under target but shallow queue: latency slack is not spent.
  EXPECT_EQ(sloStep(0.020, 0.050, 4, 8, 1, false), 4);
  // Same slack with deep backlog: step = round(0.5 * 0.6 * 4) = 1.
  EXPECT_EQ(sloStep(0.020, 0.050, 4, 8, 1, true), 3);
  // Never below min_team.
  EXPECT_EQ(sloStep(0.001, 0.050, 2, 8, 2, true), 2);
}

TEST(ServingStats, ApiStaysBackCompatibleWithHistogramQuantiles) {
  const auto lower = datagen::bandedLower(400, 8, 0.5, 13);
  exec::SolverOptions solver_opts;
  solver_opts.num_threads = 2;
  auto solver = std::make_shared<const exec::TriangularSolver>(
      exec::TriangularSolver::analyze(lower, solver_opts));

  EngineOptions options;
  options.num_workers = 1;
  options.max_batch = 4;
  SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);

  const auto x_true = exec::referenceSolution(lower.rows(), /*seed=*/5);
  const auto b = lower.multiply(x_true);
  std::vector<std::future<std::vector<double>>> futures;
  for (int i = 0; i < 12; ++i) futures.push_back(engine.submit(id, b));
  for (auto& f : futures) {
    EXPECT_LT(exec::relMaxAbsDiff(f.get(), x_true), 1e-10);
  }
  engine.drain();

  const SolverServingStats stats = engine.stats(id);
  EXPECT_EQ(stats.requests, 12u);
  EXPECT_GE(stats.batches, 3u);  // max_batch 4 caps coalescing
  EXPECT_EQ(stats.rhs_solved, 12u);
  EXPECT_GT(stats.latency_p50_seconds, 0.0);
  // Histogram quantiles are monotone in q by construction.
  EXPECT_GE(stats.latency_p95_seconds, stats.latency_p50_seconds);
  EXPECT_GT(stats.throughput_rhs_per_second, 0.0);
  EXPECT_EQ(stats.slo_steps, 0u);  // elasticity off: no controller steps

  // The metrics registry mirrors the counters the snapshot reports.
  const std::string text = engine.metrics().renderText();
  EXPECT_NE(text.find("sts.solver0.requests 12"), std::string::npos);
  EXPECT_NE(text.find("sts.solver0.latency_seconds_count 12"),
            std::string::npos);
}

TEST(TraceSummary, AttributesComputePerTeam) {
  const auto lower = datagen::bandedLower(500, 10, 0.6, 17);
  exec::SolverOptions solver_opts;
  solver_opts.num_threads = 2;
  auto solver = std::make_shared<const exec::TriangularSolver>(
      exec::TriangularSolver::analyze(lower, solver_opts));

  EngineOptions options;
  options.num_workers = 1;
  options.max_batch = 4;
  options.trace = true;
  SolverEngine engine(options);
  const auto id = engine.registerSolver(solver);

  const auto x_true = exec::referenceSolution(lower.rows(), /*seed=*/7);
  const auto b = lower.multiply(x_true);
  std::vector<std::future<std::vector<double>>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(engine.submit(id, b));
  for (auto& f : futures) f.get();
  engine.drain();

  const auto rows = engine.traceSummary(id);
#if STS_TRACING
  ASSERT_FALSE(rows.empty());
  std::uint64_t batches = 0;
  int prev_team = 0;
  for (const auto& row : rows) {
    // One row per team width, sorted by team.
    EXPECT_GT(row.team, prev_team);
    EXPECT_LE(row.team, solver->numThreads());
    prev_team = row.team;
    batches += row.batches;
    EXPECT_GT(row.thread_steps, 0u);
    EXPECT_GT(row.compute_seconds + row.wait_seconds, 0.0);
    EXPECT_GE(row.wait_fraction, 0.0);
    EXPECT_LE(row.wait_fraction, 1.0);
    EXPECT_GE(row.max_wait_seconds, 0.0);
  }
  EXPECT_EQ(batches, engine.stats(id).batches);
#else
  // Compiled out: attribution is empty but the API stays callable.
  EXPECT_TRUE(rows.empty());
#endif
}

#if STS_TRACING
TEST(TraceSummary, SolvesAreBitwiseIdenticalWithTracingOnAndOff) {
  const auto lower = datagen::bandedLower(600, 12, 0.5, 23);
  exec::SolverOptions solver_opts;
  solver_opts.num_threads = 2;
  const auto solver = exec::TriangularSolver::analyze(lower, solver_opts);
  const auto x_true = exec::referenceSolution(lower.rows(), /*seed=*/3);
  const auto b = lower.multiply(x_true);

  auto ctx = solver.createContext();
  std::vector<double> x_plain(b.size(), 0.0);
  solver.solve(b, x_plain, *ctx, solver.numThreads());

  auto session = obs::TraceSession::start();
  obs::SolveTrace sink;
  ctx->setTrace(&sink);
  std::vector<double> x_traced(b.size(), 0.0);
  solver.solve(b, x_traced, *ctx, solver.numThreads());
  session->stop();
  ctx->setTrace(nullptr);

  ASSERT_EQ(x_plain.size(), x_traced.size());
  for (std::size_t i = 0; i < x_plain.size(); ++i) {
    EXPECT_EQ(x_plain[i], x_traced[i]) << "row " << i;  // bitwise
  }
  EXPECT_GT(sink.thread_steps.load(), 0u);
  EXPECT_GT(session->totalEvents(), 0u);
}
#endif  // STS_TRACING

}  // namespace
}  // namespace sts::engine

/// Overload resilience: open-loop serving at a multiple of the engine's
/// measured capacity, with the overload latch on
/// (EngineOptions::overload_control) and — under -DSTS_FAULTS=ON —
/// deterministic fault injection active (superstep latency spikes plus a
/// stalling worker pop; src/fault/failpoint.hpp). Phase 1 measures
/// closed-loop capacity without the latch: staged bursts of the request
/// mix, faults disarmed. Phase 2 replays the mix open-loop at
/// STS_OVERLOAD_MULT x that rate, ~25% latency-class with deadlines, with
/// the latch's target delay set to half the offered arrival window. Each
/// phase repeats its run on one engine until kMinMeasuredSeconds of runs
/// (and at least kMinRuns) are measured and reads the median run. Exit
/// gates, the robustness contracts docs/ROBUSTNESS.md states:
///
///   * every submitted future resolves — a value or a typed EngineError
///     (kRejected / kExpired); nothing is left hanging,
///   * admitted latency-class requests stay under a bounded p95,
///   * the latch engaged: at least one request was rejected,
///   * the median loop's throughput stays within a factor of the median
///     burst's — rejecting work must not stall the pipeline, and
///   * with faults armed, both armed failpoints actually fired.
///
///   STS_BENCH_SCALE / STS_BENCH_REPS   dataset sizing as usual;
///   STS_OVERLOAD_REQUESTS (default 96) requests per burst and open loop;
///   STS_OVERLOAD_MULT     (default 2)  offered load / measured capacity;
///   STS_OVERLOAD_WIDTH    (default 4)  analyzed schedule width;
///   STS_OVERLOAD_WORKERS  (default 2)  engine dispatcher threads;
///   STS_OVERLOAD_DEPTH    (default 64) bounded queue depth;
///   STS_OVERLOAD_DEADLINE_S (default 2) latency-class deadline;
///   STS_OVERLOAD_P95_S    (default 2x deadline) latency p95 gate;
///   STS_OVERLOAD_TPUT_FLOOR (default 0.25) throughput-ratio gate;
///   STS_OVERLOAD_FAULTS   (default 1)  arm failpoints (STS_FAULTS=ON).
///
/// Emits JSON with host metadata (schema in docs/BENCHMARKS.md). Exit
/// code 0 iff every contract holds.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "engine/solver_engine.hpp"
#include "fault/failpoint.hpp"
#include "harness/datasets.hpp"
#include "harness/stats.hpp"

namespace {

using namespace sts;
using engine::EngineError;
using engine::EngineErrorCode;
using engine::RequestPriority;
using engine::SubmitOptions;

using sts::bench::envInt;

double envDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  return raw && *raw ? std::atof(raw) : fallback;
}

/// Both phases repeat their measurement until the runs add up to this
/// much time, and at least kMinRuns of them, and gate on the median run:
/// one run at CI scale lasts a few milliseconds, about as long as one
/// scheduler stall of an oversubscribed team.
constexpr double kMinMeasuredSeconds = 0.5;
constexpr std::size_t kMinRuns = 3;

/// The fault mix armed afresh before every open loop (STS_FAULTS=ON
/// builds only): rank-stable superstep latency spikes plus a bounded run
/// of 5 ms stalls on the worker pop — the "straggler thread + hiccuping
/// dispatcher" mix. Delay/stall actions only, per the executor hook
/// contract.
[[maybe_unused]] constexpr const char* kFaultSpec =
    "exec.superstep=delay(200),p=0.05;"
    "engine.worker_pop=stall(5),p=0.25,limit=8";

/// What one open loop observed.
struct LoopResult {
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  std::size_t unresolved = 0;
  double rhs_per_second = 0.0;  ///< ok / (last ok completion - start)
  double elapsed = 0.0;         ///< start to last resolution
  std::vector<double> latency_class_seconds;  ///< admitted kLatency ones
};

/// One open loop: one arrival per `rhs` vector, `interval` apart, every
/// 4th latency-class with `deadline`. Every future is polled to
/// resolution, so completion times are observed when they happen, not in
/// submission order; the 120 s cap exists only so a wedged engine fails
/// the gate instead of hanging the bench.
LoopResult openLoop(engine::SolverEngine& eng, engine::SolverId id,
                    const std::vector<std::vector<double>>& rhs,
                    double interval, double deadline) {
  using Clock = std::chrono::steady_clock;
  enum class Kind { kPending, kOk, kRejected, kExpired, kOther };
  struct Outcome {
    RequestPriority priority = RequestPriority::kThroughput;
    Kind kind = Kind::kPending;
    double submit_s = 0.0;  ///< seconds since the loop's start
    double done_s = 0.0;
  };
  std::vector<Outcome> outcomes(rhs.size());
  std::vector<std::future<std::vector<double>>> futures;
  futures.reserve(rhs.size());
  const auto since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const auto start = Clock::now();
  for (std::size_t j = 0; j < rhs.size(); ++j) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        interval * static_cast<double>(j))));
    SubmitOptions so;
    if (j % 4 == 0) {
      so.priority = RequestPriority::kLatency;
      so.deadline_seconds = deadline;
    }
    outcomes[j].priority = so.priority;
    outcomes[j].submit_s = since(start);
    futures.push_back(eng.submit(id, rhs[j], so));
  }

  std::size_t pending = futures.size();
  const auto hard_stop = Clock::now() + std::chrono::seconds(120);
  while (pending > 0 && Clock::now() < hard_stop) {
    pending = 0;
    for (std::size_t j = 0; j < futures.size(); ++j) {
      Outcome& out = outcomes[j];
      if (out.kind != Kind::kPending) continue;
      if (futures[j].wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++pending;
        continue;
      }
      out.done_s = since(start);
      try {
        futures[j].get();
        out.kind = Kind::kOk;
      } catch (const EngineError& err) {
        out.kind = err.code() == EngineErrorCode::kRejected  ? Kind::kRejected
                   : err.code() == EngineErrorCode::kExpired ? Kind::kExpired
                                                             : Kind::kOther;
      } catch (...) {
        out.kind = Kind::kOther;
      }
    }
    if (pending > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  LoopResult loop;
  loop.unresolved = pending;
  loop.elapsed = since(start);
  double last_ok_s = 0.0;
  for (const Outcome& out : outcomes) {
    switch (out.kind) {
      case Kind::kOk:
        ++loop.ok;
        last_ok_s = std::max(last_ok_s, out.done_s);
        if (out.priority == RequestPriority::kLatency) {
          loop.latency_class_seconds.push_back(out.done_s - out.submit_s);
        }
        break;
      case Kind::kRejected: ++loop.rejected; break;
      case Kind::kExpired: ++loop.expired; break;
      default: break;
    }
  }
  loop.rhs_per_second =
      last_ok_s > 0.0 ? static_cast<double>(loop.ok) / last_ok_s : 0.0;
  return loop;
}

}  // namespace

int main() {
  const int requests = envInt("STS_OVERLOAD_REQUESTS", 96);
  const double mult = envDouble("STS_OVERLOAD_MULT", 2.0);
  const int width = envInt("STS_OVERLOAD_WIDTH", 4);
  const int workers = envInt("STS_OVERLOAD_WORKERS", 2);
  const auto depth =
      static_cast<std::size_t>(envInt("STS_OVERLOAD_DEPTH", 64));
  const double deadline = envDouble("STS_OVERLOAD_DEADLINE_S", 2.0);
  const double p95_bound = envDouble("STS_OVERLOAD_P95_S", 2.0 * deadline);
  const double tput_floor = envDouble("STS_OVERLOAD_TPUT_FLOOR", 0.25);

  bench::banner("Overload resilience", "Robustness contracts",
                "Open-loop 2x overload with deadlines, admission control and "
                "fault injection");
  std::printf("%d arrivals at %.1fx capacity, width %d, %d workers, queue "
              "depth %zu\n\n",
              requests, mult, width, workers, depth);

  auto standin = harness::suiteSparseStandin();
  if (standin.empty()) {
    std::printf("no dataset available; nothing to measure\n");
    return 1;
  }
  const auto entry = std::move(standin.front());
  const auto n = static_cast<size_t>(entry.lower.rows());

  exec::SolverOptions solver_opts;
  solver_opts.scheduler = exec::SchedulerKind::kGrowLocal;
  solver_opts.num_threads = width;
  solver_opts.validate = false;
  auto solver = std::make_shared<const exec::TriangularSolver>(
      exec::TriangularSolver::analyze(entry.lower, solver_opts));

  std::vector<std::vector<double>> rhs(static_cast<size_t>(requests));
  for (size_t j = 0; j < rhs.size(); ++j) {
    rhs[j].resize(n);
    for (size_t i = 0; i < n; ++i) {
      rhs[j][i] = 1.0 + 0.25 * static_cast<double>((i + 7 * j) % 13);
    }
  }

  using Clock = std::chrono::steady_clock;

  // ---- Phase 1: closed-loop capacity, latch off. Staged backlogs
  // through the plain engine measure what the host can actually serve;
  // the median burst (the first pays the engine's cold start) sets the
  // baseline, and the open-loop phase offers `mult` times that rate.
  double baseline_rps = 0.0;
  int bursts = 0;
  {
    engine::EngineOptions opts;
    opts.num_workers = workers;
    opts.start_paused = true;
    engine::SolverEngine eng(opts);
    const auto id = eng.registerSolver(solver);
    std::vector<double> burst_rps;
    double measured = 0.0;
    while (measured < kMinMeasuredSeconds || burst_rps.size() < kMinRuns) {
      eng.pause();
      std::vector<std::future<std::vector<double>>> futures;
      futures.reserve(rhs.size());
      for (const auto& b : rhs) futures.push_back(eng.submit(id, b));
      const auto t0 = Clock::now();
      eng.resume();
      for (auto& f : futures) f.get();
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - t0).count();
      measured += elapsed;
      burst_rps.push_back(static_cast<double>(requests) / elapsed);
    }
    bursts = static_cast<int>(burst_rps.size());
    baseline_rps = harness::quantile(burst_rps, 0.5);
    std::printf("baseline (closed loop): median of %d bursts of %d "
                "requests = %.0f rhs/s\n",
                bursts, requests, baseline_rps);
  }
  // Half the offered arrival window W: arrivals at `mult` x capacity
  // build about (mult - 1) x W of queue delay by the end of the loop —
  // one whole window at the default 2x — so the latch must engage.
  const double target_delay =
      static_cast<double>(requests) / (mult * baseline_rps) / 2.0;
  std::printf("latch target delay: %.1f ms\n", target_delay * 1e3);

  // ---- Phase 2: open loops at mult x capacity with the latch on,
  // repeated on one engine like phase 1's bursts.
  bool faults_armed = false;
  std::vector<double> loop_rps;
  std::vector<double> latency_latencies;
  std::uint64_t ok_count = 0, rejected = 0, expired = 0;
  std::uint64_t superstep_hits = 0, worker_pop_hits = 0;
  std::size_t unresolved = 0, engaged_loops = 0;
  engine::SolverServingStats overload_stats;
  {
    engine::EngineOptions opts;
    opts.num_workers = workers;
    opts.max_queue_depth = depth;
    opts.overload_control = true;
    opts.overload_target_delay = target_delay;
    engine::SolverEngine eng(opts);
    const auto id = eng.registerSolver(solver);
    const double interval = 1.0 / (mult * baseline_rps);
    double measured = 0.0;
    while (unresolved == 0 &&
           (measured < kMinMeasuredSeconds || loop_rps.size() < kMinRuns)) {
      // Armed afresh for every loop, so each meets the same deterministic
      // fault schedule; arming also restarts the hit counters.
#if STS_FAULTS
      if (envInt("STS_OVERLOAD_FAULTS", 1) != 0) {
        fault::FailpointRegistry::global().configure(kFaultSpec,
                                                     /*seed=*/42);
        faults_armed = true;
      }
#endif
      const LoopResult loop = openLoop(eng, id, rhs, interval, deadline);
      // Books the loop's stats and leaves the engine idle, and with an
      // empty queue the latch released, for the next loop. A wedged loop
      // ends the phase instead: its gate fails and nothing is left to
      // drain into.
      if (loop.unresolved == 0) eng.drain();
#if STS_FAULTS
      superstep_hits +=
          fault::FailpointRegistry::global().hits("exec.superstep");
      worker_pop_hits +=
          fault::FailpointRegistry::global().hits("engine.worker_pop");
#endif
      measured += loop.elapsed;
      loop_rps.push_back(loop.rhs_per_second);
      latency_latencies.insert(latency_latencies.end(),
                               loop.latency_class_seconds.begin(),
                               loop.latency_class_seconds.end());
      ok_count += loop.ok;
      rejected += loop.rejected;
      expired += loop.expired;
      unresolved += loop.unresolved;
      engaged_loops += loop.rejected > 0 ? 1 : 0;
    }
    overload_stats = eng.stats(id);
  }
  if (faults_armed) fault::FailpointRegistry::global().reset();
  const double overload_rps = harness::quantile(loop_rps, 0.5);
  std::printf("overload (open loop%s): median of %zu loops = %.0f rhs/s; "
              "the latch engaged in %zu of them\n",
              faults_armed ? ", faults armed" : "", loop_rps.size(),
              overload_rps, engaged_loops);

  // ---- Contracts.
  const double lat_p50 = latency_latencies.empty()
                             ? 0.0
                             : harness::quantile(latency_latencies, 0.5);
  const double lat_p95 = latency_latencies.empty()
                             ? 0.0
                             : harness::quantile(latency_latencies, 0.95);

  const bool gate_resolved = unresolved == 0;
  const bool gate_latency =
      !latency_latencies.empty() && lat_p95 <= p95_bound;
  const bool gate_engaged = rejected > 0;
  const double tput_ratio =
      baseline_rps > 0.0 ? overload_rps / baseline_rps : 0.0;
  const bool gate_throughput = tput_ratio >= tput_floor;
  // Armed failpoints that never fired would make the faults-on run a
  // faults-off run in disguise.
  const bool gate_superstep = !faults_armed || superstep_hits > 0;
  const bool gate_worker_pop = !faults_armed || worker_pop_hits > 0;

  std::printf("\nall loops: %llu ok, %llu rejected (engine counted %llu), "
              "%llu expired, %zu unresolved\n",
              static_cast<unsigned long long>(ok_count),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(
                  overload_stats.rejected_requests),
              static_cast<unsigned long long>(expired), unresolved);
  if (faults_armed) {
    std::printf("failpoint hits: exec.superstep %llu, engine.worker_pop "
                "%llu\n",
                static_cast<unsigned long long>(superstep_hits),
                static_cast<unsigned long long>(worker_pop_hits));
  }
  std::printf("latency-class admitted: %zu requests, p50 %.1f ms, p95 "
              "%.1f ms (bound %.1f ms)\n",
              latency_latencies.size(), lat_p50 * 1e3, lat_p95 * 1e3,
              p95_bound * 1e3);
  std::printf("throughput: %.0f rhs/s vs %.0f rhs/s baseline = %.2fx "
              "(floor %.2fx)\n",
              overload_rps, baseline_rps, tput_ratio, tput_floor);

  const auto flag = [](bool value) { return value ? "true" : "false"; };
  // The failpoint gates exist only when faults are armed.
  const std::string fault_gates =
      faults_armed ? std::string(",\"superstep_fired\":") +
                         flag(gate_superstep) + ",\"worker_pop_fired\":" +
                         flag(gate_worker_pop)
                   : std::string();
  std::printf("JSON: {\"bench\":\"overload_resilience\",%s,"
              "\"requests\":%d,\"mult\":%.3g,\"width\":%d,\"workers\":%d,"
              "\"queue_depth\":%zu,\"capacity_bursts\":%d,"
              "\"overload_loops\":%zu,\"target_delay_seconds\":%.6g,"
              "\"deadline_seconds\":%.6g,\"faults_armed\":%s,"
              "\"results\":[{\"matrix\":\"%s\","
              "\"baseline_rhs_per_second\":%.6g,"
              "\"overload_rhs_per_second\":%.6g,"
              "\"throughput_ratio\":%.4g,"
              "\"latency_p50_seconds\":%.6g,\"latency_p95_seconds\":%.6g,"
              "\"admitted\":%llu,\"rejected\":%llu,"
              "\"engine_rejected_requests\":%llu,"
              "\"expired\":%llu,\"unresolved\":%zu,\"engaged_loops\":%zu,"
              "\"superstep_hits\":%llu,\"worker_pop_hits\":%llu}],"
              "\"gates\":{\"all_resolved\":%s,\"latency_p95\":%s,"
              "\"engaged\":%s,\"throughput_floor\":%s%s}}\n",
              bench::hostMetaJson().c_str(), requests, mult, width, workers,
              depth, bursts, loop_rps.size(), target_delay, deadline,
              flag(faults_armed),
              entry.name.c_str(), baseline_rps, overload_rps, tput_ratio,
              lat_p50, lat_p95, static_cast<unsigned long long>(ok_count),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(
                  overload_stats.rejected_requests),
              static_cast<unsigned long long>(expired), unresolved,
              engaged_loops, static_cast<unsigned long long>(superstep_hits),
              static_cast<unsigned long long>(worker_pop_hits),
              flag(gate_resolved), flag(gate_latency), flag(gate_engaged),
              flag(gate_throughput), fault_gates.c_str());

  std::printf("\nclaims under test: every future resolves (typed errors, "
              "never hangs); admitted latency-class\np95 stays bounded; "
              "the latch engages and rejects work; the median loop's "
              "throughput\nstays within %.2fx of the median burst's%s.\n",
              tput_floor,
              faults_armed ? "; and both armed failpoints fire" : "");
  const bool ok = gate_resolved && gate_latency && gate_engaged &&
                  gate_throughput && gate_superstep && gate_worker_pop;
  std::printf(ok ? "claims hold.\n" : "claims FAILED.\n");
  if (!ok) {
    std::printf("  all_resolved=%d latency_p95=%d engaged=%d "
                "throughput_floor=%d superstep_fired=%d worker_pop_fired=%d\n",
                gate_resolved, gate_latency, gate_engaged, gate_throughput,
                gate_superstep, gate_worker_pop);
  }
  return ok ? 0 : 1;
}

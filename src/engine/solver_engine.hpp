#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "base/sync.hpp"
#include "engine/context_pool.hpp"
#include "engine/core_budget.hpp"
#include "engine/overload.hpp"
#include "engine/request_queue.hpp"
#include "engine/types.hpp"
#include "exec/solver.hpp"
#include "obs/registry.hpp"

/// \file solver_engine.hpp
/// The batched request-serving subsystem: turns analyzed TriangularSolvers
/// into a concurrent solve service — the analyze-once / solve-many premise
/// (§1) promoted from a library call to a long-lived server, in the spirit
/// of treating the executor as a service whose execution adapts to load.
///
///   engine::SolverEngine engine({.num_workers = 2, .max_batch = 16});
///   const auto id = engine.registerSolver(
///       std::make_shared<const exec::TriangularSolver>(
///           exec::TriangularSolver::analyze(L)));
///   auto future = engine.submit(id, b);        // b in original ordering
///   std::vector<double> x = future.get();
///
/// Design:
///  * A persistent pool of `num_workers` dispatcher threads drains a
///    lock-light RequestQueue; each batch execution runs the solver's own
///    OpenMP team, so distinct workers can solve concurrently against the
///    same analyzed schedule.
///  * Compatible queued single-RHS requests for one solver coalesce into a
///    single batch of up to `max_batch` columns: one schedule traversal —
///    one barrier crossing per superstep — serves the whole batch (the
///    Table 7.7 block-parallel amortization applied to serving). Column
///    results are bitwise equal to individual solve() calls, so coalescing
///    is invisible to clients, and each answer comes back in the vector
///    its right-hand side was submitted in.
///  * Reentrancy comes from the SolveContext contract (solve_context.hpp):
///    every in-flight batch leases a context from a per-solver
///    ContextPool; the solver itself is shared immutable state.
///  * Elasticity (EngineOptions::elastic): the per-batch OpenMP team size
///    adapts to load. A deep queue shrinks teams — schedule folding makes
///    any team size t <= numThreads() bitwise-lossless — so the engine
///    trades per-solve parallelism for cross-solve concurrency exactly
///    when the backlog can use it; a shallow queue keeps full-width solves
///    for latency. With EngineOptions::target_p95 the choice is SLO-driven
///    instead of depth-only: each solver's controller grows its team while
///    the recent-window p95 latency violates the target and shrinks it
///    while under target with backlog. Team choices are reported in
///    SolverServingStats.
///  * Cross-solver budgeting (EngineOptions::core_budget): every batch
///    leases its team from a shared CoreBudget, so aggregate granted team
///    sizes across concurrent batches never exceed the machine-wide
///    budget; the grant (not the desire) is the executed width, which
///    folding keeps bitwise-lossless.
///  * Core-set affinity (EngineOptions::core_set / pin_threads): the
///    budget can allocate WHICH cores, not just how many — grants become
///    explicit disjoint CPU-id sets (user-supplied or detected from the
///    process mask), and with pin_threads each batch's OpenMP team members
///    pin themselves to their leased ids for the solve region, so
///    concurrent batches never overlap cores and folded ranks stop
///    migrating across caches. Placement only — results stay bitwise;
///    unsupported platforms silently run unpinned (STS_HAS_AFFINITY).
///    See the option-interaction table in engine/types.hpp.
///  * Adaptive coalescing (EngineOptions::adaptive_batch): under a deep
///    queue the effective coalescing cap rises toward 2 * max_batch while
///    teams shrink, so the barrier amortization grows exactly when the
///    backlog can feed it.
///  * Every batch runs the exact executors, so each answer is the
///    bitwise-deterministic solution of T x = b. Single-RHS batches, k = 1
///    included, run packTiles → solveTiles → unpackTiles through the
///    leased context's pooled staging tiles; a lone multi-RHS request runs
///    solveMultiRhsTiled.
///  * Per-solver throughput/latency statistics aggregate via the
///    harness::stats quantile helpers (SolverServingStats).
///  * Request lifecycle (docs/ROBUSTNESS.md): SubmitOptions attach a
///    priority class and deadlines to each request; admission control
///    (EngineOptions::max_queue_depth, and the overload latch of
///    engine/overload.hpp under overload_control) resolves refused work
///    with typed EngineErrors. Every future resolves, whatever happens to
///    the engine.

namespace sts::engine {

/// One SLO controller decision, pure and unit-testable: given the recent
/// window p95 and the target, return the next team width. Steps are
/// proportional to the relative error — err = (p95 - target) / target —
/// instead of the former power-of-two grow/halve: width moves by
/// max(1, round(0.5 * |err| * current)) per decision, so a 2x violation
/// jumps straight toward base while a 10% one creeps, and small errors
/// inside the ±10% deadband hold (no oscillation at the target). Growth
/// needs only a violation; shrinking additionally needs a deep backlog
/// (cores freed must have queued work to serve, same asymmetry as before).
/// The result is clamped to [min_team, base].
int sloStep(double p95, double target, int current, int base, int min_team,
            bool deep_backlog);

/// The serving facade: register analyzed solvers, submit right-hand
/// sides, get futures. Construction spawns the workers; destruction
/// drains and joins them. All public methods are thread-safe. The
/// adaptive behavior is entirely options-driven — see the interaction
/// table in engine/types.hpp and docs/ARCHITECTURE.md.
class SolverEngine {
 public:
  explicit SolverEngine(EngineOptions options = {});
  /// Drains outstanding work, then stops the workers.
  ~SolverEngine();

  SolverEngine(const SolverEngine&) = delete;
  SolverEngine& operator=(const SolverEngine&) = delete;

  /// Registers an analyzed solver for serving. The engine shares ownership;
  /// callers may keep using the solver directly (context overloads only, if
  /// concurrent with serving). Thread-safe.
  SolverId registerSolver(std::shared_ptr<const exec::TriangularSolver> solver);

  /// Queue x = T^{-1} b (original row ordering), with the priority class
  /// and deadlines of `submit_options`. The answer is written into b's own
  /// buffer, so a caller that moves b in gets that buffer back. Refused or
  /// expired requests resolve the future with a typed EngineError
  /// (kRejected / kExpired / kShutdown) — it NEVER blocks forever. Throws
  /// EngineError{kShutdown} after shutdown, std::invalid_argument on a
  /// size mismatch, an unknown id, or a negative or NaN deadline.
  std::future<std::vector<double>> submit(
      SolverId id, std::vector<double> b,
      const SubmitOptions& submit_options = {});

  /// Queue an explicit multi-RHS solve, b row-major n x nrhs; the future
  /// carries x in the same layout. Multi-RHS requests are never coalesced
  /// with others — they already amortize internally. Otherwise as submit().
  std::future<std::vector<double>> submitMulti(
      SolverId id, std::vector<double> b, sts::index_t nrhs,
      const SubmitOptions& submit_options = {});

  /// Pause/resume dispatch (submissions still enqueue while paused).
  void pause();
  void resume();

  /// Blocks until every accepted submission has completed. Do not call
  /// concurrently with pause(); a paused engine cannot drain.
  void drain();

  /// Drains, then joins the workers. Idempotent; implied by destruction.
  /// Subsequent submissions throw.
  void shutdown();

  /// Fail-fast shutdown: queued (not yet popped) requests resolve their
  /// futures with EngineError{kShutdown} instead of executing; in-flight
  /// batches still finish (the executor is not preemptible). Idempotent,
  /// and safe to race with shutdown()/destruction — every queued request
  /// goes exactly one way (served, or failed-fast here).
  void stop();

  /// Snapshot of one solver's serving statistics. Thread-safe.
  SolverServingStats stats(SolverId id) const;

  /// Per-team compute-vs-wait attribution of one solver's batches
  /// (EngineOptions::trace; empty when tracing is off or compiled out).
  /// Rows are sorted by team. Thread-safe.
  std::vector<TraceSummaryRow> traceSummary(SolverId id) const;

  /// The engine's metric registry: per-solver latency histograms
  /// (`sts.solver<id>.latency_seconds`), request/batch counters, and the
  /// SLO controller's actuation counters, exportable via renderText() /
  /// renderJson(). Engine-private (not Registry::global()) so concurrent
  /// engines in one process never collide on names. Thread-safe.
  const obs::Registry& metrics() const { return metrics_; }

  const exec::TriangularSolver& solver(SolverId id) const;
  int numWorkers() const { return static_cast<int>(workers_.size()); }
  const EngineOptions& options() const { return options_; }
  /// Requests queued but not yet popped into a batch (load signal).
  std::size_t queueDepth() const { return queue_.size(); }
  /// The shared cross-batch core arbiter (limited() iff
  /// options().core_budget > 0). peakInUse() <= options().core_budget is
  /// the oversubscription invariant the tests pin.
  const CoreBudget& coreBudget() const { return budget_; }
  /// Whether the overload latch is engaged (false when overload_control is
  /// off). Observability for tests and benches.
  bool overloadEngaged() const { return overload_ && overload_->engaged(); }

 private:
  /// Sliding window of recent request latencies feeding the SLO
  /// controller's p95 (the registry histogram is cumulative — right for
  /// stats quantiles, wrong for a controller that must react to the
  /// current regime within one window).
  struct SloWindow {
    static constexpr std::size_t kSize = 64;
    std::array<double, kSize> samples{};
    std::size_t count = 0;  ///< total recorded (caps the valid prefix)
    std::size_t next = 0;   ///< ring cursor
  };

  /// Accumulated SolveTrace totals of one team width.
  struct TraceAccum {
    std::uint64_t batches = 0;
    std::uint64_t thread_steps = 0;
    std::uint64_t compute_ns = 0;
    std::uint64_t wait_ns = 0;
    std::uint64_t max_wait_ns = 0;
    double pack_seconds = 0.0;
    double unpack_seconds = 0.0;
  };

  struct Registered {
    std::shared_ptr<const exec::TriangularSolver> solver;
    std::unique_ptr<ContextPool> contexts;

    /// Registry-backed instruments (owned by the engine's metrics_; set
    /// once at registration, updated lock-free thereafter).
    obs::Histogram* latency_hist = nullptr;
    obs::Counter* requests_counter = nullptr;
    obs::Counter* rhs_solved_counter = nullptr;
    obs::Counter* batches_counter = nullptr;
    obs::Counter* slo_steps_counter = nullptr;
    /// Bytes the pool's staging tiles hold (ContextPool::stagingBytes),
    /// refreshed after every batch.
    obs::Gauge* staging_bytes_gauge = nullptr;

    /// The SLO controller's current team choice (0 = unset, meaning the
    /// base width). Cold-started by seedTeam at registration when
    /// target_p95 is set; thereafter written under stats_mu by the
    /// batch-completion controller step; read lock-free by chooseTeam.
    std::atomic<int> elastic_team{0};
    /// seedTeam's cold-start choice, for stats (0 = unseeded). Written
    /// once before the solver is published; never mutated after.
    int seeded_team = 0;

    /// Guards every serving statistic below (the submit and
    /// batch-completion paths both write them); compiler-enforced under
    /// Clang `-Wthread-safety`.
    mutable base::Mutex stats_mu;
    std::uint64_t requests STS_GUARDED_BY(stats_mu) = 0;
    std::uint64_t rhs_submitted STS_GUARDED_BY(stats_mu) = 0;
    std::uint64_t batches STS_GUARDED_BY(stats_mu) = 0;
    std::uint64_t batches_failed STS_GUARDED_BY(stats_mu) = 0;
    std::uint64_t rhs_solved STS_GUARDED_BY(stats_mu) = 0;
    std::uint64_t coalesced_rhs STS_GUARDED_BY(stats_mu) = 0;
    std::uint64_t shrunk_batches STS_GUARDED_BY(stats_mu) = 0;
    std::uint64_t budget_throttled_batches STS_GUARDED_BY(stats_mu) = 0;
    std::uint64_t expanded_batches STS_GUARDED_BY(stats_mu) = 0;
    std::uint64_t pinned_batches STS_GUARDED_BY(stats_mu) = 0;
    std::uint64_t pinned_threads STS_GUARDED_BY(stats_mu) = 0;
    std::uint64_t migrated_threads STS_GUARDED_BY(stats_mu) = 0;
    std::uint64_t tiled_batches STS_GUARDED_BY(stats_mu) = 0;
    std::uint64_t team_size_accum STS_GUARDED_BY(stats_mu) = 0;
    std::uint64_t slo_steps STS_GUARDED_BY(stats_mu) = 0;
    std::uint64_t rejected_requests STS_GUARDED_BY(stats_mu) = 0;
    std::uint64_t expired_requests STS_GUARDED_BY(stats_mu) = 0;
    double busy_seconds STS_GUARDED_BY(stats_mu) = 0.0;
    double pack_seconds STS_GUARDED_BY(stats_mu) = 0.0;
    double unpack_seconds STS_GUARDED_BY(stats_mu) = 0.0;
    /// Controller input: recent latencies only (stats quantiles come from
    /// latency_hist, which never forgets — see obs/registry.hpp).
    SloWindow slo_window STS_GUARDED_BY(stats_mu);
    /// traceSummary() rows, keyed by team; fed by each batch's armed
    /// SolveTrace when EngineOptions::trace is on.
    std::map<int, TraceAccum> trace_rows
        STS_GUARDED_BY(stats_mu);
    std::chrono::steady_clock::time_point first_submit STS_GUARDED_BY(stats_mu){};
    std::chrono::steady_clock::time_point last_complete STS_GUARDED_BY(stats_mu){};
    bool saw_submit STS_GUARDED_BY(stats_mu) = false;
    bool saw_complete STS_GUARDED_BY(stats_mu) = false;
  };

  void workerLoop();
  void executeBatch(std::vector<SolveRequest>& batch, std::size_t backlog);
  /// The base (shallow-queue) team width for one solver: team_size when
  /// pinned, else the solver's defaultTeam().
  int baseTeam(const exec::TriangularSolver& solver) const;
  /// Queue depth at or above which the elastic policies engage.
  std::size_t deepThreshold() const;
  /// The elasticity policy: per-batch OpenMP team size. Depth-only mode
  /// (target_p95 == 0) shrinks toward base/num_workers under a deep queue;
  /// SLO mode returns the controller's current per-solver choice. Folding
  /// keeps every choice bitwise-lossless (solver.hpp contract).
  int chooseTeam(const Registered& reg, std::size_t backlog) const;
  /// One SLO controller step after a batch completes: p95 over the recent
  /// latency window vs. target_p95 decides grow / shrink / hold, with
  /// proportional error-sized steps (see engine::sloStep). Caller holds
  /// reg.stats_mu — compiler-enforced via STS_REQUIRES under Clang.
  void updateController(Registered& reg, int base, std::size_t backlog)
      STS_REQUIRES(reg.stats_mu);
  /// SLO cold start (elastic + target_p95 only): estimate the per-solve
  /// cost at registration — one warmed probe solve on a budget-leased
  /// team (never oversubscribing concurrent batches) with the fold policy
  /// the engine will serve, scaled to other teams by the
  /// schedule's folded-makespan ratios (core::foldedMakespanAt) — and
  /// return the smallest power-of-two step of the controller's lattice
  /// whose estimate still fits inside half the p95 target (headroom for
  /// queueing). The first window is then served at a width the target can
  /// afford instead of always at base.
  int seedTeam(const exec::TriangularSolver& solver);
  /// Coalescing cap for the next pop: max_batch, raised toward
  /// 2 * max_batch under a deep queue when adaptive_batch is on.
  sts::index_t effectiveBatchCap(std::size_t depth) const;
  /// Retires `count` in-flight submissions; wakes drain() on zero. Every
  /// in_flight_ decrement must go through here or drain() can sleep
  /// through the last completion.
  void noteRetired(std::int64_t count);
  /// Resolves EngineOptions::{core_budget,core_set,pin_threads} into the
  /// engine's CoreBudget: core-set mode when ids are given or detectable
  /// (truncated to the first core_budget ids when both are set), counting
  /// mode otherwise.
  static CoreBudget makeBudget(const EngineOptions& options);
  Registered& registered(SolverId id) const;
  /// Validate sizes/deadlines and build the internal request record.
  SolveRequest buildRequest(SolverId id, std::vector<double> b,
                            sts::index_t nrhs, const SubmitOptions& opts,
                            Registered** reg_out);
  /// Admission control + enqueue: either the request lands in the queue
  /// (admitted) or its future resolves with a typed EngineError right here
  /// (kRejected on a full queue, or for throughput work while the overload
  /// latch is engaged); throws EngineError{kShutdown} when the queue is
  /// closed. Feeds the overload controller on every accepted submission.
  void dispatch(SolveRequest&& request, Registered& reg);
  /// Resolve `request` with EngineError{kRejected} and account it.
  void rejectRequest(SolveRequest&& request, Registered& reg,
                     const char* why);
  /// Resolve lazily-expired requests (swept out by popBatch) with
  /// EngineError{kExpired} and retire them from in_flight_.
  void failExpired(std::vector<SolveRequest>& expired);
  /// The overload controller's input: queueDelayEstimate over the queue
  /// depth in batches of the next pop's coalescing cap, the p50 batch
  /// seconds and the oldest queued wait — the latter keeps a stalled
  /// worker visible when depth alone is static.
  double estQueueDelay(std::chrono::steady_clock::time_point now) const;
  /// One latch decision off a fresh delay estimate; a flip emits an
  /// `overload_step` trace instant and counts in sts.engine.overload_steps.
  void overloadUpdate(std::chrono::steady_clock::time_point now);

  EngineOptions options_;
  RequestQueue queue_;
  CoreBudget budget_;
  /// Engine-private metric registry (see metrics()).
  obs::Registry metrics_;
  /// pin_threads requested AND the budget carries a core set AND the
  /// platform has affinity syscalls — the three conditions under which
  /// executeBatch arms per-batch pinning.
  bool pin_enabled_ = false;
  /// The overload latch (EngineOptions::overload_control; null = off).
  std::unique_ptr<OverloadController> overload_;
  /// Engine-wide lifecycle instruments (owned by metrics_, set in the
  /// ctor, updated lock-free).
  obs::Histogram* batch_seconds_hist_ = nullptr;
  obs::Counter* admitted_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* expired_counter_ = nullptr;
  obs::Counter* overload_steps_counter_ = nullptr;
  /// Cached p50 of sts.engine.batch_seconds, refreshed at each batch
  /// completion so the submit-path delay estimate never walks histogram
  /// buckets.
  std::atomic<double> batch_p50_{0.0};
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};

  mutable base::Mutex solvers_mu_;
  std::vector<std::unique_ptr<Registered>> solvers_ STS_GUARDED_BY(solvers_mu_);

  /// Accepted-but-incomplete submissions; drain() waits for zero.
  std::atomic<std::int64_t> in_flight_{0};
  /// Pairs with drain_cv_ only: the waited-on state (in_flight_) is an
  /// atomic, so the mutex carries no guarded data — it exists to make the
  /// sleep/notify race-free.
  base::Mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace sts::engine

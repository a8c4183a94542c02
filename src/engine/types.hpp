#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "sparse/types.hpp"

/// \file types.hpp
/// Shared vocabulary of the serving subsystem: solver handles, engine
/// configuration, the internal request record, and the per-solver serving
/// statistics snapshot.

namespace sts::engine {

/// Handle returned by SolverEngine::registerSolver; indexes are dense and
/// never recycled for the engine's lifetime.
using SolverId = std::uint32_t;

/// Scheduling class of a submission (SubmitOptions::priority).
///
/// kLatency requests are interactive traffic: they jump the queue ahead of
/// throughput work, are never coalesced behind a throughput batch, and are
/// still admitted while the overload latch is engaged. kThroughput (the
/// default) is bulk work that tolerates queueing: it ages into batches
/// under latency pressure (the starvation bump) and is the class the latch
/// rejects when the engine saturates.
enum class RequestPriority {
  kThroughput,
  kLatency,
};

inline const char* requestPriorityName(RequestPriority priority) {
  return priority == RequestPriority::kLatency ? "latency" : "throughput";
}

/// Per-submission lifecycle knobs (the last, defaulted parameter of
/// submit()/submitMulti()). Durations are relative to the submit call; 0
/// disables the respective deadline, and a budget too far out for the
/// steady clock to represent (+inf included) never expires.
struct SubmitOptions {
  RequestPriority priority = RequestPriority::kThroughput;
  /// End-to-end budget: a request not yet COMMITTED to a batch when this
  /// expires is lazily dropped at the next queue pop and its future
  /// resolves with EngineError{kExpired}. 0 = no deadline. (Once a worker
  /// commits a batch it always finishes it — the executor is not
  /// preemptible — so expiry is an admission-side contract.)
  double deadline_seconds = 0.0;
  /// Queue-wait-only budget, tighter than `deadline_seconds` for requests
  /// that would rather fail fast than serve a stale answer. 0 = none.
  double max_queue_wait_seconds = 0.0;
};

/// Why a request's future was resolved exceptionally (EngineError::code).
enum class EngineErrorCode {
  kRejected,  ///< admission control refused it (queue full / latch engaged)
  kExpired,   ///< deadline or max_queue_wait elapsed while queued
  kShutdown,  ///< the engine stopped before the request could run
};

inline const char* engineErrorCodeName(EngineErrorCode code) {
  switch (code) {
    case EngineErrorCode::kRejected: return "rejected";
    case EngineErrorCode::kExpired: return "expired";
    case EngineErrorCode::kShutdown: return "shutdown";
  }
  return "unknown";
}

/// The typed error every non-completed request resolves with — futures
/// NEVER dangle unresolved, whatever happens to the engine (the lifecycle
/// contract, docs/ROBUSTNESS.md). Derives from std::runtime_error so
/// pre-existing catch sites keep working.
class EngineError : public std::runtime_error {
 public:
  EngineError(EngineErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  EngineErrorCode code() const { return code_; }

 private:
  EngineErrorCode code_;
};

/// ## How the adaptive options interact
///
/// `fold_policy` (exec::SolverOptions), `target_p95`, `core_budget`,
/// `core_set`, and `pin_threads` compose; each owns one decision:
///
/// | Option                 | Decides                 | Interaction |
/// |------------------------|-------------------------|-------------|
/// | `elastic`              | whether team sizes adapt at all | master switch; `team_size` is the base width it adapts from |
/// | `target_p95`           | HOW the team size is chosen | 0: depth-only rule (deep queue divides base across workers); >0: per-solver SLO controller (grow on p95 violation, shrink under slack + backlog), cold-started from the analyze-time cost model (`seeded_team`). Requires `elastic`. |
/// | `core_budget`          | HOW MANY cores all batches may hold in aggregate | the chosen (desired) team is capped by the grant; grants below desire count as `budget_throttled_batches`. 0 = unlimited. |
/// | `core_set`             | WHICH cores back the budget | non-empty switches CoreBudget to core-set mode: grants are explicit disjoint CPU ids; `core_budget` > 0 additionally truncates the set to its first `core_budget` ids |
/// | `pin_threads`          | WHERE the granted team executes | pins each team member to one leased id (auto-detects `core_set` from the process mask when empty); placement only — results stay bitwise identical |
/// | `fold_policy` (solver) | HOW ranks map onto the granted width | kModulo / kBinPack; any width from the rules above executes losslessly |
/// | `max_queue_depth`      | HOW MUCH backlog the queue may hold | 0 (default): unbounded (every accepted submission queues). >0: submissions beyond the bound resolve their future with `EngineError{kRejected}` — bounded memory and bounded queue delay instead of queue collapse. Composes with every row above; rejection happens before any adaptive machinery sees the request |
/// | `overload_control`     | WHETHER the overload latch runs | off (default): nothing is rejected by pressure. on: an `OverloadController` estimates queue delay from the queued depth, counted in batches of the coalescing cap, x the registry's batch-latency p50 (and the oldest queued wait — `queueDelayEstimate`); once it reaches `overload_target_delay` the latch engages and rejects new throughput-class submissions (latency-class work is still admitted) until the delay falls to (1 - `overload_hysteresis`) x target. Every admitted batch still runs the exact executors. Each flip is an `overload_step` trace instant; admissions and refusals count in `sts.engine.admitted/rejected/expired/overload_steps` |
/// | `trace`                | WHETHER batches attribute compute vs. wait | on (default): every batch arms a per-solve obs::SolveTrace so `traceSummary()` aggregates per-superstep compute/wait per team; executor threads batch the accounting locally and flush once per region. off: attribution idle (executors see a null sink — one branch per call site). Independent of the process-wide obs::TraceSession (Perfetto spans), which any thread can start regardless. Orthogonal to all rows above — tracing never changes results (bitwise) |
///
/// Pipeline per batch: elastic policy picks a DESIRED width → CoreBudget
/// grants an actual width (and, in core-set mode, which cores) →
/// `fold_policy` folds the schedule onto that width (the folded plan walks
/// the analyzed CSR) → `pin_threads` nails each team member to its leased
/// core. Every stage is bitwise-lossless, so all the options can be
/// toggled freely in production.
struct EngineOptions {
  /// Persistent dispatcher threads executing batches. Each concurrent
  /// batch additionally spins up the solver's own OpenMP team, so the
  /// total thread footprint is num_workers * solver num_threads.
  int num_workers = 2;
  /// Maximum right-hand sides coalesced into one batch solve. The batch
  /// amortizes every superstep barrier across its columns (the Table 7.7
  /// block-parallel effect applied to serving); each pooled context's
  /// staging tiles grow to at most 2 x n x max_batch doubles (twice that
  /// with `adaptive_batch`).
  sts::index_t max_batch = 8;
  /// Coalesce compatible queued single-RHS requests into batches. When
  /// false every request executes alone (useful to force per-request
  /// concurrency in stress tests).
  bool coalesce = true;
  /// Start with dispatch paused; submissions queue up until resume().
  /// Lets benchmarks and tests stage a backlog deterministically.
  bool start_paused = false;

  /// Per-batch OpenMP team size (clamped to the solver's analyzed width).
  /// 0 = the solver's defaultTeam(). Without `elastic` this pins every
  /// batch (a benchmarking knob); with `elastic` it sets the base width
  /// the policy shrinks from under load.
  int team_size = 0;
  /// Load-adaptive team sizing: a deep queue trades per-solve parallelism
  /// for cross-solve concurrency — batches run on shrunk teams (the base
  /// width divided across the workers) so more of them execute at once; a
  /// shallow queue keeps full-width solves for minimum latency. Schedule
  /// folding makes every team choice bitwise-lossless. With `target_p95`
  /// set the depth-only rule is replaced by the SLO-driven controller.
  bool elastic = false;
  /// Smallest team the elastic policy may choose (>= 1; values above the
  /// base width are capped by it).
  int elastic_min_team = 1;
  /// Queue depth (requests still pending at batch pop) at or above which
  /// the elastic policy shrinks teams. 0 = num_workers.
  std::size_t elastic_deep_queue = 0;
  /// Per-solver p95 latency target in seconds for the SLO-driven elastic
  /// controller (requires `elastic`; 0 keeps the depth-only policy). The
  /// controller watches a sliding window of recent request latencies per
  /// solver: while the window p95 violates the target it grows teams
  /// toward the base width (spend cores on latency); while it is under
  /// target AND the queue is deep it shrinks them toward
  /// `elastic_min_team` (spend cores on cross-solve concurrency instead).
  double target_p95 = 0.0;
  /// Aggregate core budget shared by ALL workers and solvers: the sum of
  /// concurrently granted per-batch team sizes never exceeds it, so
  /// concurrent batches cannot oversubscribe the machine no matter how
  /// many workers or solvers are active. Workers lease cores from the
  /// shared CoreBudget before each batch (blocking when exhausted) and run
  /// on exactly the granted width. 0 = unlimited (PR 2 behavior).
  int core_budget = 0;
  /// Explicit logical CPU ids backing the core budget. Non-empty switches
  /// engine::CoreBudget into core-set mode: every batch's lease names
  /// concrete, mutually disjoint CPU ids instead of an anonymous count
  /// (ids must be unique and >= 0; `core_budget` > 0 truncates the set to
  /// its first `core_budget` ids). Empty with `pin_threads` set: the set
  /// is auto-detected from the process affinity mask (sched_getaffinity).
  /// Empty without `pin_threads`: counting mode (PR 3 behavior).
  std::vector<int> core_set = {};
  /// Pin each batch's OpenMP team members to the batch's leased core ids
  /// (one stable core per member, exec::ScopedPin inside the solve region,
  /// previous mask restored on exit) so concurrent batches run on
  /// non-overlapping cores and folded ranks stop migrating across caches.
  /// Requires a core set (explicit or auto-detected) and platform affinity
  /// support (STS_HAS_AFFINITY); silently runs unpinned otherwise — the
  /// portable fallback. Placement only: results are bitwise identical to
  /// unpinned solves. Pin outcomes are reported in SolverServingStats.
  bool pin_threads = false;
  /// Couple the coalescing budget to the elastic policy: while the queue
  /// is deep (teams shrink) the effective batch cap rises toward
  /// 2 * max_batch — deeper amortization exactly when backlog can feed
  /// it — and a shallow queue restores `max_batch`. Active only with
  /// `elastic`; off by default because it doubles the per-batch staging
  /// memory and coalesced-request latency envelope `max_batch` implies.
  bool adaptive_batch = false;
  /// Bound on queued (not yet popped) requests; pushes beyond it resolve
  /// the future with EngineError{kRejected}. 0 = unbounded (legacy).
  std::size_t max_queue_depth = 0;
  /// Master switch of the overload latch (see the option table row
  /// above). Off by default: nothing is rejected by pressure.
  bool overload_control = false;
  /// Estimated queue delay (seconds) at which the latch engages. Smaller =
  /// the engine starts refusing throughput-class work earlier. Must be > 0
  /// when `overload_control` is set.
  double overload_target_delay = 0.05;
  /// Release margin in target-delay units: an engaged latch releases only
  /// once the delay falls to (1 - this) x target, so it cannot dither at
  /// the target — the same asymmetry as the SLO controller's deadband.
  /// Must be >= 0.
  double overload_hysteresis = 0.5;
  /// Arm per-batch compute-vs-wait attribution (obs::SolveTrace on the
  /// leased context): `traceSummary()` then reports per-superstep compute
  /// and barrier/p2p-wait time per team width. The cost
  /// is one branch per superstep per executor thread plus two atomic adds
  /// per thread per batch — on by default. Off makes executors see a null
  /// sink. Orthogonal to the process-wide obs::TraceSession; disabling
  /// `trace` does not stop session spans, and neither changes results.
  bool trace = true;
};

/// One queued solve. `b` is row-major n x nrhs in the ORIGINAL row
/// ordering; the fulfilled future carries x in the same layout. The engine
/// leaves the answer in `b` and moves it into the future, and a
/// single-RHS batch writes it into b's own buffer, so that answer comes
/// back in the very buffer the caller submitted. The engine resolves the
/// promise exactly once (value, or a typed EngineError / solve exception).
struct SolveRequest {
  SolverId solver = 0;
  sts::index_t nrhs = 1;
  std::vector<double> b;
  std::promise<std::vector<double>> promise;
  std::chrono::steady_clock::time_point submitted{};
  RequestPriority priority = RequestPriority::kThroughput;
  /// Absolute lazy-expiry point: min over the submission's deadline and
  /// max-queue-wait budgets (time_point::max() = never). A request still
  /// queued past this resolves with EngineError{kExpired} at the next pop.
  std::chrono::steady_clock::time_point expires_at =
      std::chrono::steady_clock::time_point::max();
};

/// Per-solver serving statistics (SolverEngine::stats snapshot).
struct SolverServingStats {
  std::uint64_t requests = 0;        ///< submissions accepted
  std::uint64_t rhs_submitted = 0;   ///< total RHS columns submitted
  std::uint64_t batches = 0;         ///< executor invocations
  std::uint64_t batches_failed = 0;  ///< invocations that threw
  std::uint64_t rhs_solved = 0;      ///< total RHS columns completed
  double mean_batch_rhs = 0.0;       ///< rhs_solved / successful batches
  std::uint64_t coalesced_rhs = 0;   ///< RHS solved in multi-request batches
  double busy_seconds = 0.0;         ///< summed batch execution time
  /// Batches executed on a team smaller than the elastic base width (the
  /// adaptive policies shrink, and a CoreBudget grant below the base also
  /// counts; a fixed team_size without contention is the base itself).
  std::uint64_t shrunk_batches = 0;
  double mean_team_size = 0.0;       ///< average OpenMP team per batch
  /// Batches whose CoreBudget grant came back smaller than the desired
  /// team (budget contention; 0 when core_budget is unlimited).
  std::uint64_t budget_throttled_batches = 0;
  /// Batches popped beyond max_batch columns by the adaptive coalescing
  /// cap (EngineOptions::adaptive_batch under a deep queue).
  std::uint64_t expanded_batches = 0;
  /// Batches executed with their OpenMP team pinned to the leased core set
  /// (EngineOptions::pin_threads with affinity support; 0 otherwise).
  std::uint64_t pinned_batches = 0;
  /// Team members successfully pinned to a leased core, summed over
  /// pinned batches.
  std::uint64_t pinned_threads = 0;
  /// Pinned members found executing OUTSIDE their batch's leased set when
  /// the pin was taken — OS migrations the pin corrected (the locality
  /// leak of unpinned elastic serving, made visible).
  std::uint64_t migrated_threads = 0;
  /// Multi-RHS batches, all run on the solver's column tiles: a
  /// coalesced batch of k > 1 requests (packed into pooled staging tiles
  /// and solved via solveTiles) or a lone submitMulti request
  /// (solveMultiRhsTiled). Single-column batches do not count.
  std::uint64_t tiled_batches = 0;
  /// Summed wall time spent packing request vectors into the staging tiles
  /// of every single-RHS batch (k = 1 included) before the solve, per
  /// solver. Lone multi-RHS requests are permuted inside the solve and add
  /// nothing here.
  double pack_seconds = 0.0;
  /// Summed wall time spent unpacking the solved batch back into the
  /// requests' own b vectors, which then carry the answers; same batches
  /// as pack_seconds.
  double unpack_seconds = 0.0;
  /// The SLO controller's cold-start team: seeded at registerSolver time
  /// from the analyze-time cost model (a probe solve scaled by folded
  /// makespan ratios) so the first window is not blindly served at the
  /// base width when the target leaves room to shrink. 0 = unseeded (no
  /// SLO target, or the model kept the base width).
  int seeded_team = 0;
  /// SLO controller actuations: decisions that actually CHANGED the team
  /// width (holds — at the base, inside the deadband, or under slack with
  /// a shallow queue — do not count). Each actuation is also emitted as an
  /// `slo_step` trace instant when a TraceSession is active.
  std::uint64_t slo_steps = 0;
  /// Submissions refused by admission control (bounded queue full, or
  /// throughput-class work while the overload latch is engaged) or failed
  /// fast by stop(). Their futures resolved with EngineError{kRejected}
  /// (kShutdown for stop()).
  std::uint64_t rejected_requests = 0;
  /// Requests lazily dropped at queue pop because their deadline or
  /// max-queue-wait budget elapsed (EngineError{kExpired}).
  std::uint64_t expired_requests = 0;
  /// Latency quantiles over every completion, from the registry's
  /// log-bucketed histogram (<= ~9% relative bucket error — see
  /// obs/registry.hpp; prior PRs computed them exactly over a 64Ki-sample
  /// window).
  double latency_p50_seconds = 0.0;  ///< request submit -> completion
  double latency_p95_seconds = 0.0;
  /// rhs_solved / (last completion - first submission); 0 until the first
  /// batch completes.
  double throughput_rhs_per_second = 0.0;
};

/// One per-team attribution row of SolverEngine::traceSummary(): where
/// the batches run at that team width spent their executor time, split
/// into per-superstep compute and synchronization wait (BSP barrier
/// crossings + P2P dependency spins) as measured by the per-thread
/// StepTracers. Wait fraction is the paper's Table 7.2 axis — barrier
/// overhead share — observable on production solves.
struct TraceSummaryRow {
  int team = 0;  ///< granted OpenMP team width of these batches
  std::uint64_t batches = 0;       ///< batches aggregated into this row
  std::uint64_t thread_steps = 0;  ///< (superstep, thread) pairs executed
  double compute_seconds = 0.0;    ///< summed per-thread compute time
  double wait_seconds = 0.0;       ///< summed barrier/p2p wait time
  /// Engine-side RHS staging cost of these batches (the pack into the
  /// batch layout and the unpack back into the requests' vectors; see
  /// SolverServingStats::pack_seconds).
  double pack_seconds = 0.0;
  double unpack_seconds = 0.0;
  /// Longest single barrier/p2p wait any thread saw (straggler signal).
  double max_wait_seconds = 0.0;
  /// wait / (compute + wait); 0 when nothing was measured.
  double wait_fraction = 0.0;
};

}  // namespace sts::engine

#include "engine/solver_engine.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/sync.hpp"
#include "exec/affinity.hpp"
#include "fault/failpoint.hpp"
#include "obs/trace.hpp"

namespace sts::engine {

namespace {
/// Release margin of the overload latch in target-delay units: an engaged
/// latch releases once the estimated delay falls to half the target, so
/// a load hovering at the target cannot make it dither.
constexpr double kOverloadHysteresis = 0.5;

std::string solverMetric(SolverId id, const char* name) {
  return "sts.solver" + std::to_string(id) + "." + name;
}
}  // namespace

CoreBudget SolverEngine::makeBudget(const EngineOptions& options) {
  std::vector<int> ids = options.core_set;
  if (ids.empty() && options.pin_threads) {
    // Auto-detect: the CPUs this process may use become the core universe.
    // Empty on platforms without affinity support — counting mode below.
    ids = exec::systemCoreSet();
  }
  if (!ids.empty()) {
    if (options.core_budget > 0 &&
        static_cast<int>(ids.size()) > options.core_budget) {
      // Both knobs set: the budget caps how much of the set is usable.
      std::sort(ids.begin(), ids.end());
      ids.resize(static_cast<std::size_t>(options.core_budget));
    }
    return CoreBudget(std::move(ids));
  }
  return CoreBudget(options.core_budget);
}

SolverEngine::SolverEngine(EngineOptions options)
    : options_(std::move(options)),
      queue_(options_.max_queue_depth),
      budget_(makeBudget(options_)),
      pin_enabled_(options_.pin_threads && budget_.hasCoreSet() &&
                   exec::affinitySupported()) {
  if (options_.num_workers <= 0) {
    throw std::invalid_argument("SolverEngine: num_workers must be > 0");
  }
  if (options_.max_batch <= 0) {
    throw std::invalid_argument("SolverEngine: max_batch must be > 0");
  }
  if (options_.team_size < 0) {
    throw std::invalid_argument("SolverEngine: team_size must be >= 0");
  }
  if (options_.core_budget < 0) {
    throw std::invalid_argument("SolverEngine: core_budget must be >= 0");
  }
  // Negated so that a NaN target fails too: it would otherwise turn every
  // latch input into NaN.
  if (options_.overload_control && !(options_.overload_target_delay > 0.0)) {
    throw std::invalid_argument(
        "SolverEngine: overload_target_delay must be > 0");
  }
  // Engine-wide lifecycle instruments exist whether or not the latch
  // runs: admitted/rejected/expired count the bounded-queue and deadline
  // machinery too, and the batch-seconds histogram doubles as the
  // controller's service-rate model.
  batch_seconds_hist_ = &metrics_.histogram("sts.engine.batch_seconds");
  admitted_counter_ = &metrics_.counter("sts.engine.admitted");
  rejected_counter_ = &metrics_.counter("sts.engine.rejected");
  expired_counter_ = &metrics_.counter("sts.engine.expired");
  overload_steps_counter_ = &metrics_.counter("sts.engine.overload_steps");
  if (options_.overload_control) {
    overload_ = std::make_unique<OverloadController>(
        options_.overload_target_delay, kOverloadHysteresis);
  }
  if (options_.start_paused) queue_.pause();
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

SolverEngine::~SolverEngine() { shutdown(); }

SolverId SolverEngine::registerSolver(
    std::shared_ptr<const exec::TriangularSolver> solver) {
  if (!solver) {
    throw std::invalid_argument("SolverEngine::registerSolver: null solver");
  }
  auto reg = std::make_unique<Registered>();
  reg->contexts = std::make_unique<ContextPool>(*solver);
  reg->solver = std::move(solver);
  base::MutexLock lock(solvers_mu_);
  const auto id = static_cast<SolverId>(solvers_.size());
  // Registry-backed instruments, named per solver id. Created before the
  // solver is published, so workers never observe null instrument
  // pointers.
  reg->latency_hist = &metrics_.histogram(solverMetric(id, "latency_seconds"));
  reg->requests_counter = &metrics_.counter(solverMetric(id, "requests"));
  reg->rhs_solved_counter = &metrics_.counter(solverMetric(id, "rhs_solved"));
  reg->batches_counter = &metrics_.counter(solverMetric(id, "batches"));
  reg->staging_bytes_gauge =
      &metrics_.gauge(solverMetric(id, "staging_bytes"));
  solvers_.push_back(std::move(reg));
  return id;
}

SolverEngine::Registered& SolverEngine::registered(SolverId id) const {
  base::MutexLock lock(solvers_mu_);
  if (static_cast<std::size_t>(id) >= solvers_.size()) {
    throw std::invalid_argument("SolverEngine: unknown solver id");
  }
  return *solvers_[static_cast<std::size_t>(id)];
}

SolveRequest SolverEngine::buildRequest(SolverId id, std::vector<double> b,
                                        sts::index_t nrhs,
                                        const SubmitOptions& opts,
                                        Registered** reg_out) {
  Registered& reg = registered(id);
  const auto n = static_cast<std::size_t>(reg.solver->numRows());
  if (nrhs <= 0 || b.size() != n * static_cast<std::size_t>(nrhs)) {
    throw std::invalid_argument("SolverEngine::submit: rhs size mismatch");
  }
  // Negated so that a NaN budget is refused instead of read as "none".
  if (!(opts.deadline_seconds >= 0.0) ||
      !(opts.max_queue_wait_seconds >= 0.0)) {
    throw std::invalid_argument(
        "SolverEngine::submit: deadline must be >= 0 and not NaN");
  }
  SolveRequest request;
  request.solver = id;
  request.nrhs = nrhs;
  request.b = std::move(b);
  request.submitted = std::chrono::steady_clock::now();
  request.priority = opts.priority;
  // The two budgets collapse into one absolute lazy-expiry point (the
  // queue sweeps on expires_at only); 0 disables a budget. A budget past
  // the clock's range (+inf included) never expires: cast to the clock's
  // integer ticks it would overflow into the past instead. The comparison
  // runs in double ticks, and a double below the room there stays within
  // it once cast, so the sum cannot overflow.
  const auto budget = [&](double seconds) {
    using Clock = std::chrono::steady_clock;
    const std::chrono::duration<double> wanted(seconds);
    if (wanted >= Clock::time_point::max() - request.submitted) {
      return Clock::time_point::max();
    }
    return request.submitted +
           std::chrono::duration_cast<Clock::duration>(wanted);
  };
  if (opts.deadline_seconds > 0.0) {
    request.expires_at = budget(opts.deadline_seconds);
  }
  if (opts.max_queue_wait_seconds > 0.0) {
    request.expires_at =
        std::min(request.expires_at, budget(opts.max_queue_wait_seconds));
  }
  *reg_out = &reg;
  return request;
}

void SolverEngine::rejectRequest(SolveRequest&& request, Registered& reg,
                                 const char* why) {
  STS_TRACE_INSTANT("engine", "rejected", "solver",
                    static_cast<std::uint64_t>(request.solver));
  rejected_counter_->inc();
  {
    base::MutexLock lock(reg.stats_mu);
    reg.rejected_requests += 1;
  }
  request.promise.set_exception(std::make_exception_ptr(EngineError(
      EngineErrorCode::kRejected,
      std::string("SolverEngine: request rejected (") + why + ")")));
  noteRetired(1);
}

void SolverEngine::dispatch(SolveRequest&& request, Registered& reg) {
  [[maybe_unused]] const SolverId id = request.solver;  // trace args only
  const sts::index_t nrhs = request.nrhs;
  const auto submitted = request.submitted;
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  // While the overload latch is engaged only latency-class work is still
  // admitted.
  if (overload_ && request.priority == RequestPriority::kThroughput &&
      overload_->engaged()) {
    rejectRequest(std::move(request), reg, "overload latch engaged");
    return;
  }
  switch (queue_.push(std::move(request))) {
    case RequestQueue::PushResult::kClosed:
      // The caller still holds the future, but submit() propagates this
      // throw instead of returning it — the legacy shutdown contract.
      noteRetired(1);  // plain fetch_sub here could strand a drain() waiter
      throw EngineError(EngineErrorCode::kShutdown,
                        "SolverEngine: submit after shutdown");
    case RequestQueue::PushResult::kFull:
      // push leaves the request untouched on kFull, so it is still ours
      // to fail — bounded queues reject instead of queueing unboundedly.
      rejectRequest(std::move(request), reg, "queue full");
      return;
    case RequestQueue::PushResult::kAccepted:
      break;
  }
  STS_TRACE_INSTANT("engine", "submit", "solver",
                    static_cast<std::uint64_t>(id), "nrhs",
                    static_cast<std::uint64_t>(nrhs));
  admitted_counter_->inc();
  reg.requests_counter->inc();
  // Stats count accepted submissions only, hence after the push. A worker
  // may finish the request before this runs; the counters are monotonic
  // and `submitted` was captured pre-push, so nothing skews.
  {
    base::MutexLock lock(reg.stats_mu);
    reg.requests += 1;
    reg.rhs_submitted += static_cast<std::uint64_t>(nrhs);
    if (!reg.saw_submit) {
      reg.first_submit = submitted;
      reg.saw_submit = true;
    }
  }
  // The submit path feeds the latch too: under a stalled or saturated
  // worker pool, batch completions (the other feed) may be rare exactly
  // when pressure is building.
  if (overload_) overloadUpdate(std::chrono::steady_clock::now());
}

std::future<std::vector<double>> SolverEngine::submit(
    SolverId id, std::vector<double> b, const SubmitOptions& submit_options) {
  return submitMulti(id, std::move(b), 1, submit_options);
}

std::future<std::vector<double>> SolverEngine::submitMulti(
    SolverId id, std::vector<double> b, sts::index_t nrhs,
    const SubmitOptions& submit_options) {
  Registered* reg = nullptr;
  SolveRequest request = buildRequest(id, std::move(b), nrhs, submit_options,
                                      &reg);
  auto future = request.promise.get_future();
  dispatch(std::move(request), *reg);
  return future;
}

void SolverEngine::pause() { queue_.pause(); }

void SolverEngine::resume() { queue_.resume(); }

void SolverEngine::drain() {
  base::MutexLock lock(drain_mu_);
  // Explicit wait loop (not a predicate lambda) per the base/sync.hpp
  // discipline; the predicate itself reads only the atomic in_flight_.
  while (in_flight_.load(std::memory_order_acquire) != 0) {
    drain_cv_.wait(lock.native());
  }
}

void SolverEngine::shutdown() {
  if (stopped_.exchange(true)) return;
  queue_.close();  // close ignores pause, so queued work still drains
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void SolverEngine::stop() {
  // Fail-fast the backlog BEFORE joining: a paused engine's workers are
  // parked in popBatch and wake from the close to an empty queue, because
  // closing and draining are one step under the queue lock. Requests a
  // worker popped before it simply execute — each request goes exactly
  // one way.
  auto queued = queue_.closeAndDrain();
  for (auto& request : queued) {
    Registered& reg = registered(request.solver);
    {
      base::MutexLock lock(reg.stats_mu);
      reg.rejected_requests += 1;
    }
    rejected_counter_->inc();
    request.promise.set_exception(std::make_exception_ptr(
        EngineError(EngineErrorCode::kShutdown,
                    "SolverEngine: stopped before dispatch")));
  }
  if (!queued.empty()) noteRetired(static_cast<std::int64_t>(queued.size()));
  if (stopped_.exchange(true)) return;
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void SolverEngine::failExpired(std::vector<SolveRequest>& expired) {
  for (auto& request : expired) {
    Registered& reg = registered(request.solver);
    STS_TRACE_INSTANT("engine", "expired", "solver",
                      static_cast<std::uint64_t>(request.solver));
    expired_counter_->inc();
    {
      base::MutexLock lock(reg.stats_mu);
      reg.expired_requests += 1;
    }
    request.promise.set_exception(std::make_exception_ptr(
        EngineError(EngineErrorCode::kExpired,
                    "SolverEngine: deadline expired before dispatch")));
  }
  noteRetired(static_cast<std::int64_t>(expired.size()));
}

void SolverEngine::workerLoop() {
  for (;;) {
    std::size_t backlog = 0;
    std::vector<SolveRequest> expired;
    auto batch = queue_.popBatch(options_.max_batch, &backlog, &expired);
    // Stalled-worker failpoint (delay/stall actions only: a throw here
    // would escape the thread function). Sits between pop and execute so
    // a stall holds a COMMITTED batch — the regime where queue depth
    // stops moving but the head age keeps growing.
    STS_FAILPOINT("engine.worker_pop");
    if (!expired.empty()) failExpired(expired);
    if (batch.empty()) {
      if (!expired.empty()) continue;  // only dead work this pop
      return;                          // closed and drained
    }
    executeBatch(batch, backlog);
    noteRetired(static_cast<std::int64_t>(batch.size()));
  }
}

double SolverEngine::estQueueDelay(
    std::chrono::steady_clock::time_point now) const {
  return queueDelayEstimate(batch_p50_.load(std::memory_order_relaxed),
                            queue_.size(),
                            static_cast<std::size_t>(options_.max_batch),
                            workers_.size(), queue_.oldestWaitSeconds(now));
}

void SolverEngine::overloadUpdate(std::chrono::steady_clock::time_point now) {
  const std::optional<bool> flipped = overload_->update(estQueueDelay(now));
  if (!flipped) return;
  overload_steps_counter_->inc();
  STS_TRACE_INSTANT("engine", "overload_step", "engaged", *flipped ? 1 : 0);
}

int SolverEngine::baseTeam(const exec::TriangularSolver& solver) const {
  return options_.team_size > 0
             ? std::min(options_.team_size, solver.numThreads())
             : solver.defaultTeam();
}

void SolverEngine::noteRetired(std::int64_t count) {
  const auto prev = in_flight_.fetch_sub(count, std::memory_order_acq_rel);
  if (prev == count) {
    base::MutexLock lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

void SolverEngine::executeBatch(std::vector<SolveRequest>& batch,
                                [[maybe_unused]] std::size_t backlog) {
  Registered& reg = registered(batch.front().solver);
  const exec::TriangularSolver& solver = *reg.solver;
  const std::size_t k = batch.size();
  const int desired = baseTeam(solver);
#if STS_TRACING
  // Close each request's queue-wait span (submit -> this worker committing
  // to it) and mark the coalescing decision, before the lease can block.
  {
    const std::uint64_t popped_ns = obs::nowNanos();
    for (const SolveRequest& request : batch) {
      STS_TRACE_SPAN_AT("engine", "queue_wait", obs::toNanos(request.submitted),
                        popped_ns, "solver",
                        static_cast<std::uint64_t>(request.solver));
    }
    STS_TRACE_INSTANT("engine", "coalesce", "rhs",
                      static_cast<std::uint64_t>(k), "backlog",
                      static_cast<std::uint64_t>(backlog));
  }
  const std::uint64_t lease_begin = obs::nowNanos();
#endif
  // Draw the actual team from the shared budget: the grant — not the
  // desire — is the executed width, so concurrent batches can never
  // oversubscribe the machine in aggregate. Folding keeps any granted
  // width bitwise-lossless.
  CoreBudget::Lease cores(budget_, desired);
  const int team = cores.granted();
#if STS_TRACING
  // The lease span is where budget contention shows up: a batch blocked on
  // exhausted cores spends its time here, not in solve.
  STS_TRACE_SPAN_AT("engine", "lease", lease_begin, obs::nowNanos(), "desired",
                    static_cast<std::uint64_t>(desired), "granted",
                    static_cast<std::uint64_t>(team));
#endif
  // Arm pinning when the lease names concrete cores: the team members pin
  // themselves to the leased ids inside the solve region, so this batch
  // cannot overlap any concurrent batch's cores (the leases are disjoint)
  // and its folded ranks keep a stable core for the whole batch.
  const bool pin_batch = pin_enabled_ && !cores.cores().empty();
  std::uint64_t pinned_threads = 0;
  std::uint64_t migrated_threads = 0;
  bool tiled_batch = false;
  double pack_elapsed = 0.0;
  double unpack_elapsed = 0.0;
  std::exception_ptr error;
  // Per-batch attribution sink: the executor threads' StepTracers flush
  // their compute/wait nanoseconds here; aggregated into reg.trace_rows
  // below. Stack-local — the pool clears the context's sink pointer on
  // release, so it cannot dangle past this frame.
  obs::SolveTrace batch_trace;
  const auto t0 = std::chrono::steady_clock::now();
  sts::index_t total_rhs = 0;
  try {
    // Batch-failure failpoint: an armed `fail` action throws InjectedFault
    // here, exercising the promise error path end to end (every request
    // in the batch resolves exceptionally, stats count a failed batch).
    STS_FAILPOINT("engine.batch_execute");
    auto lease = reg.contexts->acquire();
    if (pin_batch) {
      lease.context().setPinnedCores(
          {cores.cores().begin(), cores.cores().end()});
    }
    lease.context().setTrace(&batch_trace);
    // Every answer travels home in its request's own b vector, which the
    // resolution below moves into the response.
    if (batch.front().nrhs == 1) {
      // Single-RHS batch, k = 1 included: the k request vectors are
      // gathered straight into the lease's pooled staging tiles in the
      // solver's internal order, solved there (a one-column layout runs
      // the vector kernel), and gathered back into each request's b once
      // the pack has consumed it. Both passes run on the batch's leased
      // team, and nothing that grows with n is allocated once the pool's
      // tiles are sized.
      total_rhs = static_cast<sts::index_t>(k);
      tiled_batch = k > 1;
      const exec::TileLayout layout = solver.tileLayout(total_rhs);
      const auto b_tiles = lease.bTiles(layout.totalDoubles());
      const auto x_tiles = lease.xTiles(layout.totalDoubles());
      {
        STS_TRACE_SPAN1("engine", "pack", "rhs", k);
        const auto p0 = std::chrono::steady_clock::now();
        std::vector<std::span<const double>> b(k);
        for (std::size_t j = 0; j < k; ++j) b[j] = batch[j].b;
        solver.packTiles(b, b_tiles, layout, lease.context(), team);
        pack_elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          p0)
                .count();
      }
      {
        STS_TRACE_SPAN1("engine", "solve", "team", team);
        solver.solveTiles(b_tiles, x_tiles, layout, lease.context(), team);
      }
      {
        STS_TRACE_SPAN1("engine", "unpack", "rhs", k);
        const auto u0 = std::chrono::steady_clock::now();
        std::vector<std::span<double>> x(k);
        for (std::size_t j = 0; j < k; ++j) x[j] = batch[j].b;
        solver.unpackTiles(x_tiles, x, layout, lease.context(), team);
        unpack_elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          u0)
                .count();
      }
    } else {
      // A lone multi-RHS request (those are never coalesced): solved into a
      // fresh result that then replaces its b. The solver permutes and
      // packs the tiles in one gather pass.
      SolveRequest& request = batch.front();
      total_rhs = request.nrhs;
      tiled_batch = true;
      std::vector<double> x(request.b.size());
      {
        STS_TRACE_SPAN1("engine", "solve", "team", team);
        solver.solveMultiRhs(request.b, x, request.nrhs, lease.context(),
                             team);
      }
      request.b = std::move(x);
    }
    // Read the pin outcome before the context returns to the pool (the
    // pool clears pin state on release so placements never leak).
    pinned_threads = lease.context().pinnedThreads();
    migrated_threads = lease.context().migratedThreads();
  } catch (...) {
    error = std::current_exception();
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double batch_seconds = std::chrono::duration<double>(t1 - t0).count();
  STS_TRACE_INSTANT("engine", "batch_done", "rhs",
                    static_cast<std::uint64_t>(total_rhs), "team",
                    static_cast<std::uint64_t>(team));
  // Refresh the controller's service-rate model and take one latch
  // decision off the post-batch queue state — BEFORE the promises resolve,
  // so a client reacting to its future already sees a released latch.
  batch_seconds_hist_->record(batch_seconds);
  batch_p50_.store(batch_seconds_hist_->quantile(0.5),
                   std::memory_order_relaxed);
  if (overload_) overloadUpdate(t1);

  for (SolveRequest& request : batch) {
    if (error) {
      request.promise.set_exception(error);
    } else {
      request.promise.set_value(std::move(request.b));
    }
  }

  base::MutexLock lock(reg.stats_mu);
  reg.batches += 1;
  reg.batches_counter->inc();
  reg.team_size_accum += static_cast<std::uint64_t>(team);
  if (team < desired) reg.budget_throttled_batches += 1;
  // A pinned batch is one that actually RAN pinned: pins that all failed
  // (or a solve that threw) must not inflate the counter, or the stats
  // invariant pinned_threads >= pinned_batches breaks.
  if (pin_batch && !error && pinned_threads > 0) reg.pinned_batches += 1;
  reg.pinned_threads += pinned_threads;
  reg.migrated_threads += migrated_threads;
  if (!error && tiled_batch) reg.tiled_batches += 1;
  reg.busy_seconds += batch_seconds;
  reg.pack_seconds += pack_elapsed;
  reg.unpack_seconds += unpack_elapsed;
  // Under stats_mu, so the last batch to finish publishes a total that
  // includes every earlier batch's growth.
  reg.staging_bytes_gauge->set(
      static_cast<double>(reg.contexts->stagingBytes()));
  reg.last_complete = t1;
  reg.saw_complete = true;
  if (error) {
    reg.batches_failed += 1;
  } else {
    reg.rhs_solved += static_cast<std::uint64_t>(total_rhs);
    reg.rhs_solved_counter->add(static_cast<std::uint64_t>(total_rhs));
    if (k > 1) reg.coalesced_rhs += static_cast<std::uint64_t>(k);
  }
  // Fold the batch's compute/wait attribution into its team's summary
  // row. Relaxed loads: the executor threads flushed before the
  // solve call returned, and this thread performed that call. Compiled
  // out with the StepTracer bodies: an STS_TRACING=OFF build would only
  // ever record all-zero rows, so traceSummary() stays empty instead.
#if STS_TRACING
  if (!error) {
    TraceAccum& row = reg.trace_rows[team];
    row.batches += 1;
    row.thread_steps +=
        batch_trace.thread_steps.load(std::memory_order_relaxed);
    row.compute_ns += batch_trace.compute_ns.load(std::memory_order_relaxed);
    row.wait_ns += batch_trace.wait_ns.load(std::memory_order_relaxed);
    row.max_wait_ns =
        std::max(row.max_wait_ns,
                 batch_trace.max_wait_ns.load(std::memory_order_relaxed));
    row.pack_seconds += pack_elapsed;
    row.unpack_seconds += unpack_elapsed;
  }
#endif
  for (const SolveRequest& request : batch) {
    reg.latency_hist->record(
        std::chrono::duration<double>(t1 - request.submitted).count());
  }
}

SolverServingStats SolverEngine::stats(SolverId id) const {
  Registered& reg = registered(id);
  SolverServingStats out;
  {
    // stats_mu also serializes the submit and batch-completion hot paths,
    // so only O(1) field reads happen under it. The latency quantiles come
    // from the registry histogram — O(buckets), no sample copy at all
    // (prior PRs copied and sorted a 64Ki-sample ring here).
    base::MutexLock lock(reg.stats_mu);
    out.requests = reg.requests;
    out.rhs_submitted = reg.rhs_submitted;
    out.batches = reg.batches;
    out.batches_failed = reg.batches_failed;
    out.rhs_solved = reg.rhs_solved;
    out.coalesced_rhs = reg.coalesced_rhs;
    out.budget_throttled_batches = reg.budget_throttled_batches;
    out.pinned_batches = reg.pinned_batches;
    out.pinned_threads = reg.pinned_threads;
    out.migrated_threads = reg.migrated_threads;
    out.tiled_batches = reg.tiled_batches;
    out.rejected_requests = reg.rejected_requests;
    out.expired_requests = reg.expired_requests;
    out.busy_seconds = reg.busy_seconds;
    out.pack_seconds = reg.pack_seconds;
    out.unpack_seconds = reg.unpack_seconds;
    if (reg.batches > 0) {
      out.mean_team_size = static_cast<double>(reg.team_size_accum) /
                           static_cast<double>(reg.batches);
    }
    if (reg.batches > reg.batches_failed) {
      // Mean realized batch size over *successful* batches only —
      // rhs_solved excludes failed batches, so the populations must match.
      out.mean_batch_rhs =
          static_cast<double>(reg.rhs_solved) /
          static_cast<double>(reg.batches - reg.batches_failed);
    }
    if (reg.saw_submit && reg.saw_complete) {
      const double window =
          std::chrono::duration<double>(reg.last_complete - reg.first_submit)
              .count();
      if (window > 0.0) {
        out.throughput_rhs_per_second =
            static_cast<double>(reg.rhs_solved) / window;
      }
    }
  }
  if (reg.latency_hist->count() > 0) {
    out.latency_p50_seconds = reg.latency_hist->quantile(0.5);
    out.latency_p95_seconds = reg.latency_hist->quantile(0.95);
  }
  return out;
}

std::vector<TraceSummaryRow> SolverEngine::traceSummary(SolverId id) const {
  Registered& reg = registered(id);
  std::vector<TraceSummaryRow> out;
  base::MutexLock lock(reg.stats_mu);
  out.reserve(reg.trace_rows.size());
  for (const auto& [team, accum] : reg.trace_rows) {
    TraceSummaryRow row;
    row.team = team;
    row.batches = accum.batches;
    row.thread_steps = accum.thread_steps;
    row.compute_seconds = static_cast<double>(accum.compute_ns) * 1e-9;
    row.wait_seconds = static_cast<double>(accum.wait_ns) * 1e-9;
    row.max_wait_seconds = static_cast<double>(accum.max_wait_ns) * 1e-9;
    row.pack_seconds = accum.pack_seconds;
    row.unpack_seconds = accum.unpack_seconds;
    const double total = row.compute_seconds + row.wait_seconds;
    row.wait_fraction = total > 0.0 ? row.wait_seconds / total : 0.0;
    out.push_back(row);
  }
  return out;  // std::map iteration: already sorted by team
}

const exec::TriangularSolver& SolverEngine::solver(SolverId id) const {
  return *registered(id).solver;
}

}  // namespace sts::engine

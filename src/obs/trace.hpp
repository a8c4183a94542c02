#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/sync.hpp"

/// \file trace.hpp
/// Solve-path tracing: who spent how long where, inside a real solve.
///
/// The engine makes layered runtime decisions — coalescing, fold-policy
/// team sizing, SLO controller steps, core leases and pins — and this
/// header is the substrate that makes every one of them observable on
/// production traffic:
///
///   * `TraceRing` — a per-thread, fixed-capacity ring of fixed-size
///     `TraceEvent` records. Single-writer (the owning thread), relaxed/
///     release atomic cursor, drop-oldest on overflow with the drop count
///     derivable from the cursor. Emitting is a bounded-cost store into
///     memory the thread owns: no locks, no allocation, no syscalls.
///   * `TraceSession` — the process-wide collection switch. While a
///     session is active every instrumented thread lazily registers one
///     ring; `stop()` freezes collection and `toJson()` drains the rings
///     into Chrome/Perfetto `trace_event` JSON (load the file in
///     `chrome://tracing` or https://ui.perfetto.dev).
///   * `STS_TRACE_*` macros — the instrumentation points. Compiled to
///     no-ops under `-DSTS_TRACING=OFF`; when compiled in but no session
///     is active they cost one relaxed atomic load and a branch.
///   * `SolveTrace` / `StepTracer` — the always-available (session or
///     not) per-solve compute-vs-wait attribution the engine aggregates
///     into `SolverEngine::traceSummary()`: each executor thread batches
///     its per-superstep compute and barrier/p2p-wait nanoseconds locally
///     and flushes them into the armed `SolveTrace` once per region.
///
/// ## Event taxonomy (docs/OBSERVABILITY.md has the full table)
///
/// Request lifecycle (category "engine"): `submit` → `queue_wait` →
/// `coalesce` → `lease` → `pack` → `solve` → `unpack` → `batch_done`,
/// plus `pin` instants (one per team member) and `slo_step` controller
/// decisions. Plan construction (category "plan"): `analyze`,
/// `fold_build`, `seed_probe`. Hot loop (category "exec"):
/// per-superstep `compute` and `barrier_wait` spans per OpenMP thread;
/// `p2p_wait` spans for long cross-thread spins.
///
/// ## Threading contract
///
/// Rings are single-writer. `TraceSession::stop()` only flips the
/// collection switch; draining (`toJson`) must run at quiescence — after
/// in-flight solves completed — or late events may be torn/lost (they are
/// never UB for the writer, but the drained copy of a concurrently
/// overwritten slot is unspecified). The engine's `drain()` provides that
/// quiescence point naturally.

#ifndef STS_TRACING
#define STS_TRACING 1
#endif

namespace sts::obs {

/// Monotonic nanoseconds (steady_clock). All trace timestamps — including
/// ones derived from stored time_points, e.g. request submit times — must
/// come from this clock so spans from different threads align.
inline std::uint64_t nowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// steady_clock time_point -> the nowNanos() timescale.
inline std::uint64_t toNanos(std::chrono::steady_clock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

enum class EventKind : std::uint8_t {
  kSpan,     ///< complete span ("ph":"X"), ts + dur
  kInstant,  ///< thread-scoped instant ("ph":"i")
};

/// One fixed-size trace record. Name/category/arg-key strings MUST have
/// static storage duration (string literals): the ring stores the
/// pointers, not copies — that is what keeps emit allocation-free.
struct TraceEvent {
  std::uint64_t ts_ns = 0;   ///< begin, nowNanos() timescale
  std::uint64_t dur_ns = 0;  ///< span duration (0 for instants)
  const char* cat = "";      ///< static string: "engine", "exec", "plan"
  const char* name = "";     ///< static string: event taxonomy name
  const char* arg_key = nullptr;  ///< optional first numeric arg
  std::uint64_t arg_val = 0;
  const char* arg2_key = nullptr;  ///< optional second numeric arg
  std::uint64_t arg2_val = 0;
  EventKind kind = EventKind::kSpan;
};

/// Lock-free single-writer event ring. The writer stores into the slot at
/// `head & mask` then publishes the new head with release order; capacity
/// is rounded up to a power of two. Overflow overwrites the oldest slot
/// (drop-oldest) — `dropped()` reports how many events were lost that way.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Owning-thread only. Bounded cost: one 72-byte store + cursor bump.
  void emit(const TraceEvent& event) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    slots_[static_cast<std::size_t>(head) & mask_] = event;
    head_.store(head + 1, std::memory_order_release);
  }

  std::size_t capacity() const { return mask_ + 1; }
  /// Total events ever emitted (monotonic).
  std::uint64_t emitted() const {
    return head_.load(std::memory_order_acquire);
  }
  /// Events lost to drop-oldest overwrites.
  std::uint64_t dropped() const {
    const std::uint64_t total = emitted();
    return total > capacity() ? total - capacity() : 0;
  }

  /// The retained events, oldest first. Call at quiescence (see the
  /// threading contract above): a concurrent emit may tear the oldest
  /// retained slots.
  std::vector<TraceEvent> snapshot() const;

 private:
  std::vector<TraceEvent> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
};

struct TraceSessionOptions {
  /// Events retained per thread (rounded up to a power of two). The env
  /// knob STS_TRACE_RING_CAP overrides when set to a positive integer.
  std::size_t ring_capacity = std::size_t{1} << 15;
};

/// The process-wide collection switch plus the drained output. At most
/// one session is active at a time (start() while active returns the
/// active session). Sessions are shared_ptr-held so late-draining callers
/// and the global registry can both keep them alive.
class TraceSession {
 public:
  /// Activates collection and returns the session (or the already-active
  /// one). Instrumented threads register rings lazily on first emit.
  static std::shared_ptr<TraceSession> start(TraceSessionOptions options = {});
  /// The active session, or nullptr.
  static std::shared_ptr<TraceSession> current();

  ~TraceSession();

  /// Freezes collection (macros go back to the one-branch idle path).
  /// Idempotent. Does not drain — call toJson()/writeJson() after.
  void stop();
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  /// Chrome/Perfetto trace_event JSON: {"traceEvents":[...],
  /// "displayTimeUnit":"ms", ...metadata}. Timestamps are microseconds
  /// relative to session start. Call at quiescence.
  std::string toJson() const;
  /// toJson() to a file; returns false on I/O failure.
  bool writeJson(const std::string& path) const;

  /// Threads that registered a ring.
  std::size_t numThreads() const;
  /// Events currently retained / ever emitted / lost across all rings.
  std::uint64_t totalEvents() const;
  std::uint64_t droppedEvents() const;

  /// Renames the calling thread's track in the exported JSON (e.g.
  /// "engine worker 0"); no-op when the session is stopped and the
  /// thread never emitted.
  void nameCurrentThread(const std::string& name);

  std::uint64_t epochNanos() const { return epoch_ns_; }

 private:
  explicit TraceSession(TraceSessionOptions options);

  friend TraceRing* traceRingSlowPath();

  /// Registers (or re-finds) the calling thread's ring. Called from the
  /// emit slow path under the session mutex.
  std::shared_ptr<TraceRing> registerCurrentThread(int* tid_out);

  TraceSessionOptions options_;
  std::uint64_t epoch_ns_ = 0;
  std::atomic<bool> stopped_{false};

  struct ThreadSlot {
    std::shared_ptr<TraceRing> ring;
    std::string name;
  };
  mutable base::Mutex mu_;
  std::vector<ThreadSlot> threads_ STS_GUARDED_BY(mu_);
};

namespace detail {
/// Collection switch, read on every instrumentation point's fast path.
extern std::atomic<bool> g_trace_on;
/// Bumped on every session start; lets thread-local ring caches detect a
/// new session and re-register.
extern std::atomic<std::uint64_t> g_trace_generation;
}  // namespace detail

/// True while a TraceSession is collecting. One relaxed load.
inline bool tracingActive() {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

/// The calling thread's ring of the active session, or nullptr when idle.
/// Fast path: the active check plus one thread-local generation compare.
TraceRing* traceRingSlowPath();
inline TraceRing* currentTraceRing() {
  return tracingActive() ? traceRingSlowPath() : nullptr;
}

/// Emit helpers (no-ops when no session is active). String arguments must
/// be static-storage (literals).
inline void emitSpanAt(const char* cat, const char* name,
                       std::uint64_t begin_ns, std::uint64_t end_ns,
                       const char* arg_key = nullptr,
                       std::uint64_t arg_val = 0,
                       const char* arg2_key = nullptr,
                       std::uint64_t arg2_val = 0) {
  if (TraceRing* ring = currentTraceRing()) {
    ring->emit({begin_ns, end_ns > begin_ns ? end_ns - begin_ns : 0, cat,
                name, arg_key, arg_val, arg2_key, arg2_val,
                EventKind::kSpan});
  }
}

inline void emitInstant(const char* cat, const char* name,
                        const char* arg_key = nullptr,
                        std::uint64_t arg_val = 0,
                        const char* arg2_key = nullptr,
                        std::uint64_t arg2_val = 0) {
  if (TraceRing* ring = currentTraceRing()) {
    ring->emit({nowNanos(), 0, cat, name, arg_key, arg_val, arg2_key,
                arg2_val, EventKind::kInstant});
  }
}

/// RAII complete-span: samples the ring once at construction; when a
/// session is active, measures construction→destruction and emits one
/// kSpan event. Nested ScopedSpans nest correctly in the exported trace
/// (strict LIFO within a thread).
class ScopedSpan {
 public:
  ScopedSpan(const char* cat, const char* name, const char* arg_key = nullptr,
             std::uint64_t arg_val = 0)
      : cat_(cat), name_(name), arg_key_(arg_key), arg_val_(arg_val) {
    ring_ = currentTraceRing();
    if (ring_ != nullptr) t0_ = nowNanos();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attach/overwrite the second numeric argument before destruction.
  void arg2(const char* key, std::uint64_t val) {
    arg2_key_ = key;
    arg2_val_ = val;
  }

  ~ScopedSpan() {
    if (ring_ != nullptr) {
      ring_->emit({t0_, nowNanos() - t0_, cat_, name_, arg_key_, arg_val_,
                   arg2_key_, arg2_val_, EventKind::kSpan});
    }
  }

 private:
  TraceRing* ring_ = nullptr;
  std::uint64_t t0_ = 0;
  const char* cat_;
  const char* name_;
  const char* arg_key_;
  std::uint64_t arg_val_;
  const char* arg2_key_ = nullptr;
  std::uint64_t arg2_val_ = 0;
};

/// Per-solve compute-vs-wait attribution sink. The engine arms one on the
/// batch's SolveContext; each executor thread's StepTracer flushes its
/// region-local accumulation here exactly once (hence atomics — one
/// contended add per thread per solve, nothing in the hot loop).
struct SolveTrace {
  std::atomic<std::uint64_t> compute_ns{0};
  std::atomic<std::uint64_t> wait_ns{0};
  /// (superstep, thread) pairs accumulated — BSP barrier crossings.
  std::atomic<std::uint64_t> thread_steps{0};
  /// Longest single barrier/p2p wait observed (straggler signal).
  std::atomic<std::uint64_t> max_wait_ns{0};

  void add(std::uint64_t compute, std::uint64_t wait, std::uint64_t steps,
           std::uint64_t max_wait) {
    compute_ns.fetch_add(compute, std::memory_order_relaxed);
    wait_ns.fetch_add(wait, std::memory_order_relaxed);
    thread_steps.fetch_add(steps, std::memory_order_relaxed);
    std::uint64_t seen = max_wait_ns.load(std::memory_order_relaxed);
    while (seen < max_wait && !max_wait_ns.compare_exchange_weak(
                                  seen, max_wait, std::memory_order_relaxed)) {
    }
  }
};

/// One per OpenMP thread per solve region: splits the region timeline into
/// per-superstep compute and wait segments, emitting ring spans when a
/// session is active and accumulating nanoseconds locally for the armed
/// SolveTrace (flushed in the destructor). Enabled iff a session is active
/// OR a sink is armed; otherwise every call is one branch on a cached
/// bool. Compiled to a true no-op under -DSTS_TRACING=OFF.
class StepTracer {
 public:
#if STS_TRACING
  explicit StepTracer(SolveTrace* sink)
      : ring_(currentTraceRing()),
        sink_(sink),
        enabled_(ring_ != nullptr || sink_ != nullptr) {
    if (enabled_) region_t0_ = t_ = nowNanos();
  }

  ~StepTracer() {
    if (enabled_ && sink_ != nullptr) {
      sink_->add(compute_ns_, wait_ns_, steps_, max_wait_ns_);
    }
  }

  /// BSP: the superstep's rows are computed; the barrier is next.
  void computeDone(std::uint64_t step) {
    if (!enabled_) return;
    const std::uint64_t now = nowNanos();
    if (ring_ != nullptr) {
      ring_->emit({t_, now - t_, "exec", "compute", "step", step, nullptr, 0,
                   EventKind::kSpan});
    }
    compute_ns_ += now - t_;
    steps_ += 1;
    t_ = now;
  }

  /// BSP: the superstep's barrier was crossed.
  void waitDone(std::uint64_t step) {
    if (!enabled_) return;
    const std::uint64_t now = nowNanos();
    const std::uint64_t w = now - t_;
    if (ring_ != nullptr) {
      ring_->emit({t_, w, "exec", "barrier_wait", "step", step, nullptr, 0,
                   EventKind::kSpan});
    }
    wait_ns_ += w;
    if (w > max_wait_ns_) max_wait_ns_ = w;
    t_ = now;
  }

  /// P2P: a cross-thread dependency spin is about to start.
  void spinBegin() {
    if (enabled_) spin_t0_ = nowNanos();
  }

  /// P2P: the spin resolved. Emits a p2p_wait span only for spins the
  /// trace can resolve (>= 1us) so dependency storms cannot flood the
  /// ring; the accumulators see every nanosecond either way.
  void spinEnd(std::uint64_t row) {
    if (!enabled_) return;
    const std::uint64_t now = nowNanos();
    const std::uint64_t w = now - spin_t0_;
    if (ring_ != nullptr && w >= 1000) {
      ring_->emit({spin_t0_, w, "exec", "p2p_wait", "row", row, nullptr, 0,
                   EventKind::kSpan});
    }
    wait_ns_ += w;
    if (w > max_wait_ns_) max_wait_ns_ = w;
  }

  /// P2P, and the superstep-free permutation gather (exec/gather.hpp):
  /// region over; everything that was not a spin wait is compute.
  void finishP2p(std::uint64_t steps) {
    if (!enabled_) return;
    const std::uint64_t elapsed = nowNanos() - region_t0_;
    compute_ns_ += elapsed > wait_ns_ ? elapsed - wait_ns_ : 0;
    steps_ += steps;
  }

 private:
  TraceRing* ring_ = nullptr;
  SolveTrace* sink_ = nullptr;
  bool enabled_ = false;
  std::uint64_t region_t0_ = 0;
  std::uint64_t t_ = 0;
  std::uint64_t spin_t0_ = 0;
  std::uint64_t compute_ns_ = 0;
  std::uint64_t wait_ns_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t max_wait_ns_ = 0;
#else
  explicit StepTracer(SolveTrace*) {}
  void computeDone(std::uint64_t) {}
  void waitDone(std::uint64_t) {}
  void spinBegin() {}
  void spinEnd(std::uint64_t) {}
  void finishP2p(std::uint64_t) {}
#endif
};

}  // namespace sts::obs

// ------------------------------------------------------------------------
// Instrumentation macros. Under -DSTS_TRACING=OFF every macro (and its
// argument expressions) compiles away entirely.
#if STS_TRACING
#define STS_TRACE_CONCAT_INNER(a, b) a##b
#define STS_TRACE_CONCAT(a, b) STS_TRACE_CONCAT_INNER(a, b)
/// Complete span over the enclosing scope.
#define STS_TRACE_SPAN(cat, name) \
  ::sts::obs::ScopedSpan STS_TRACE_CONCAT(sts_trace_span_, __LINE__)(cat, name)
/// As above with one numeric argument (key must be a string literal).
#define STS_TRACE_SPAN1(cat, name, key, val)                             \
  ::sts::obs::ScopedSpan STS_TRACE_CONCAT(sts_trace_span_, __LINE__)(    \
      cat, name, key, static_cast<std::uint64_t>(val))
/// Span with explicit begin/end nanoseconds (queue waits).
#define STS_TRACE_SPAN_AT(...) ::sts::obs::emitSpanAt(__VA_ARGS__)
/// Thread-scoped instant event.
#define STS_TRACE_INSTANT(...) ::sts::obs::emitInstant(__VA_ARGS__)
#else
#define STS_TRACE_SPAN(cat, name) \
  do {                            \
  } while (0)
#define STS_TRACE_SPAN1(cat, name, key, val) \
  do {                                       \
  } while (0)
#define STS_TRACE_SPAN_AT(...) \
  do {                         \
  } while (0)
#define STS_TRACE_INSTANT(...) \
  do {                         \
  } while (0)
#endif

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <vector>

#include "base/sync.hpp"
#include "engine/types.hpp"

/// \file request_queue.hpp
/// The engine's submission queue. Lock-light by construction: the single
/// mutex is held only to move request records in or out (no allocation of
/// RHS data, no solving, no promise fulfillment happens under it), so the
/// critical sections are a few pointer moves long. Workers pop *batches*:
/// the head request plus every other queued single-RHS request for the
/// same solver AND the same priority class, up to a column budget. That is
/// where the serving throughput comes from: one schedule traversal then
/// serves the whole batch.
///
/// ## Lifecycle semantics (PR 10, docs/ROBUSTNESS.md)
///
///  * Two priority classes (RequestPriority): latency-class requests are
///    dispatched ahead of throughput-class ones, and coalescing never
///    crosses the class boundary — a latency request is never merged
///    behind a deep throughput batch.
///  * Anti-starvation aging: after kAgingEvery consecutive latency-class
///    pops while throughput work waited, the next pop serves the
///    throughput head regardless — bounded bypass, so bulk work always
///    ages into batches under continuous high-priority arrivals.
///  * Bounded depth: push reports kFull beyond `max_depth` (0 =
///    unbounded); the caller owns the rejection (typed EngineError).
///  * Lazy expiry: requests whose `expires_at` passed are swept out at pop
///    time into the caller's `expired` vector — the queue never resolves
///    promises itself (that would run client continuations under no
///    particular thread contract); the popping worker fails them.

namespace sts::engine {

class RequestQueue {
 public:
  /// Consecutive latency-class pops allowed to bypass waiting
  /// throughput-class work before one throughput head is force-served.
  static constexpr int kAgingEvery = 4;

  enum class PushResult {
    kAccepted,
    kFull,    ///< bounded depth reached; request left untouched
    kClosed,  ///< queue closed; request left untouched
  };

  /// `max_depth` bounds queued (latency + throughput) requests; 0 =
  /// unbounded (the legacy behavior).
  explicit RequestQueue(std::size_t max_depth = 0) : max_depth_(max_depth) {}

  /// Enqueue into the request's priority class and wake one worker. On
  /// kFull/kClosed the request is left untouched so the caller can fail
  /// it with the right typed error.
  PushResult push(SolveRequest&& request);

  /// Blocks until there is something to hand back, then returns one of:
  ///   * a non-empty batch (plus possibly expired requests swept on the
  ///     way) — the head of the highest-priority non-starved class, plus
  ///     coalesced same-solver same-class nrhs==1 requests up to `max_rhs`
  ///     columns (1 = the head alone);
  ///   * an empty batch with non-empty `*expired` — everything queued had
  ///     expired; the caller fails them and pops again;
  ///   * empty batch, empty expired — closed and drained: worker shutdown.
  /// When `backlog` is non-null it receives the live depth left behind —
  /// the popping worker's load signal, captured under the same lock as
  /// the pop itself. `expired` may be null only if no request carries an
  /// expiry (the engine always passes one).
  std::vector<SolveRequest> popBatch(
      sts::index_t max_rhs, std::size_t* backlog = nullptr,
      std::vector<SolveRequest>* expired = nullptr);

  /// Stop dispatch: popBatch blocks even when requests are queued.
  void pause();
  /// Resume dispatch and wake all workers.
  void resume();

  /// Closing is one-way; queued requests still drain through popBatch.
  void close();
  bool closed() const;

  /// Close, then remove and return EVERYTHING still queued (both classes,
  /// FIFO within class, latency first), under one lock: a worker that the
  /// close wakes (closing ignores pause) finds the queue already empty. The
  /// fail-fast shutdown path: the caller resolves the futures with
  /// EngineError{kShutdown}.
  std::vector<SolveRequest> closeAndDrain();

  std::size_t size() const;

  /// Seconds the oldest queued request (either class) has waited as of
  /// `now`; 0 when empty. A controller input: under a stalled worker the
  /// depth alone can look static while the head age keeps growing.
  double oldestWaitSeconds(std::chrono::steady_clock::time_point now) const;

 private:
  /// Sweep expired requests out of `q` into `*expired` (single compaction
  /// pass, order-preserving). No-op when `expired` is null.
  static void sweepExpired(std::deque<SolveRequest>& q,
                           std::chrono::steady_clock::time_point now,
                           std::vector<SolveRequest>* expired);

  /// The one queue lock (see the file comment: held only to move request
  /// records, never across solving or promise fulfillment). The guarded
  /// members below are compiler-enforced under Clang `-Wthread-safety`.
  mutable base::Mutex mu_;
  std::condition_variable cv_;
  std::deque<SolveRequest> latency_q_ STS_GUARDED_BY(mu_);
  std::deque<SolveRequest> throughput_q_ STS_GUARDED_BY(mu_);
  /// Consecutive latency-class pops that bypassed waiting throughput
  /// work; at kAgingEvery the next pop serves the throughput head.
  int starve_credit_ STS_GUARDED_BY(mu_) = 0;
  std::size_t max_depth_;
  bool paused_ STS_GUARDED_BY(mu_) = false;
  bool closed_ STS_GUARDED_BY(mu_) = false;
};

}  // namespace sts::engine

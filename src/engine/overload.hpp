#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <optional>

#include "base/sync.hpp"

/// \file overload.hpp
/// Admission control under overload (docs/ROBUSTNESS.md): a two-state
/// latch over one scalar, the estimated queue delay the engine derives
/// from the queue depth, the batch-latency histogram and the oldest queued
/// wait (queueDelayEstimate). Pressure = est_delay / target_delay.
///
///   released   every class is admitted
///   engaged    new throughput-class work is rejected with
///              EngineError{kRejected}; latency-class work is still admitted
///
/// The latch engages once pressure reaches 1 and releases only once it
/// falls to 1 - hysteresis, so a load hovering at the target holds its
/// state instead of dithering — the same asymmetry as the SLO controller's
/// deadband (engine::sloStep). Admitted work always runs on the exact
/// executors; overload changes who is admitted, never what an answer is.

namespace sts::engine {

/// One latch decision, pure and unit-testable (the overload analogue of
/// engine::sloStep): given the current pressure (est_delay / target), the
/// hysteresis margin and the current state, return the next state.
/// Monotone in pressure for either current state; a NaN pressure holds.
inline bool overloadStep(double pressure, double hysteresis, bool engaged) {
  return engaged ? !(pressure <= 1.0 - hysteresis) : pressure >= 1.0;
}

/// The latch's input, pure and unit-testable: the estimated wait of a
/// request that arrives now. The `depth` queued requests drain as
/// ceil(depth / batch_cap) batches of `p50` seconds each, spread over
/// `workers` workers — queued single-RHS requests coalesce up to the
/// batch cap, so pass the pop's effective cap when coalescing is on and 1
/// when it is off. The result is the larger of that and `oldest_wait`,
/// not their sum: the head's wait already contains queueing history and
/// the depth term already contains the head, and each alone
/// underestimates in a different regime (cold histogram vs. stalled
/// worker).
inline double queueDelayEstimate(double p50, std::size_t depth,
                                 std::size_t batch_cap, std::size_t workers,
                                 double oldest_wait) {
  const std::size_t cap = std::max<std::size_t>(batch_cap, 1);
  const std::size_t batches = depth / cap + (depth % cap != 0 ? 1 : 0);
  const double service = p50 * static_cast<double>(batches) /
                         static_cast<double>(std::max<std::size_t>(workers, 1));
  return std::max(service, oldest_wait);
}

/// Thread-safe latch around overloadStep. update() is called from the
/// submit path and from batch completions; engaged() is a lock-free read
/// for per-submission decisions.
class OverloadController {
 public:
  /// `target_delay` > 0 seconds; `hysteresis` >= 0 in target-delay units.
  OverloadController(double target_delay, double hysteresis)
      : target_delay_(target_delay), hysteresis_(hysteresis) {}

  /// Feed a fresh queue-delay estimate. Returns the state the latch
  /// flipped to if this call flipped it (nullopt otherwise), so the caller
  /// can account the transition (trace instant + counter).
  std::optional<bool> update(double est_delay_seconds) {
    // Serialized: two concurrent updates off the same state must not both
    // report the flip.
    base::MutexLock lock(mu_);
    const bool current = engaged_.load(std::memory_order_relaxed);
    const bool next =
        overloadStep(est_delay_seconds / target_delay_, hysteresis_, current);
    if (next == current) return std::nullopt;
    engaged_.store(next, std::memory_order_relaxed);
    return next;
  }

  /// The current state (lock-free; per-submission reads).
  bool engaged() const { return engaged_.load(std::memory_order_relaxed); }

 private:
  const double target_delay_;
  const double hysteresis_;
  /// update() serializer; the state itself stays an atomic so readers
  /// never take the lock.
  base::Mutex mu_;
  std::atomic<bool> engaged_{false};
};

}  // namespace sts::engine

#pragma once

#include <atomic>
#include <thread>

/// \file spin_barrier.hpp
/// Sense-reversing spin barrier. `omp barrier` costs multiple microseconds
/// per crossing on small machines, which dominates SpTRSV solves at the
/// scale of this repository (the paper's hosts amortize the same cost over
/// 10-100x larger matrices). A spinning barrier crosses in ~100-300ns on a
/// 2-core host; a yield fallback keeps oversubscribed runs from starving.

namespace sts::exec {

/// Polls spinUntil makes between yields: long enough to cover a hand-off
/// between running threads, short enough that an oversubscribed waiter
/// soon gives its timeslice to the thread it waits on.
inline constexpr int kSpinsBeforeYield = 4096;

/// Busy-waits until `ready()` holds, yielding every kSpinsBeforeYield
/// polls. The one wait loop of the executors: the barrier below and the
/// P2P completion flags (p2p.cpp) both spin through it, so a team wider
/// than the machine degrades to yielding instead of burning whole
/// timeslices against a descheduled producer.
template <typename ReadyFn>
void spinUntil(ReadyFn&& ready) {
  for (int spins = 0; !ready();) {
    if (++spins >= kSpinsBeforeYield) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

class SpinBarrier {
 public:
  explicit SpinBarrier(int num_threads) : num_threads_(num_threads) {}

  /// The caller-thread's view of the current phase; initialize with
  /// initialSense() once per parallel region, then pass to every wait().
  int initialSense() const { return sense_.load(std::memory_order_relaxed); }

  /// Blocks until all num_threads threads arrive. Establishes
  /// happens-before between all pre-wait writes and all post-wait reads
  /// (the arrival counter is a single RMW chain released into `sense_`).
  void wait(int& local_sense) { wait(local_sense, num_threads_); }

  /// Same, for a team of `num_arrivals` <= the construction count. Elastic
  /// solves pass their per-solve team size; the construction count is only
  /// a capacity. All waiters of one phase must pass the same count, which
  /// the one-solve-per-context contract guarantees.
  void wait(int& local_sense, int num_arrivals) {
    const int next = 1 - local_sense;
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) ==
        num_arrivals - 1) {
      arrived_.store(0, std::memory_order_relaxed);
      sense_.store(next, std::memory_order_release);
    } else {
      spinUntil(
          [&] { return sense_.load(std::memory_order_acquire) == next; });
    }
    local_sense = next;
  }

 private:
  int num_threads_;
  std::atomic<int> arrived_{0};
  std::atomic<int> sense_{0};
};

}  // namespace sts::exec

#include "engine/request_queue.hpp"

#include <algorithm>
#include <utility>

#include "fault/failpoint.hpp"

namespace sts::engine {

RequestQueue::PushResult RequestQueue::push(SolveRequest&& request) {
  // Queue-stall failpoint: sits BEFORE the lock so an armed stall models a
  // slow producer path without serializing the whole queue behind it.
  STS_FAILPOINT("engine.queue_push");
  {
    base::MutexLock lock(mu_);
    if (closed_) return PushResult::kClosed;
    if (max_depth_ > 0 &&
        latency_q_.size() + throughput_q_.size() >= max_depth_) {
      return PushResult::kFull;
    }
    (request.priority == RequestPriority::kLatency ? latency_q_
                                                   : throughput_q_)
        .push_back(std::move(request));
  }
  cv_.notify_one();
  return PushResult::kAccepted;
}

void RequestQueue::sweepExpired(std::deque<SolveRequest>& q,
                                std::chrono::steady_clock::time_point now,
                                std::vector<SolveRequest>* expired) {
  if (expired == nullptr) return;
  // Same single-compaction-pass shape as coalescing: expired requests move
  // out, survivors slide left, one O(depth) sweep regardless of hits.
  auto write = q.begin();
  bool moved = false;
  for (auto read = q.begin(); read != q.end(); ++read) {
    if (read->expires_at <= now) {
      expired->push_back(std::move(*read));
      moved = true;
    } else {
      if (write != read) *write = std::move(*read);
      ++write;
    }
  }
  if (moved) q.erase(write, q.end());
}

std::vector<SolveRequest> RequestQueue::popBatch(
    sts::index_t max_rhs, std::size_t* backlog,
    std::vector<SolveRequest>* expired) {
  base::MutexLock lock(mu_);
  for (;;) {
    // A closed queue ignores pause so shutdown always drains. Spelled as
    // an explicit loop (not a predicate lambda) so the thread-safety
    // analysis sees the guarded reads under mu_ — see base/sync.hpp.
    while (!closed_ &&
           (paused_ || (latency_q_.empty() && throughput_q_.empty()))) {
      cv_.wait(lock.native());
    }
    if (latency_q_.empty() && throughput_q_.empty()) {
      if (backlog) *backlog = 0;
      return {};  // closed and drained
    }
    // Lazy expiry: dead requests leave the queue exactly when a worker
    // looks at it, never by a background timer (no extra thread, no
    // promise resolution under the lock — the caller fails them).
    sweepExpired(latency_q_, std::chrono::steady_clock::now(), expired);
    sweepExpired(throughput_q_, std::chrono::steady_clock::now(), expired);
    if (latency_q_.empty() && throughput_q_.empty()) {
      if (backlog) *backlog = 0;
      if (expired != nullptr && !expired->empty()) {
        return {};  // only expired work: caller fails it and pops again
      }
      continue;  // everything queued expired and nobody to tell: re-wait
    }

    // Class selection with anti-starvation aging: latency first, except
    // after kAgingEvery consecutive bypasses of waiting throughput work.
    const bool force_throughput =
        !throughput_q_.empty() && starve_credit_ >= kAgingEvery;
    const bool take_latency = !latency_q_.empty() && !force_throughput;
    if (take_latency && !throughput_q_.empty()) {
      starve_credit_ += 1;
    } else {
      starve_credit_ = 0;
    }
    std::deque<SolveRequest>& q = take_latency ? latency_q_ : throughput_q_;

    std::vector<SolveRequest> batch;
    batch.push_back(std::move(q.front()));
    q.pop_front();
    if (batch.front().nrhs == 1) {
      // Single compaction pass over the SAME-CLASS deque only: coalescable
      // requests move into the batch, survivors slide left into the holes.
      // Erasing per match would be O(depth) *per coalesced request* —
      // quadratic in exactly the deep-backlog regime coalescing exists
      // for. Class-local coalescing is the deadline-aware rule: a
      // latency-class request can never be merged behind (or into) a deep
      // throughput batch, and vice versa.
      const SolverId solver = batch.front().solver;
      sts::index_t rhs = 1;
      auto write = q.begin();
      auto read = q.begin();
      for (; read != q.end(); ++read) {
        if (rhs == max_rhs && write == read) break;  // no holes: tail in place
        if (rhs < max_rhs && read->solver == solver && read->nrhs == 1) {
          batch.push_back(std::move(*read));
          ++rhs;
        } else {
          if (write != read) *write = std::move(*read);
          ++write;
        }
      }
      // Only a completed pass leaves holes at the tail; an early break
      // means every survivor is already in place.
      if (read == q.end()) q.erase(write, q.end());
    }
    if (backlog) *backlog = latency_q_.size() + throughput_q_.size();
    return batch;
  }
}

void RequestQueue::pause() {
  base::MutexLock lock(mu_);
  paused_ = true;
}

void RequestQueue::resume() {
  {
    base::MutexLock lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void RequestQueue::close() {
  {
    base::MutexLock lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool RequestQueue::closed() const {
  base::MutexLock lock(mu_);
  return closed_;
}

std::vector<SolveRequest> RequestQueue::closeAndDrain() {
  std::vector<SolveRequest> out;
  {
    base::MutexLock lock(mu_);
    closed_ = true;
    out.reserve(latency_q_.size() + throughput_q_.size());
    for (auto& request : latency_q_) out.push_back(std::move(request));
    for (auto& request : throughput_q_) out.push_back(std::move(request));
    latency_q_.clear();
    throughput_q_.clear();
  }
  cv_.notify_all();
  return out;
}

std::size_t RequestQueue::size() const {
  base::MutexLock lock(mu_);
  return latency_q_.size() + throughput_q_.size();
}

double RequestQueue::oldestWaitSeconds(
    std::chrono::steady_clock::time_point now) const {
  base::MutexLock lock(mu_);
  double oldest = 0.0;
  if (!latency_q_.empty()) {
    oldest = std::chrono::duration<double>(now - latency_q_.front().submitted)
                 .count();
  }
  if (!throughput_q_.empty()) {
    oldest = std::max(
        oldest,
        std::chrono::duration<double>(now - throughput_q_.front().submitted)
            .count());
  }
  return oldest;
}

}  // namespace sts::engine

#include "exec/solve_context.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "exec/affinity.hpp"
#include "obs/trace.hpp"

namespace sts::exec {

SolveContext::SolveContext(int num_threads, sts::index_t num_vertices)
    : num_threads_(num_threads), n_(num_vertices), barrier_(num_threads) {
  if (num_threads <= 0 || num_vertices < 0) {
    throw std::invalid_argument("SolveContext: bad shape");
  }
}

void SolveContext::requireShape(int num_threads, sts::index_t num_vertices,
                                const char* who) const {
  if (num_threads_ < num_threads || n_ != num_vertices) {
    throw std::invalid_argument(
        std::string(who) + ": context shape (" +
        std::to_string(num_threads_) + " threads, " + std::to_string(n_) +
        " rows) cannot host a solve of (" + std::to_string(num_threads) +
        " threads, " + std::to_string(num_vertices) + " rows)");
  }
}

void SolveContext::setPinnedCores(std::vector<int> cores) {
  pin_cores_ = std::move(cores);
  pinned_threads_.store(0, std::memory_order_relaxed);
  migrated_threads_.store(0, std::memory_order_relaxed);
}

void SolveContext::clearPinnedCores() { setPinnedCores({}); }

void SolveContext::notePin(const ScopedPin& pin) {
  // Emitted whether or not the pin took (ok=0 on the portable no-affinity
  // fallback) so a trace always shows the team fan-out, one instant per
  // member, even on hosts where placement is a no-op.
  STS_TRACE_INSTANT("engine", "pin", "ok", pin.pinned() ? 1 : 0, "cpu",
                    static_cast<std::uint64_t>(pin.cpu() < 0 ? 0 : pin.cpu()));
  if (!pin.pinned()) return;
  pinned_threads_.fetch_add(1, std::memory_order_relaxed);
  if (pin.migrated()) {
    migrated_threads_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint32_t SolveContext::beginP2pEpoch() {
  const auto n = static_cast<std::size_t>(n_);
  if (!done_) {
    done_ = std::make_unique<std::atomic<std::uint32_t>[]>(n);
    for (std::size_t v = 0; v < n; ++v) {
      done_[v].store(0, std::memory_order_relaxed);
    }
    epoch_ = 0;
  }
  if (++epoch_ == 0) {
    // Wraparound: a flag stamped `e` in a long-gone solve would otherwise
    // equal a reissued epoch `e` and release a waiter before the vertex is
    // computed. Clear the flags and skip epoch 0 (the "never computed"
    // value of a fresh array).
    for (std::size_t v = 0; v < n; ++v) {
      done_[v].store(0, std::memory_order_relaxed);
    }
    epoch_ = 1;
  }
  return epoch_;
}

std::span<double> SolveContext::bScratch(std::size_t size) {
  if (b_scratch_.size() < size) b_scratch_.resize(size);
  return std::span<double>(b_scratch_.data(), size);
}

std::span<double> SolveContext::xScratch(std::size_t size) {
  if (x_scratch_.size() < size) x_scratch_.resize(size);
  return std::span<double>(x_scratch_.data(), size);
}

}  // namespace sts::exec

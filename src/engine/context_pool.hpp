#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "base/sync.hpp"
#include "exec/solver.hpp"

/// \file context_pool.hpp
/// Free list of SolveContexts for one registered solver. Acquiring leases
/// a context for exactly one solve (the SolveContext reentrancy contract);
/// the pool grows on demand, so N concurrent batches simply end up with N
/// pooled contexts that are reused once the burst subsides. Each pooled
/// context travels with two grow-only staging tile buffers (the b and x
/// sides of the engine's pack → solveTiles → unpack route), and contexts
/// keep their lazily grown scratch/flag allocations across reuses, which
/// is the point: once a burst has sized them, a single-RHS batch
/// allocates nothing that grows with n — its answers are unpacked into
/// the requests' own right-hand-side vectors. stagingBytes() is the memory
/// those tiles hold.

namespace sts::engine {

class ContextPool {
  /// One pooled context and the staging tiles that travel with it.
  struct Slot {
    std::unique_ptr<exec::SolveContext> ctx;
    std::vector<double> b_tiles;
    std::vector<double> x_tiles;
  };

 public:
  explicit ContextPool(const exec::TriangularSolver& solver)
      : solver_(solver) {}

  /// RAII lease; returns the context and its staging tiles to the pool on
  /// destruction.
  class Lease {
   public:
    ~Lease() {
      if (slot_.ctx) pool_->release(std::move(slot_));
    }
    Lease(Lease&&) = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;

    exec::SolveContext& context() { return *slot_.ctx; }

    /// The first `size` doubles of this context's b-side or x-side staging
    /// tiles. Grow-only: a buffer reallocates only when `size` exceeds
    /// every earlier request, and its contents are unspecified.
    std::span<double> bTiles(std::size_t size) {
      return stage(slot_.b_tiles, size);
    }
    std::span<double> xTiles(std::size_t size) {
      return stage(slot_.x_tiles, size);
    }

   private:
    friend class ContextPool;
    Lease(ContextPool& pool, Slot slot)
        : pool_(&pool), slot_(std::move(slot)) {}

    std::span<double> stage(std::vector<double>& tiles, std::size_t size) {
      if (tiles.size() < size) {
        pool_->staging_bytes_.fetch_add((size - tiles.size()) * sizeof(double),
                                        std::memory_order_relaxed);
        // A fresh vector, not resize(): capacity stays exactly `size`, so
        // stagingBytes() is what the tiles hold.
        tiles = std::vector<double>(size);
      }
      return {tiles.data(), size};
    }

    ContextPool* pool_;
    Slot slot_;
  };

  Lease acquire() {
    {
      base::MutexLock lock(mu_);
      if (!free_.empty()) {
        Slot slot = std::move(free_.back());
        free_.pop_back();
        return Lease(*this, std::move(slot));
      }
    }
    return Lease(*this, Slot{solver_.createContext(), {}, {}});
  }

  std::size_t pooled() const {
    base::MutexLock lock(mu_);
    return free_.size();
  }

  /// Bytes held by the staging tiles of every context this pool created,
  /// leased or free. Only grows.
  std::size_t stagingBytes() const {
    return staging_bytes_.load(std::memory_order_relaxed);
  }

 private:
  void release(Slot slot) {
    // Pooled contexts carry no placement or attribution sink: a batch's
    // pinned core set (or its stack-local SolveTrace) must not leak into
    // whichever batch leases this context next (including after an
    // exception unwound past the solve).
    slot.ctx->clearPinnedCores();
    slot.ctx->setTrace(nullptr);
    base::MutexLock lock(mu_);
    free_.push_back(std::move(slot));
  }

  const exec::TriangularSolver& solver_;
  mutable base::Mutex mu_;
  std::vector<Slot> free_ STS_GUARDED_BY(mu_);
  std::atomic<std::size_t> staging_bytes_{0};
};

}  // namespace sts::engine

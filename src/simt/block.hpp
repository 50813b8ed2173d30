#pragma once
// Functional SIMT execution: grids of thread blocks with shared memory and
// barrier semantics, executed block-parallel on the host.
//
// Execution model
// ---------------
// A kernel is a callable `void(BlockCtx&)`. Blocks are independent (as in
// CUDA) and are scheduled across an OpenMP thread pool. *Within* a block,
// per-thread code is expressed as barrier-delimited regions:
//
//   launch(grid_dim, block_dim, tally, [&](BlockCtx& blk) {
//     auto hist = blk.shared_array<unsigned>(nbins);       // __shared__
//     blk.threads([&](int tid) { ... phase 1 ... });       // region
//     blk.sync();                                          // __syncthreads()
//     blk.threads([&](int tid) { ... phase 2 ... });
//   });
//
// Each `threads()` region runs every thread of the block to completion
// before the next region starts, which is exactly the visibility guarantee
// `__syncthreads()` provides for code that only communicates across
// barriers — the discipline all kernels in this codebase follow (and that
// correct CUDA kernels must follow anyway). `sync()` exists to make the
// barrier explicit at call sites and to tally its modeled cost.
//
// Warp-level execution (shuffles, ballots) is provided by warp.hpp on top of
// `BlockCtx::warps()`.

#include <cassert>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simt/mem_model.hpp"
#include "util/parallel.hpp"

namespace parhuff::simt {

/// Volta/Turing expose up to 96 KiB of shared memory per block.
inline constexpr std::size_t kSharedMemBytes = 96 * 1024;

/// Per-block shared-memory arena. Allocations live until the block retires,
/// mirroring the shared-memory lifecycle binding described in §III-A of the
/// paper.
///
/// Like GPU shared memory the storage is uninitialised: a kernel writes
/// every element before it reads it. It is taken lazily, on the first
/// allocation, from a per-host-thread buffer that every later block on that
/// thread reuses, so a block that allocates nothing costs nothing. A block
/// whose thread's buffer is still held by an enclosing block (a launch
/// nested inside a kernel) gets a private buffer instead.
class SharedMem {
 public:
  SharedMem() = default;
  SharedMem(const SharedMem&) = delete;
  SharedMem& operator=(const SharedMem&) = delete;
  ~SharedMem() {
    if (base_ != nullptr && own_ == nullptr) thread_arena().held = false;
  }

  template <typename T>
  std::span<T> alloc(std::size_t n) {
    if (base_ == nullptr) acquire();
    const std::size_t bytes = n * sizeof(T);
    const std::size_t aligned = (used_ + alignof(T) - 1) & ~(alignof(T) - 1);
    assert(aligned + bytes <= kSharedMemBytes &&
           "simulated shared memory exhausted (96 KiB/block)");
    used_ = aligned + bytes;
    return {reinterpret_cast<T*>(base_ + aligned), n};
  }

  [[nodiscard]] std::size_t used() const { return used_; }
  [[nodiscard]] std::size_t capacity() const { return kSharedMemBytes; }

 private:
  struct Arena {
    std::unique_ptr<std::byte[]> storage;
    bool held = false;
  };
  static Arena& thread_arena() {
    thread_local Arena arena;
    return arena;
  }
  void acquire() {
    Arena& a = thread_arena();
    if (a.held) {
      own_ = std::make_unique_for_overwrite<std::byte[]>(kSharedMemBytes);
      base_ = own_.get();
      return;
    }
    if (!a.storage) {
      a.storage = std::make_unique_for_overwrite<std::byte[]>(kSharedMemBytes);
    }
    a.held = true;
    base_ = a.storage.get();
  }

  std::byte* base_ = nullptr;
  std::unique_ptr<std::byte[]> own_;  // nested-launch fallback
  std::size_t used_ = 0;
};

class BlockCtx {
 public:
  BlockCtx(int block_id, int block_dim, int grid_dim, MemTally* tally)
      : block_id_(block_id),
        block_dim_(block_dim),
        grid_dim_(grid_dim),
        tally_(tally) {}

  [[nodiscard]] int block_id() const { return block_id_; }
  [[nodiscard]] int block_dim() const { return block_dim_; }
  [[nodiscard]] int grid_dim() const { return grid_dim_; }
  /// Global thread id of this block's thread `tid`.
  [[nodiscard]] std::size_t global_id(int tid) const {
    return static_cast<std::size_t>(block_id_) * block_dim_ + tid;
  }
  /// Total threads in the grid.
  [[nodiscard]] std::size_t grid_size() const {
    return static_cast<std::size_t>(grid_dim_) * block_dim_;
  }

  template <typename T>
  std::span<T> shared_array(std::size_t n) {
    tally().shared_access(0, 0);  // allocation itself is free
    return shmem_.alloc<T>(n);
  }

  /// Run `fn(tid)` for every thread of the block. Regions are implicitly
  /// barrier-delimited (see file comment).
  template <typename Fn>
  void threads(Fn&& fn) {
    for (int t = 0; t < block_dim_; ++t) fn(t);
  }

  /// Explicit __syncthreads() — functional no-op between regions, but
  /// tallied for the performance model.
  void sync() { tally().block_syncs += 1; }

  [[nodiscard]] MemTally& tally() {
    return tally_ ? *tally_ : scratch_tally_;
  }

 private:
  int block_id_;
  int block_dim_;
  int grid_dim_;
  SharedMem shmem_;
  MemTally* tally_;
  MemTally scratch_tally_;  // used when the caller doesn't collect metrics
};

/// Launch `grid_dim` blocks of `block_dim` simulated threads. Blocks execute
/// concurrently on host threads; each block runs its regions serially.
/// `tally` (optional) accumulates transaction counts from all blocks.
template <typename Kernel>
void launch(int grid_dim, int block_dim, MemTally* tally, Kernel&& kernel) {
  assert(block_dim >= 1 && block_dim <= 1024);
  obs::TraceSpan span("simt.launch", "simt");
  std::vector<MemTally> per_block(tally ? static_cast<std::size_t>(grid_dim)
                                        : 0);
  parhuff::parallel_for(static_cast<std::size_t>(grid_dim), [&](std::size_t b) {
    BlockCtx ctx(static_cast<int>(b), block_dim, grid_dim,
                 tally ? &per_block[b] : nullptr);
    kernel(ctx);
  });
  obs::MetricsRegistry::global().counter_add("simt.kernel_launches");
  if (tally) {
    tally->kernel_launches += 1;
    u64 block_syncs = 0;
    for (const auto& t : per_block) {
      *tally += t;
      block_syncs += t.block_syncs;
    }
    obs::MetricsRegistry::global().counter_add("simt.block_syncs",
                                               block_syncs);
  }
}

}  // namespace parhuff::simt

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <type_traits>
#include <vector>

#include "profiler.hpp"
#include "shared_arena.hpp"
#include "thread_ctx.hpp"
#include "warp.hpp"

namespace cuzc::vgpu {

/// Cached tid decomposition of one block shape. The (tid, warp, lane) of a
/// linear thread index depends only on the block dimensions — never on the
/// block index — so one table serves every block of a launch, replacing the
/// five divisions per thread per `for_each_thread` call with a table walk.
///
/// Two shapes are cached (most-recently-used first): a request that
/// alternates between two block dims — e.g. pattern2's {16,16,1} and
/// pattern3's {32,wy,1} launched back to back — flips between the entries
/// instead of rebuilding the table on every launch. Returned pointers stay
/// valid until the same entry is evicted by a third distinct shape.
class ThreadTable {
public:
    [[nodiscard]] const ThreadCtx* get(Dim3 block_dim) {
        if (!matches(e_[0], block_dim)) {
            if (matches(e_[1], block_dim)) {
                std::swap(e_[0], e_[1]);
            } else {
                std::swap(e_[0], e_[1]);  // evict the LRU entry, keep the MRU
                rebuild(e_[0], block_dim);
            }
        }
        return e_[0].ctx.data();
    }

private:
    struct Entry {
        Dim3 dim{0, 0, 0};
        std::vector<ThreadCtx> ctx;
    };

    [[nodiscard]] static bool matches(const Entry& e, Dim3 d) noexcept {
        return d.x == e.dim.x && d.y == e.dim.y && d.z == e.dim.z && !e.ctx.empty();
    }

    static void rebuild(Entry& e, Dim3 d) {
        e.dim = d;
        const std::uint32_t n = static_cast<std::uint32_t>(d.volume());
        e.ctx.resize(n);
        std::uint32_t i = 0;
        for (std::uint32_t z = 0; z < d.z; ++z)
            for (std::uint32_t y = 0; y < d.y; ++y)
                for (std::uint32_t x = 0; x < d.x; ++x, ++i) {
                    e.ctx[i] = ThreadCtx{Dim3{x, y, z}, i, i / kWarpSize, i % kWarpSize};
                }
    }

    Entry e_[2];
};

/// Chunked bump allocator backing the pooled software register file. One
/// slab per worker; `reset()` recycles it between blocks, so steady-state
/// execution allocates register storage zero times per block. Growing mid-
/// block appends a fresh chunk instead of reallocating, keeping every
/// pointer handed out earlier in the same block valid; reset coalesces the
/// chunks so the next block gets a single slab of the high-water size.
class RegSlab {
public:
    template <class T>
    [[nodiscard]] T* alloc(std::size_t n) {
        static_assert(std::is_trivially_destructible_v<T> && std::is_trivially_copyable_v<T>,
                      "slab-backed registers skip destructors");
        const std::size_t align = alignof(T);
        offset_ = (offset_ + align - 1) / align * align;
        const std::size_t bytes = n * sizeof(T);
        if (chunks_.empty() || offset_ + bytes > chunks_.back().size) grow(bytes);
        T* p = reinterpret_cast<T*>(chunks_.back().data.get() + offset_);
        offset_ += bytes;
        return p;
    }

    /// Recycle between blocks; invalidates all pointers from `alloc`.
    void reset() {
        if (chunks_.size() > 1) {
            const std::size_t total = cap_total_;
            chunks_.clear();
            cap_total_ = 0;
            grow(total);
        }
        offset_ = 0;
    }

private:
    struct Chunk {
        std::unique_ptr<std::byte[]> data;
        std::size_t size;
    };

    void grow(std::size_t need) {
        const std::size_t sz = std::max({need, std::size_t{4096}, cap_total_});
        chunks_.push_back({std::make_unique<std::byte[]>(sz), sz});
        cap_total_ += sz;
        offset_ = 0;
    }

    std::vector<Chunk> chunks_;
    std::size_t offset_ = 0;
    std::size_t cap_total_ = 0;
};

/// Everything one scheduler worker needs to execute a contiguous range of
/// blocks: a private counter shard (merged into the launch record at launch
/// end), a recycled shared-memory arena (cooperative blocks use the pool's
/// resident-block arenas instead), a recycled register slab, and the
/// thread-table cache.
struct WorkerSlot {
    explicit WorkerSlot(std::uint64_t smem_capacity)
        : arena(smem_capacity, nullptr, nullptr) {}

    KernelStats shard;
    SharedArena arena;
    RegSlab regs;
    ThreadTable tids;
};

/// Per-device pool of execution resources, reused across launches. Every
/// launch runs on worker slots (one per scheduler worker); cooperative
/// launches additionally keep one arena per resident block so shared memory
/// persists across grid-sync phases. Deques keep references stable while
/// the pool grows. Not thread-safe: slots and arenas are created by the
/// launching thread before workers start, and each worker then touches only
/// its own slot and the arenas of its own blocks.
class ExecutionPool {
public:
    explicit ExecutionPool(std::uint64_t smem_capacity) : smem_(smem_capacity) {}

    [[nodiscard]] WorkerSlot& slot(std::size_t w) {
        while (slots_.size() <= w) slots_.emplace_back(smem_);
        return slots_[w];
    }

    [[nodiscard]] SharedArena& coop_arena(std::size_t block) {
        while (coop_.size() <= block) coop_.emplace_back(smem_, nullptr, nullptr);
        return coop_[block];
    }

private:
    std::uint64_t smem_;
    std::deque<WorkerSlot> slots_;
    std::deque<SharedArena> coop_;
};

}  // namespace cuzc::vgpu

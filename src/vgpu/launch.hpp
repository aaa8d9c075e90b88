#pragma once

#include <algorithm>
#include <barrier>
#include <cassert>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "block.hpp"
#include "buffer.hpp"
#include "device.hpp"
#include "exec_pool.hpp"
#include "scheduler.hpp"
#include "shared_arena.hpp"

namespace cuzc::vgpu {

struct LaunchConfig {
    std::string name;
    Dim3 grid{};
    Dim3 block{};
};

/// Handle given to a kernel body for binding device buffers; every span it
/// hands out charges its loads/stores to the executing worker's counter
/// shard.
class Launch {
public:
    explicit Launch(KernelStats& stats) noexcept : stats_(&stats) {}

    /// Writable view. Not noexcept: a buffer aliasing an adopted payload
    /// materializes a private copy before handing out mutable storage.
    template <class T>
    [[nodiscard]] DeviceSpan<T> span(DeviceBuffer<T>& buf) const {
        return DeviceSpan<T>(buf.raw(), buf.size(), &stats_->global_bytes_read,
                             &stats_->global_bytes_written);
    }

    /// Read-only view of a buffer the kernel only consumes: stores are a
    /// compile error and only the read counter is carried.
    template <class T>
    [[nodiscard]] DeviceSpan<const T> span(const DeviceBuffer<T>& buf) const noexcept {
        return DeviceSpan<const T>(buf.raw(), buf.size(), &stats_->global_bytes_read,
                                   &stats_->global_bytes_written);
    }

    [[nodiscard]] KernelStats& stats() noexcept { return *stats_; }

private:
    KernelStats* stats_;
};

namespace detail {

inline void check_config(const Device& dev, const LaunchConfig& cfg) {
    assert(cfg.grid.volume() > 0 && cfg.block.volume() > 0);
    assert(cfg.block.volume() <= dev.props().max_threads_per_block &&
           "block exceeds device max threads per block");
    (void)dev;
    (void)cfg;
}

[[nodiscard]] inline Dim3 delinearize_block(std::size_t b, const Dim3& grid) noexcept {
    const auto gx = static_cast<std::size_t>(grid.x);
    const auto gy = static_cast<std::size_t>(grid.y);
    return Dim3{static_cast<std::uint32_t>(b % gx), static_cast<std::uint32_t>((b / gx) % gy),
                static_cast<std::uint32_t>(b / (gx * gy))};
}

}  // namespace detail

/// Launch a kernel: `body(Launch&, BlockCtx&)` runs once per block of the
/// grid. Blocks execute independently (no inter-block communication except
/// through global memory after the launch — or `DeviceSpan::atomic_add`
/// during it), matching CUDA's guarantees for a non-cooperative launch.
///
/// Execution is parallel across host workers (see BlockScheduler) yet fully
/// deterministic: each worker runs a contiguous range of the linearized
/// grid, charging its private counter shard from the device's execution
/// pool, and the shards are merged into the launch record in worker order.
/// Every merged field is a sum or maximum, so the record is bit-identical
/// to a serial grid-order sweep for any worker count. Arenas and register
/// slabs are pooled per worker and recycled per block — the steady-state
/// per-block cost is two pointer resets, not allocations.
template <class Body>
KernelStats& launch(Device& dev, const LaunchConfig& cfg, Body&& body) {
    detail::check_config(dev, cfg);
    dev.fault_point_kernel(cfg.name);  // may stall or throw before any block runs
    KernelStats& stats = dev.profiler().begin_launch(cfg.name);
    stats.blocks = cfg.grid.volume();
    stats.threads_per_block = static_cast<std::uint32_t>(cfg.block.volume());

    const auto nblocks = static_cast<std::size_t>(cfg.grid.volume());
    ExecutionPool& pool = dev.exec_pool();
    BlockScheduler& sched = BlockScheduler::instance();
    const std::size_t workers = sched.plan_workers(nblocks);
    for (std::size_t w = 0; w < workers; ++w) pool.slot(w).shard.reset_counters();

    sched.run(nblocks, workers, [&](std::size_t w, std::size_t begin, std::size_t end) {
        WorkerSlot& slot = pool.slot(w);
        Launch handle(slot.shard);
        const ThreadCtx* tids = slot.tids.get(cfg.block);
        for (std::size_t b = begin; b < end; ++b) {
            slot.arena.begin_block(&slot.shard.shared_bytes_read,
                                   &slot.shard.shared_bytes_written);
            slot.regs.reset();
            BlockCtx blk(slot.shard, dev.props(), cfg.grid, cfg.block,
                         detail::delinearize_block(b, cfg.grid), slot.arena, &slot.regs, tids);
            body(handle, blk);
            if (slot.arena.peak_bytes() > slot.shard.smem_per_block) {
                slot.shard.smem_per_block = slot.arena.peak_bytes();
            }
        }
    });

    for (std::size_t w = 0; w < workers; ++w) stats.merge_counters(pool.slot(w).shard);
    return stats;
}

/// Cooperative launch (cooperative groups): the kernel is a sequence of
/// phases with a grid-wide barrier (`cg::sync(grid)`) between consecutive
/// phases. All blocks stay resident for the whole launch, so shared memory
/// persists across phases — the runtime keeps one pooled arena per block
/// alive until the last phase completes.
///
/// The blocks run on the BlockScheduler in one dispatch: each worker walks
/// its contiguous block range phase by phase, and a `std::barrier` across
/// the participating workers stands in for the grid sync, so every write of
/// phase p happens before any read of phase p + 1. Charges go to the
/// workers' counter shards, merged in worker order as in `launch`, so the
/// record is bit-identical for any worker count. Within a phase, blocks run
/// concurrently: cross-block writes must be disjoint or exact
/// `DeviceSpan::atomic_add`s, as on hardware. One worker (including under a
/// SerialScope) runs the same code with a one-party barrier, in block
/// order. Phases must not throw.
using CoopPhase = std::function<void(Launch&, BlockCtx&)>;

inline KernelStats& coop_launch(Device& dev, const LaunchConfig& cfg,
                                const std::vector<CoopPhase>& phases) {
    detail::check_config(dev, cfg);
    assert(cfg.grid.y == 1 && cfg.grid.z == 1 && "cooperative grids are 1-D in this runtime");
    dev.fault_point_kernel(cfg.name);  // may stall or throw before any block runs
    KernelStats& stats = dev.profiler().begin_launch(cfg.name);
    stats.blocks = cfg.grid.volume();
    stats.threads_per_block = static_cast<std::uint32_t>(cfg.block.volume());
    stats.grid_syncs = phases.empty() ? 0 : phases.size() - 1;

    const auto nblocks = static_cast<std::size_t>(cfg.grid.x);
    ExecutionPool& pool = dev.exec_pool();
    BlockScheduler& sched = BlockScheduler::instance();
    const std::size_t workers = sched.plan_workers(nblocks);
    for (std::size_t w = 0; w < workers; ++w) pool.slot(w).shard.reset_counters();
    // Grow the resident-block arenas here: workers only look them up.
    if (nblocks > 0) (void)pool.coop_arena(nblocks - 1);

    std::barrier grid_sync(static_cast<std::ptrdiff_t>(workers));
    sched.run(nblocks, workers, [&](std::size_t w, std::size_t begin, std::size_t end) {
        WorkerSlot& slot = pool.slot(w);
        Launch handle(slot.shard);
        const ThreadCtx* tids = slot.tids.get(cfg.block);
        for (std::size_t b = begin; b < end; ++b) {
            pool.coop_arena(b).begin_block(&slot.shard.shared_bytes_read,
                                           &slot.shard.shared_bytes_written);
        }
        for (std::size_t p = 0; p < phases.size(); ++p) {
            if (p > 0) grid_sync.arrive_and_wait();
            for (std::size_t b = begin; b < end; ++b) {
                slot.regs.reset();
                BlockCtx blk(slot.shard, dev.props(), cfg.grid, cfg.block,
                             Dim3{static_cast<std::uint32_t>(b), 0, 0}, pool.coop_arena(b),
                             &slot.regs, tids);
                phases[p](handle, blk);
            }
        }
        for (std::size_t b = begin; b < end; ++b) {
            slot.shard.smem_per_block =
                std::max(slot.shard.smem_per_block, pool.coop_arena(b).peak_bytes());
        }
    });

    for (std::size_t w = 0; w < workers; ++w) stats.merge_counters(pool.slot(w).shard);
    return stats;
}

}  // namespace cuzc::vgpu

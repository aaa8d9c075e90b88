#pragma once

#include <limits>

#include "vgpu/vgpu.hpp"

namespace cuzc::cuzc {

/// Reduction operator of one accumulator slot in a fused multi-metric
/// kernel.
enum class SlotOp { kSum, kMin, kMax };

[[nodiscard]] inline double slot_identity(SlotOp op) noexcept {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    switch (op) {
        case SlotOp::kMin: return kInf;
        case SlotOp::kMax: return -kInf;
        case SlotOp::kSum: return 0.0;
    }
    return 0.0;
}

[[nodiscard]] inline double slot_combine(SlotOp op, double a, double b) noexcept {
    switch (op) {
        case SlotOp::kMin: return a < b ? a : b;
        case SlotOp::kMax: return a > b ? a : b;
        case SlotOp::kSum: return a + b;
    }
    return a + b;
}

/// Fixed-tree warp reduction of one slot via the SIMD lane engine. The
/// pairwise order (off = 16,8,4,2,1; fold lane l with l+off when both < n)
/// is exactly the fold sequence `WarpCtx::reduce_shfl_down` performs over a
/// full mask of n active lanes (or a prefix ballot mask of n lanes), so the
/// lane-0 result is bit-identical to the shuffle ladder on every backend.
[[nodiscard]] inline double lane_reduce_slot(SlotOp op, const double* lanes,
                                             std::uint32_t n) noexcept {
    switch (op) {
        case SlotOp::kMin: return vgpu::lane_reduce_min(lanes, n);
        case SlotOp::kMax: return vgpu::lane_reduce_max(lanes, n);
        case SlotOp::kSum: return vgpu::lane_reduce_sum(lanes, n);
    }
    return vgpu::lane_reduce_sum(lanes, n);
}

/// Shared-memory doubles `block_reduce_slots` allocates for `nslots` slots
/// of a block with `nwarps` warps (one partial per warp and slot).
[[nodiscard]] constexpr std::size_t block_reduce_shared_vals(std::uint32_t nslots,
                                                             std::uint32_t nwarps) noexcept {
    return std::size_t{nslots} * nwarps;
}

/// Block-level reduction of a multi-slot per-thread accumulator: warp-tree
/// reduction within each warp, per-warp partials staged through shared
/// memory, final tree reduction on warp 0 (Algorithm 1 ln. 7-16). After
/// the call, thread 0 of the block holds every slot's block-wide result.
/// `op_of(slot)` selects the reduction operator per slot.
///
/// Both stages run on `lane_reduce_slot` and bulk-charge what the
/// per-offset `reduce_shfl_down` ladder charges: five rounds of one shuffle
/// plus one lane op per active lane, per slot — counters and results are
/// bit-identical to the pre-SIMD shuffle loops.
template <class OpOf>
void block_reduce_slots(vgpu::BlockCtx& blk, vgpu::RegArray<double>& acc, std::uint32_t nslots,
                        OpOf op_of) {
    blk.for_each_warp([&](vgpu::WarpCtx& w) {
        const std::uint32_t lanes = w.active_lanes();
        const std::uint32_t base = w.base_linear();
        w.add_shuffles(std::uint64_t{5} * lanes * nslots);
        w.add_lane_ops(std::uint64_t{5} * lanes * nslots);
        double buf[vgpu::kWarpSize];
        for (std::uint32_t slot = 0; slot < nslots; ++slot) {
            for (std::uint32_t l = 0; l < lanes; ++l) buf[l] = acc.at(base + l, slot);
            acc.at(base, slot) = lane_reduce_slot(op_of(slot), buf, lanes);
        }
    });
    auto warp_out = blk.shared().alloc<double>(block_reduce_shared_vals(nslots, blk.num_warps()));
    blk.for_each_thread([&](vgpu::ThreadCtx& t) {
        if (t.lane == 0) {
            double* wp = warp_out.st_bulk(std::size_t{t.warp} * nslots, nslots);
            for (std::uint32_t slot = 0; slot < nslots; ++slot) wp[slot] = acc(t, slot);
        }
    });
    // Cross-warp reduction on warp 0: the per-warp partials form a prefix of
    // nwarps lanes (the seed's ballot mask), reduced with the same tree.
    const std::uint32_t nwarps = blk.num_warps();
    blk.for_each_warp([&](vgpu::WarpCtx& w) {
        if (w.warp_id() != 0) return;
        w.add_shuffles(std::uint64_t{5} * w.active_lanes() * nslots);
        w.add_lane_ops(std::uint64_t{5} * w.active_lanes() * nslots);
        const double* wo = warp_out.ld_footprint(std::size_t{nwarps} * nslots);
        double buf[vgpu::kWarpSize];
        for (std::uint32_t slot = 0; slot < nslots; ++slot) {
            for (std::uint32_t l = 0; l < nwarps; ++l) buf[l] = wo[l * nslots + slot];
            acc.at(0, slot) = lane_reduce_slot(op_of(slot), buf, nwarps);
        }
    });
}

}  // namespace cuzc::cuzc

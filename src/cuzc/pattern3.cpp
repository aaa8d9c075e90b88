#include "pattern3.hpp"

#include <algorithm>

#include "slot_reduce.hpp"
#include "vgpu/simd.hpp"
#include "zc/ssim.hpp"

namespace cuzc::cuzc {

namespace {

using vgpu::BlockCtx;
using vgpu::Launch;
using vgpu::ThreadCtx;
using vgpu::WarpCtx;

namespace simd = vgpu::simd;

// Per-thread register slots.
enum Slot : std::uint32_t {
    kD1, kD2,                                  // current slice values
    kMin1, kMax1, kSum1, kSumSq1,              // x-strip reductions, original
    kMin2, kMax2, kSum2, kSumSq2,              // x-strip reductions, decompressed
    kCross,                                    // x-strip cross sum
    kSsimSum, kWinCount,                       // per-owner outputs
    kNumSlots,
};
constexpr std::uint32_t kStripBase = kMin1;
constexpr std::uint32_t kStripVals = 9;
// The SIMD strip fold emits its slot-major output in exactly this window's
// slot order (min1 max1 sum1 sumsq1 min2 max2 sum2 sumsq2 cross).
static_assert(kStripVals == simd::kP3StripVals);
static_assert(kCross - kStripBase + 1 == kStripVals);
static_assert(simd::kP3Lanes == vgpu::kWarpSize);
constexpr std::size_t kRowVals = simd::kP3RowVals;

/// Shared bytes one block allocates, in the kernel's allocation order: wy
/// strip rows, the wz-slot FIFO ring, then block_reduce_slots' per-warp
/// partials (the block has wy warps).
[[nodiscard]] std::uint64_t shared_footprint(std::uint32_t wy, std::uint32_t wz) noexcept {
    return sizeof(double) *
           (kRowVals * wy + kRowVals * wz + block_reduce_shared_vals(kNumSlots, wy));
}

}  // namespace

Pattern3Result pattern3_ssim_device(vgpu::Device& dev, const vgpu::DeviceBuffer<float>& d_orig,
                                    const vgpu::DeviceBuffer<float>& d_dec, const zc::Dims3& dims,
                                    const zc::MetricsConfig& cfg, const Pattern3Options& opt) {
    Pattern3Result result;
    const std::size_t h = dims.h, wd = dims.w, l = dims.l;
    if (dims.volume() == 0 || cfg.ssim_window <= 0 || cfg.ssim_step <= 0) return result;

    const auto wx = static_cast<std::uint32_t>(
        zc::effective_window(h, static_cast<std::size_t>(cfg.ssim_window)));
    const auto wy = static_cast<std::uint32_t>(
        zc::effective_window(wd, static_cast<std::size_t>(cfg.ssim_window)));
    const auto wz = static_cast<std::uint32_t>(
        zc::effective_window(l, static_cast<std::size_t>(cfg.ssim_window)));
    const auto s = static_cast<std::uint32_t>(cfg.ssim_step);
    if (wx > vgpu::kWarpSize || shared_footprint(wy, wz) > dev.props().smem_per_block) {
        // One warp cannot cover a window plus its shuffle sources, and the
        // strip rows plus the FIFO ring must fit one block's shared memory
        // (cube windows up to 10 on the V100 carve-out). The paper assumes
        // wsize <= warpSize (its evaluation uses 8); zc::ssim3d takes any
        // window.
        return result;
    }

    const auto ny_win = static_cast<std::uint32_t>((wd - wy) / s + 1);
    const char* name = opt.use_fifo ? "cuzc/pattern3" : "mozc/ssim";
    const vgpu::LaunchConfig lcfg{name, vgpu::Dim3{ny_win, 1, 1}, vgpu::Dim3{32, wy, 1}};

    vgpu::DeviceBuffer<double> d_part(dev, std::size_t{ny_win} * 2);

    // Window x-positions served by one warp sweep (paper: xNum = warpSize -
    // wsize + step), rounded to the step grid; sweeps advance by the number
    // of covered positions times the step.
    const std::uint32_t owners_per_sweep = (vgpu::kWarpSize - wx) / s + 1;
    const std::uint32_t sweep_adv = owners_per_sweep * s;

    const simd::Ops& lane_ops = simd::ops();
    vgpu::KernelStats& stats = vgpu::launch(dev, lcfg, [&](Launch& lnch, BlockCtx& blk) {
        auto dorig = lnch.span(d_orig);
        auto ddec = lnch.span(d_dec);
        auto dpart = lnch.span(d_part);

        // Shared memory: the per-warp strip rows of the current slice, plus
        // the FIFO ring of per-slice column reductions (Fig. 8). Both are
        // slot-major rows, value v of lane j at [row][v][j].
        auto strips = blk.shared().alloc<double>(kRowVals * wy);
        auto fifo = blk.shared().alloc<double>(kRowVals * wz);

        auto reg = blk.make_regs<double>(kNumSlots);
        const std::size_t y0 = std::size_t{blk.block_idx().x} * s;

        // Owner lanes of the sweep at x = i are row 0's lanes ox = 0, s,
        // 2s, ... below this span (ox + wx <= 32 and i + ox + wx <= h). No
        // phase reads a lane at or past it, so the emulation computes only
        // those lanes; every charge stays per owner.
        const auto owner_span = [&](std::size_t i) {
            return static_cast<std::uint32_t>(
                std::min<std::size_t>(vgpu::kWarpSize - wx, h - wx - i) + 1);
        };
        const auto owners = [&](std::uint32_t span) { return std::uint64_t{(span - 1) / s + 1}; };

        // Load slice k, reduce along x via shuffles, stage per-row strips,
        // then fold rows (the shared-memory y reduction) into the FIFO slot.
        const auto process_slice = [&](std::size_t i, std::size_t k, std::uint32_t fifo_slot) {
            // Exactly min(32, h-i) lanes per row are in bounds; each warp
            // gathers its row's strided slice column with one charged
            // `ld_lanes` call (same bytes as per-element ld).
            const std::size_t rows = std::min<std::size_t>(vgpu::kWarpSize, h - i);
            const std::uint32_t span = owner_span(i);
            // Load, ghost-region sharing, and strip staging fused into one
            // warp pass: the wx-window fold only ever reads same-warp lanes
            // (warp w is row w of the block), so each lane's slice values go
            // into a warp-local lane vector and the SIMD strip fold runs the
            // off = 1..wx-1 shifted-lane sequence — the exact fold order of
            // the per-offset shuffle ladder, whose shuffle count is charged
            // in bulk. The fold writes its strip row straight into shared
            // memory, for the owner span only: lane j < span reads lanes up
            // to span + wx - 2 = rows - 1.
            blk.for_each_warp([&](WarpCtx& w) {
                const std::uint32_t yrow = w.warp_id();
                const std::size_t y = y0 + yrow;
                const std::uint32_t lanes = w.active_lanes();
                w.add_shuffles(std::uint64_t{2} * (wx - 1) * lanes);
                double v1[vgpu::kWarpSize];
                double v2[vgpu::kWarpSize];
                const std::size_t stride_x = wd * l;
                const std::size_t idx0 = (i * wd + y) * l + k;
                dorig.ld_lanes(idx0, stride_x, rows, v1);
                ddec.ld_lanes(idx0, stride_x, rows, v2);
                std::fill(v1 + rows, v1 + lanes, 0.0);
                std::fill(v2 + rows, v2 + lanes, 0.0);
                lane_ops.p3_strip_fold(
                    v1, v2, lanes, wx, span,
                    strips.st_bulk(std::size_t{yrow} * kRowVals, std::size_t{lanes} * kStripVals));
            });
            blk.add_iters(blk.num_threads());
            blk.add_ops((std::uint64_t{wx - 1} * 12 + 8) * blk.num_threads());
            // y reduction: row 0's owner lanes each fold the wy strip rows
            // of their column (wy*9 loads) and deposit the per-slice result
            // into the FIFO ring (9 stores).
            const std::uint64_t n_own = owners(span);
            lane_ops.p3_fold_rows(strips.ld_charge(n_own * wy * kStripVals), wy, span,
                                  fifo.st_charge(n_own * kStripVals) + fifo_slot * kRowVals);
            // Divergence cost: only row 0's owner lanes execute the fold,
            // but the __syncthreads bracketing the phase keeps every warp
            // of the block resident and idle — charge whole-block slots.
            blk.add_ops((std::uint64_t{wy} * kStripVals + kStripVals) * blk.num_threads());
        };

        // Fold the FIFO ring into full-window sums and mix the local SSIM.
        const auto fold_windows = [&](std::size_t i) {
            // Each owner lane folds the wz FIFO slots of its column (wz*9
            // loads); lane ox is linear thread ox of row 0.
            const std::uint32_t span = owner_span(i);
            double win[kRowVals];
            lane_ops.p3_fold_rows(fifo.ld_charge(owners(span) * wz * kStripVals), wz, span, win);
            for (std::uint32_t ox = 0; ox < span; ox += s) {
                const auto at = [&](std::uint32_t v) {
                    return win[std::size_t{v} * vgpu::kWarpSize + ox];
                };
                const zc::WindowSums a{at(0), at(1), at(2), at(3)};
                const zc::WindowSums b{at(4), at(5), at(6), at(7)};
                const zc::WindowCross c{at(8)};
                reg.at(ox, kSsimSum) += zc::mix_local_ssim(a, b, c, std::size_t{wx} * wy * wz);
                reg.at(ox, kWinCount) += 1.0;
            }
            // Same block-slot charging as the y reduction: the FIFO fold and
            // mix run on xNum owner lanes of warp 0 while the block waits.
            blk.add_ops((std::uint64_t{wz} * kStripVals + 40) * blk.num_threads());
        };

        for (std::size_t i = 0; i + wx <= h; i += sweep_adv) {
            if (opt.use_fifo) {
                // Algorithm 3: every slice is read and reduced exactly once;
                // its column sums stream through the FIFO ring.
                for (std::size_t k = 0; k < l; ++k) {
                    process_slice(i, k, static_cast<std::uint32_t>(k % wz));
                    if (k + 1 >= wz && (k + 1 - wz) % s == 0) fold_windows(i);
                }
            } else {
                // moZC: each window position re-reads its wz slices.
                for (std::size_t k0 = 0; k0 + wz <= l; k0 += s) {
                    for (std::uint32_t kk = 0; kk < wz; ++kk) {
                        process_slice(i, k0 + kk, kk);
                    }
                    fold_windows(i);
                }
            }
        }

        block_reduce_slots(blk, reg, kNumSlots,
                           [](std::uint32_t) { return SlotOp::kSum; });
        blk.for_each_thread([&](ThreadCtx& t) {
            if (t.linear == 0) {
                dpart.st(std::size_t{blk.block_idx().x} * 2 + 0, reg(t, kSsimSum));
                dpart.st(std::size_t{blk.block_idx().x} * 2 + 1, reg(t, kWinCount));
            }
        });
    });
    stats.coalescing = kPattern3Coalescing;
    stats.serialization = kPattern3Serialization;
    result.stats = stats;

    const std::vector<double> part = d_part.download();
    double total = 0, count = 0;
    for (std::uint32_t b = 0; b < ny_win; ++b) {
        total += part[std::size_t{b} * 2 + 0];
        count += part[std::size_t{b} * 2 + 1];
    }
    result.report.windows = static_cast<std::size_t>(count);
    result.report.ssim = count > 0 ? total / count : 0.0;
    return result;
}

Pattern3Result pattern3_ssim(vgpu::Device& dev, const zc::Tensor3f& orig, const zc::Tensor3f& dec,
                             const zc::MetricsConfig& cfg, const Pattern3Options& opt) {
    vgpu::DeviceBuffer<float> d_orig(dev, orig.data());
    vgpu::DeviceBuffer<float> d_dec(dev, dec.data());
    return pattern3_ssim_device(dev, d_orig, d_dec, orig.dims(), cfg, opt);
}

}  // namespace cuzc::cuzc

#include "pattern1.hpp"

#include <algorithm>
#include <cassert>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "slot_reduce.hpp"
#include "zc/reduction_metrics.hpp"

namespace cuzc::cuzc {

namespace {

using vgpu::BlockCtx;
using vgpu::Launch;
using vgpu::RegArray;
using vgpu::ThreadCtx;
using vgpu::WarpCtx;

/// Accumulator slot layout of the fused kernel. Each slot is one of the 14+
/// concurrent reductions the paper's reduce() performs per memory access.
enum Slot : std::uint32_t {
    kMinErr, kMaxErr, kSumErr, kSumAbsErr, kSumErrSq,
    kMinPwr, kMaxPwr, kSumPwrAbs,
    kMinVal, kMaxVal, kSumVal, kSumValSq,
    kSumDec, kSumDecSq, kSumCross,
    kNumSlots,
};

// The fused SIMD primitive updates the slots in this exact layout.
namespace simd = vgpu::simd;
constexpr bool slot_matches(Slot a, simd::P1Slot b) {
    return static_cast<std::uint32_t>(a) == static_cast<std::uint32_t>(b);
}
static_assert(slot_matches(kMinErr, simd::kP1MinErr) && slot_matches(kMaxErr, simd::kP1MaxErr) &&
              slot_matches(kSumErr, simd::kP1SumErr) &&
              slot_matches(kSumAbsErr, simd::kP1SumAbsErr) &&
              slot_matches(kSumErrSq, simd::kP1SumErrSq) &&
              slot_matches(kMinPwr, simd::kP1MinPwr) && slot_matches(kMaxPwr, simd::kP1MaxPwr) &&
              slot_matches(kSumPwrAbs, simd::kP1SumPwrAbs) &&
              slot_matches(kMinVal, simd::kP1MinVal) && slot_matches(kMaxVal, simd::kP1MaxVal) &&
              slot_matches(kSumVal, simd::kP1SumVal) &&
              slot_matches(kSumValSq, simd::kP1SumValSq) &&
              slot_matches(kSumDec, simd::kP1SumDec) && slot_matches(kSumDecSq, simd::kP1SumDecSq) &&
              slot_matches(kSumCross, simd::kP1SumCross) &&
              slot_matches(kNumSlots, simd::kP1NumSlots));

constexpr bool is_min(std::uint32_t slot) {
    return slot == kMinErr || slot == kMinPwr || slot == kMinVal;
}
constexpr bool is_max(std::uint32_t slot) {
    return slot == kMaxErr || slot == kMaxPwr || slot == kMaxVal;
}

[[nodiscard]] SlotOp op_of_slot(std::uint32_t slot) {
    if (is_min(slot)) return SlotOp::kMin;
    if (is_max(slot)) return SlotOp::kMax;
    return SlotOp::kSum;
}

double identity(std::uint32_t slot) { return slot_identity(op_of_slot(slot)); }

double combine(std::uint32_t slot, double a, double b) {
    return slot_combine(op_of_slot(slot), a, b);
}

// Block shape of the fused kernel: warp ty walks the j axis, lanes the i axis.
constexpr std::uint32_t kBlockX = 32;
constexpr std::uint32_t kBlockY = 8;

/// Shared bytes of the busiest block of a full launch. Cooperative blocks
/// keep their arena for the whole launch, so block 0 still holds the
/// per-warp partials of both block reductions (phases 1 and 2) when the
/// histogram phase allocates its 3 * bins counts.
std::uint64_t shared_footprint(int bins) noexcept {
    const std::uint64_t partials = 2 * block_reduce_shared_vals(kNumSlots, kBlockY);
    return sizeof(double) * (partials + 3 * static_cast<std::uint64_t>(bins));
}

}  // namespace

bool pattern1_histograms_fit(const vgpu::DeviceProps& props, int pdf_bins) noexcept {
    return shared_footprint(std::max(1, pdf_bins)) <= props.smem_per_block;
}

Pattern1Result pattern1_fused_device(vgpu::Device& dev, const vgpu::DeviceBuffer<float>& d_orig,
                                     const vgpu::DeviceBuffer<float>& d_dec, const zc::Dims3& dims,
                                     const zc::MetricsConfig& cfg, const Pattern1Options& opt) {
    Pattern1Result result;
    const std::size_t h = dims.h, w = dims.w, l = dims.l;
    const std::size_t z_lo = std::min(opt.z_begin, l);
    const std::size_t z_hi = std::min(opt.z_end, l);
    const std::size_t zn = z_hi > z_lo ? z_hi - z_lo : 0;
    const std::size_t n = h * w * zn;
    if (n == 0) return result;
    const int bins = std::max(1, cfg.pdf_bins);
    const double pwr_eps = cfg.pwr_eps;
    // Histograms whose block-local counts overflow shared memory are left
    // out, like SSIM windows that do not fit: the reductions still run and
    // the report carries empty PDFs with entropy 0.
    const bool histograms = opt.histograms && pattern1_histograms_fit(dev.props(), bins);

    vgpu::DeviceBuffer<double> d_part(dev, zn * kNumSlots);
    vgpu::DeviceBuffer<double> d_final(dev, kNumSlots);
    vgpu::DeviceBuffer<double> d_hist(dev, histograms ? static_cast<std::size_t>(bins) * 3 : 0);
    d_hist.fill(0.0);

    const vgpu::LaunchConfig cfg1{"cuzc/pattern1", vgpu::Dim3{static_cast<std::uint32_t>(zn), 1, 1},
                                  vgpu::Dim3{kBlockX, kBlockY, 1}};

    // Phase 1 (Alg. 1 ln. 4-16): per-slice fused reductions.
    vgpu::CoopPhase phase_slice = [&](Launch& lnch, BlockCtx& blk) {
        auto dorig = lnch.span(d_orig);
        auto ddec = lnch.span(d_dec);
        auto dpart = lnch.span(d_part);
        auto acc = blk.make_regs<double>(kNumSlots);
        const std::size_t bidx = blk.block_idx().x;
        const std::size_t zidx = z_lo + bidx;
        // The block reads each of the slice's h*w elements of both inputs
        // exactly once (strided by l); charge each span as one footprint.
        const float* po = dorig.ld_footprint(h * w);
        const float* pd = ddec.ld_footprint(h * w);
        // Warp-major form of the scalar per-thread loop: warp ty owns lanes
        // tx (the i axis), and each (i-chunk, j) pair is one fused 15-slot
        // SIMD update of the warp's in-bounds lanes. The i-outer/j-inner
        // chunk order reproduces each thread's scalar fold sequence exactly,
        // so the per-lane accumulators — kept in a slot-major slab so the
        // vector primitive sees contiguous lanes — are bit-identical to the
        // per-element loop on every backend.
        const simd::Ops& lane_ops = simd::ops();
        double slab[kNumSlots][256];
        for (std::uint32_t slot = 0; slot < kNumSlots; ++slot) {
            std::fill_n(slab[slot], 256, identity(slot));
        }
        blk.for_each_warp([&](WarpCtx& wc) {
            const std::uint32_t ty = wc.warp_id();
            std::uint64_t iters = 0;
            for (std::size_t i0 = 0; i0 < h; i0 += 32) {
                const auto nlanes =
                    static_cast<std::uint32_t>(std::min<std::size_t>(32, h - i0));
                for (std::size_t j = ty; j < w; j += 8) {
                    const std::size_t idx0 = (i0 * w + j) * l + zidx;
                    // The i-axis stride (w*l floats) puts every lane on its
                    // own cache line; hardware prefetchers never catch the
                    // pattern, so hint the next j-iteration's lanes while the
                    // current chunk computes.
                    if (j + 8 < w) {
                        const float* npo = po + idx0 + 8 * l;
                        const float* npd = pd + idx0 + 8 * l;
                        for (std::uint32_t ln = 0; ln < nlanes; ++ln) {
                            __builtin_prefetch(npo + ln * w * l);
                            __builtin_prefetch(npd + ln * w * l);
                        }
                    }
                    lane_ops.p1_update(po + idx0, pd + idx0, w * l, pwr_eps,
                                       &slab[0][wc.base_linear()], 256, nlanes);
                    iters += nlanes;
                }
            }
            blk.add_iters(iters);
            blk.add_ops(iters * 30);
        });
        blk.for_each_thread([&](ThreadCtx& t) {
            for (std::uint32_t slot = 0; slot < kNumSlots; ++slot) {
                acc(t, slot) = slab[slot][t.linear];
            }
        });
        block_reduce_slots(blk, acc, kNumSlots, op_of_slot);
        blk.for_each_thread([&](ThreadCtx& t) {
            if (t.linear == 0) {
                for (std::uint32_t slot = 0; slot < kNumSlots; ++slot) {
                    dpart.st(bidx * kNumSlots + slot, acc(t, slot));
                }
            }
        });
    };

    // Phase 2 (Alg. 1 ln. 18-23, after cg::sync(grid)): block 0 folds the
    // per-slice partials into the device-wide totals.
    vgpu::CoopPhase phase_final = [&](Launch& lnch, BlockCtx& blk) {
        if (blk.block_idx().x != 0) return;
        auto dpart = lnch.span(d_part);
        auto dfinal = lnch.span(d_final);
        auto acc = blk.make_regs<double>(kNumSlots);
        // Block 0 consumes the whole partial array; one bulk load charges
        // the same bytes as the per-slot loads.
        const double* pp = dpart.ld_bulk(0, zn * kNumSlots);
        blk.for_each_thread([&](ThreadCtx& t) {
            for (std::uint32_t slot = 0; slot < kNumSlots; ++slot) acc(t, slot) = identity(slot);
            std::uint64_t iters = 0;
            for (std::size_t b = t.linear; b < zn; b += blk.num_threads()) {
                for (std::uint32_t slot = 0; slot < kNumSlots; ++slot) {
                    acc(t, slot) = combine(slot, acc(t, slot), pp[b * kNumSlots + slot]);
                }
                ++iters;
            }
            blk.add_iters(iters);
            blk.add_ops(iters * kNumSlots);
        });
        block_reduce_slots(blk, acc, kNumSlots, op_of_slot);
        blk.for_each_thread([&](ThreadCtx& t) {
            if (t.linear == 0) {
                for (std::uint32_t slot = 0; slot < kNumSlots; ++slot) {
                    dfinal.st(slot, acc(t, slot));
                }
            }
        });
    };

    // Phase 3: histogram fill, binning against the phase-2 min/max. Each
    // block builds its slice's local histograms in shared memory, then
    // folds them into the global ones with atomicAdd.
    vgpu::CoopPhase phase_hist = [&](Launch& lnch, BlockCtx& blk) {
        auto dorig = lnch.span(d_orig);
        auto ddec = lnch.span(d_dec);
        auto dfinal = lnch.span(d_final);
        auto dhist = lnch.span(d_hist);
        auto local = blk.shared().alloc<double>(static_cast<std::size_t>(bins) * 3);
        // Collective zero-init: one bulk store charges the same bytes as the
        // thread-strided per-element stores.
        std::fill_n(local.st_bulk(0, static_cast<std::size_t>(bins) * 3),
                    static_cast<std::size_t>(bins) * 3, 0.0);
        const bool fixed = opt.fixed_ranges != nullptr;
        const double min_err = fixed ? opt.fixed_ranges->min_err : dfinal.ld(kMinErr);
        const double max_err = fixed ? opt.fixed_ranges->max_err : dfinal.ld(kMaxErr);
        const double min_pwr = fixed ? opt.fixed_ranges->min_pwr : dfinal.ld(kMinPwr);
        const double max_pwr = fixed ? opt.fixed_ranges->max_pwr : dfinal.ld(kMaxPwr);
        const double min_val = fixed ? opt.fixed_ranges->min_val : dfinal.ld(kMinVal);
        const double max_val = fixed ? opt.fixed_ranges->max_val : dfinal.ld(kMaxVal);
        const std::size_t zidx = z_lo + blk.block_idx().x;
        // Same slice-footprint charging as the reduction phase.
        const float* po = dorig.ld_footprint(h * w);
        const float* pd = ddec.ld_footprint(h * w);
        // Warp-major binning: gather/convert/bin a warp's lanes with the
        // lane engine, then land the +1.0 increments with a scalar RMW loop
        // (histogram bins collide, so the commit cannot vectorize; the adds
        // are exactly commutative, so lane order does not matter). Charges
        // match the per-element loop: 3 shared loads + 3 shared stores per
        // element via the unbounded ld_charge/st_charge forms, since the
        // charged count per chunk (3*nlanes) can exceed the 3*bins array.
        const simd::Ops& lane_ops = simd::ops();
        const bool ok_e = max_err > min_err;
        const bool ok_p = max_pwr > min_pwr;
        const bool ok_v = max_val > min_val;
        blk.for_each_warp([&](WarpCtx& wc) {
            const std::uint32_t ty = wc.warp_id();
            double xs[32], ys[32], es[32], ps[32];
            std::int32_t be[32], bp[32], bv[32];
            std::uint64_t iters = 0;
            for (std::size_t i0 = 0; i0 < h; i0 += 32) {
                const auto nlanes =
                    static_cast<std::uint32_t>(std::min<std::size_t>(32, h - i0));
                for (std::size_t j = ty; j < w; j += 8) {
                    const std::size_t idx0 = (i0 * w + j) * l + zidx;
                    // Same next-iteration lane prefetch as the reduction
                    // phase; the stride defeats the hardware prefetchers.
                    if (j + 8 < w) {
                        const float* npo = po + idx0 + 8 * l;
                        const float* npd = pd + idx0 + 8 * l;
                        for (std::uint32_t ln = 0; ln < nlanes; ++ln) {
                            __builtin_prefetch(npo + ln * w * l);
                            __builtin_prefetch(npd + ln * w * l);
                        }
                    }
                    lane_ops.cvt_strided(xs, po + idx0, w * l, nlanes);
                    lane_ops.cvt_strided(ys, pd + idx0, w * l, nlanes);
                    lane_ops.sub(es, ys, xs, nlanes);
                    lane_ops.pwr(ps, xs, ys, pwr_eps, nlanes);
                    if (ok_e) lane_ops.pdf_bins(be, es, min_err, max_err - min_err, bins, nlanes);
                    else std::fill_n(be, nlanes, 0);
                    if (ok_p) lane_ops.pdf_bins(bp, ps, min_pwr, max_pwr - min_pwr, bins, nlanes);
                    else std::fill_n(bp, nlanes, 0);
                    if (ok_v) lane_ops.pdf_bins(bv, xs, min_val, max_val - min_val, bins, nlanes);
                    else std::fill_n(bv, nlanes, 0);
                    (void)local.ld_charge(std::size_t{3} * nlanes);
                    double* lw = local.st_charge(std::size_t{3} * nlanes);
                    for (std::uint32_t ln = 0; ln < nlanes; ++ln) {
                        lw[static_cast<std::size_t>(be[ln])] += 1.0;
                        lw[static_cast<std::size_t>(bins) + static_cast<std::size_t>(bp[ln])] += 1.0;
                        lw[2 * static_cast<std::size_t>(bins) + static_cast<std::size_t>(bv[ln])] +=
                            1.0;
                    }
                    iters += nlanes;
                }
            }
            blk.add_iters(iters);
            blk.add_ops(iters * 12);
        });
        // Fold the block-local histograms into the global ones. Blocks of a
        // phase run concurrently, so the fold is an atomicAdd per bin: the
        // counts are integer-valued doubles, so the sums are exact in any
        // block order, and each add charges the load + store of the
        // strided per-element RMW loop.
        const std::size_t nb = static_cast<std::size_t>(bins) * 3;
        const double* lp = local.ld_bulk(0, nb);
        for (std::size_t b = 0; b < nb; ++b) dhist.atomic_add(b, lp[b]);
    };

    std::vector<vgpu::CoopPhase> phases;
    if (opt.reductions) {
        phases.push_back(phase_slice);
        phases.push_back(phase_final);
    }
    if (histograms) {
        assert((opt.reductions || opt.fixed_ranges != nullptr) &&
               "histogram-only launch requires fixed ranges");
        phases.push_back(phase_hist);
    }
    vgpu::KernelStats& stats = vgpu::coop_launch(dev, cfg1, phases);
    stats.coalescing = kPattern1Coalescing;
    stats.serialization = kPattern1Serialization;
    result.stats = stats;

    // Host-side assembly of the report from the device results.
    zc::ReductionMoments& m = result.moments;
    m.n = n;
    if (opt.reductions) {
        const std::vector<double> fin = d_final.download();
        m.min_err = fin[kMinErr];
        m.max_err = fin[kMaxErr];
        m.sum_err = fin[kSumErr];
        m.sum_abs_err = fin[kSumAbsErr];
        m.sum_err_sq = fin[kSumErrSq];
        m.min_pwr = fin[kMinPwr];
        m.max_pwr = fin[kMaxPwr];
        m.sum_pwr_abs = fin[kSumPwrAbs];
        m.min_val = fin[kMinVal];
        m.max_val = fin[kMaxVal];
        m.sum_val = fin[kSumVal];
        m.sum_val_sq = fin[kSumValSq];
        m.sum_dec = fin[kSumDec];
        m.sum_dec_sq = fin[kSumDecSq];
        m.sum_cross = fin[kSumCross];
        zc::finalize_reduction(m, result.report);
    }

    if (histograms) {
        result.raw_hist = d_hist.download();
        const std::vector<double>& hist = result.raw_hist;
        const double min_err2 = opt.fixed_ranges ? opt.fixed_ranges->min_err : m.min_err;
        const double max_err2 = opt.fixed_ranges ? opt.fixed_ranges->max_err : m.max_err;
        const double min_pwr2 = opt.fixed_ranges ? opt.fixed_ranges->min_pwr : m.min_pwr;
        const double max_pwr2 = opt.fixed_ranges ? opt.fixed_ranges->max_pwr : m.max_pwr;
        result.report.err_pdf.assign(hist.begin(), hist.begin() + bins);
        result.report.pwr_err_pdf.assign(hist.begin() + bins, hist.begin() + 2 * bins);
        result.report.err_pdf_min = min_err2;
        result.report.err_pdf_max = max_err2;
        result.report.pwr_err_pdf_min = min_pwr2;
        result.report.pwr_err_pdf_max = max_pwr2;
        const double inv_n = 1.0 / static_cast<double>(n);
        double entropy = 0.0;
        for (int b = 0; b < bins; ++b) {
            result.report.err_pdf[static_cast<std::size_t>(b)] *= inv_n;
            result.report.pwr_err_pdf[static_cast<std::size_t>(b)] *= inv_n;
            const double pv = hist[static_cast<std::size_t>(2 * bins + b)] * inv_n;
            if (pv > 0) entropy -= pv * std::log2(pv);
        }
        result.report.entropy = entropy;
    }
    return result;
}

Pattern1Result pattern1_fused(vgpu::Device& dev, const zc::Tensor3f& orig, const zc::Tensor3f& dec,
                              const zc::MetricsConfig& cfg) {
    vgpu::DeviceBuffer<float> d_orig(dev, orig.data());
    vgpu::DeviceBuffer<float> d_dec(dev, dec.data());
    return pattern1_fused_device(dev, d_orig, d_dec, orig.dims(), cfg);
}

}  // namespace cuzc::cuzc

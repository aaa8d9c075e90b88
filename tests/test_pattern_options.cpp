// Pattern-kernel option combinations: partial metric selections and
// explicit subdomains must agree with the serial reference.

#include <gtest/gtest.h>

#include "cuzc/cuzc.hpp"
#include "test_helpers.hpp"
#include "zc/zc.hpp"

namespace {

namespace zc = ::cuzc::zc;
namespace vgpu = ::cuzc::vgpu;
namespace czc = ::cuzc::cuzc;
namespace tst = ::cuzc::testing;

struct Fields {
    zc::Field orig, dec;
    vgpu::Device dev;
    std::unique_ptr<vgpu::DeviceBuffer<float>> d_orig, d_dec;
    zc::ErrorMoments moments;

    explicit Fields(zc::Dims3 dims) {
        orig = tst::smooth_field(dims, 3);
        dec = tst::perturbed(orig, 0.01, 9);
        d_orig = std::make_unique<vgpu::DeviceBuffer<float>>(dev, orig.data());
        d_dec = std::make_unique<vgpu::DeviceBuffer<float>>(dev, dec.data());
        moments = zc::error_moments(orig.view(), dec.view());
    }
};

TEST(Pattern2Options, DerivOrder1Only) {
    Fields f({20, 20, 20});
    zc::MetricsConfig cfg;
    czc::Pattern2Options opt{true, false, false, "t/d1"};
    const auto r = czc::pattern2_fused_device(f.dev, *f.d_orig, *f.d_dec, f.orig.dims(), cfg,
                                              f.moments, opt);
    zc::StencilReport ref;
    zc::stencil_metrics(f.orig.view(), f.dec.view(), 2, ref);
    tst::expect_close(ref.deriv1_avg_orig, r.report.deriv1_avg_orig, 1e-9, "d1 avg");
    tst::expect_close(ref.divergence_avg_orig, r.report.divergence_avg_orig, 1e-9, "div");
    EXPECT_DOUBLE_EQ(r.report.deriv2_avg_orig, 0.0);  // not computed
    EXPECT_TRUE(r.report.autocorr.empty());
}

TEST(Pattern2Options, AutocorrOnly) {
    Fields f({18, 18, 24});
    zc::MetricsConfig cfg;
    cfg.autocorr_max_lag = 6;
    czc::Pattern2Options opt{false, false, true, "t/ac"};
    const auto r = czc::pattern2_fused_device(f.dev, *f.d_orig, *f.d_dec, f.orig.dims(), cfg,
                                              f.moments, opt);
    const auto ref = zc::autocorrelation(f.orig.view(), f.dec.view(), 6);
    ASSERT_EQ(r.report.autocorr.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        tst::expect_close(ref[i], r.report.autocorr[i], 1e-9, "autocorr");
    }
    EXPECT_DOUBLE_EQ(r.report.deriv1_avg_orig, 0.0);
}

TEST(Pattern2Options, SubdomainTotalsSumToWholeDomain) {
    // Manually decompose along z and merge raw totals — the mechanism the
    // multi-GPU layer builds on, tested at one level lower.
    Fields f({16, 16, 30});
    zc::MetricsConfig cfg;
    cfg.autocorr_max_lag = 4;
    const auto whole =
        czc::pattern2_fused_device(f.dev, *f.d_orig, *f.d_dec, f.orig.dims(), cfg, f.moments);

    czc::Pattern2Options lo;
    lo.sub.z_center_begin = 0;
    lo.sub.z_center_end = 13;
    lo.sub.z_global_offset = 0;
    lo.sub.l_global = 30;
    // Low slab buffer: z in [0, 13 + halo). For this test just hand the
    // kernel the whole field and restrict ownership windows.
    const auto a =
        czc::pattern2_fused_device(f.dev, *f.d_orig, *f.d_dec, f.orig.dims(), cfg, f.moments, lo);
    czc::Pattern2Options hi = lo;
    hi.sub.z_center_begin = 13;
    hi.sub.z_center_end = 30;
    const auto b =
        czc::pattern2_fused_device(f.dev, *f.d_orig, *f.d_dec, f.orig.dims(), cfg, f.moments, hi);

    ASSERT_EQ(a.totals.size(), whole.totals.size());
    // Sum slots add; max slots max (indices 1 and 3 within each order).
    for (std::size_t s = 0; s < whole.totals.size(); ++s) {
        const std::size_t base = s < 14 ? s % 7 : 99;
        const double merged =
            (base == 1 || base == 3) ? std::max(a.totals[s], b.totals[s])
                                     : a.totals[s] + b.totals[s];
        tst::expect_close(whole.totals[s], merged, 1e-9, "slot");
    }
}

TEST(Pattern1Options, ReductionsOnlySkipsHistograms) {
    Fields f({12, 12, 12});
    zc::MetricsConfig cfg;
    czc::Pattern1Options opt;
    opt.histograms = false;
    const auto r = czc::pattern1_fused_device(f.dev, *f.d_orig, *f.d_dec, f.orig.dims(), cfg, opt);
    EXPECT_TRUE(r.report.err_pdf.empty());
    EXPECT_GT(r.moments.n, 0u);
    EXPECT_EQ(r.stats.grid_syncs, 1u);  // only the partials->final barrier
    const auto ref = zc::reduction_metrics(f.orig.view(), f.dec.view(), cfg);
    tst::expect_close(ref.mse, r.report.mse, 1e-12, "mse");
}

TEST(Pattern1Options, HistogramOnlyWithFixedRanges) {
    Fields f({12, 12, 12});
    zc::MetricsConfig cfg;
    const auto ref = zc::reduction_metrics(f.orig.view(), f.dec.view(), cfg);
    const czc::Pattern1Ranges ranges{ref.err_pdf_min, ref.err_pdf_max, ref.pwr_err_pdf_min,
                                     ref.pwr_err_pdf_max, ref.min_val, ref.max_val};
    czc::Pattern1Options opt;
    opt.reductions = false;
    opt.fixed_ranges = &ranges;
    const auto r = czc::pattern1_fused_device(f.dev, *f.d_orig, *f.d_dec, f.orig.dims(), cfg, opt);
    ASSERT_EQ(r.report.err_pdf.size(), ref.err_pdf.size());
    for (std::size_t b = 0; b < ref.err_pdf.size(); ++b) {
        tst::expect_close(ref.err_pdf[b], r.report.err_pdf[b], 1e-12, "pdf bin");
    }
    tst::expect_close(ref.entropy, r.report.entropy, 1e-12, "entropy");
}

TEST(Pattern3Sweep, WindowAndStepMatrix) {
    Fields f({24, 20, 18});
    for (const int window : {2, 4, 8}) {
        for (const int step : {1, 2, 3}) {
            zc::MetricsConfig cfg;
            cfg.ssim_window = window;
            cfg.ssim_step = step;
            const auto ref = zc::ssim3d(f.orig.view(), f.dec.view(), window, step);
            const auto gpu =
                czc::pattern3_ssim_device(f.dev, *f.d_orig, *f.d_dec, f.orig.dims(), cfg);
            EXPECT_EQ(ref.windows, gpu.report.windows)
                << "window=" << window << " step=" << step;
            tst::expect_close(ref.ssim, gpu.report.ssim, 1e-9, "ssim sweep");
        }
    }
}

TEST(Classify, RequestedMetricsEnableCoveringPatterns) {
    using zc::Metric;
    const Metric just_psnr[] = {Metric::kPsnr};
    auto cfg = czc::classify_request(just_psnr);
    EXPECT_TRUE(cfg.pattern1);
    EXPECT_FALSE(cfg.pattern2);
    EXPECT_FALSE(cfg.pattern3);

    const Metric mixed[] = {Metric::kSsim, Metric::kAutocorrelation};
    cfg = czc::classify_request(mixed);
    EXPECT_FALSE(cfg.pattern1);
    EXPECT_TRUE(cfg.pattern2);
    EXPECT_TRUE(cfg.pattern3);

    // Parameters carry through; an empty request runs nothing.
    zc::MetricsConfig params;
    params.ssim_window = 16;
    cfg = czc::classify_request({}, params);
    EXPECT_FALSE(cfg.pattern1 || cfg.pattern2 || cfg.pattern3);
    EXPECT_EQ(cfg.ssim_window, 16);
}

TEST(Classify, DrivesTheCoordinator) {
    Fields f({12, 12, 12});
    const zc::Metric request[] = {zc::Metric::kMse, zc::Metric::kPsnr};
    const auto cfg = czc::classify_request(request);
    vgpu::Device dev;
    const auto r = czc::assess(dev, f.orig.view(), f.dec.view(), cfg);
    EXPECT_EQ(r.pattern1.launches, 1u);
    EXPECT_EQ(r.pattern2.launches, 0u);
    EXPECT_EQ(r.pattern3.launches, 0u);
}

TEST(Pattern3Sweep, OversizedWindowReturnsEmpty) {
    const auto expect_empty = [](zc::Dims3 dims, int window) {
        SCOPED_TRACE("window " + std::to_string(window) + " on " + std::to_string(dims.h) + "x" +
                     std::to_string(dims.w) + "x" + std::to_string(dims.l));
        Fields f(dims);
        zc::MetricsConfig cfg;
        cfg.ssim_window = window;
        const auto r = czc::pattern3_ssim_device(f.dev, *f.d_orig, *f.d_dec, f.orig.dims(), cfg);
        EXPECT_EQ(r.report.windows, 0u);
        EXPECT_EQ(r.report.ssim, 0.0);
        EXPECT_EQ(r.stats.launches, 0u);  // refused before launch
        EXPECT_EQ(f.dev.profiler().launch_count(), 0u);
    };
    expect_empty({64, 8, 8}, 40);  // effective x window 40 > warp size
    // x fits a warp, but the strip rows plus the FIFO ring outgrow the
    // 48 KiB per-block shared memory (window 10 needs 47,120 B).
    for (const int window : {11, 12, 16}) expect_empty({32, 32, 32}, window);
    expect_empty({8, 32, 32}, 12);  // x clamps to 8; y and z alone overflow
}

TEST(Pattern3Sweep, LargestCubeWindowFillsSharedMemory) {
    Fields f({32, 32, 32});
    zc::MetricsConfig cfg;
    cfg.ssim_window = 10;
    const auto r = czc::pattern3_ssim_device(f.dev, *f.d_orig, *f.d_dec, f.orig.dims(), cfg);
    const auto ref = zc::ssim3d(f.orig.view(), f.dec.view(), 10, 1);
    EXPECT_EQ(r.report.windows, ref.windows);
    tst::expect_close(ref.ssim, r.report.ssim, 1e-9, "window 10");
    // Strip rows + FIFO ring (2 * 32 lanes * 10 * 9 doubles) + the block
    // reduction's 13 slots x 10 warps.
    EXPECT_EQ(r.stats.smem_per_block, 47'120u);
    EXPECT_LE(r.stats.smem_per_block, f.dev.props().smem_per_block);
}

TEST(Pattern3Sweep, OversizedWindowThroughAssessKeepsOtherPatterns) {
    Fields f({32, 32, 32});
    for (int window = 11; window <= 16; ++window) {
        zc::MetricsConfig cfg;
        cfg.ssim_window = window;
        vgpu::Device dev;
        const auto r = czc::assess(dev, f.orig.view(), f.dec.view(), cfg);
        EXPECT_EQ(r.report.ssim.windows, 0u) << window;
        EXPECT_EQ(r.pattern3.launches, 0u) << window;
        EXPECT_EQ(r.pattern1.launches, 1u) << window;
        EXPECT_GT(r.report.reduction.psnr_db, 0.0) << window;
    }
}

}  // namespace

// Tests of the cuZC pattern kernels' execution profiles — the properties
// the paper's performance analysis rests on: launch/fusion counts, grid
// shapes tied to dataset extents, shared-memory footprints, and the FIFO
// buffer's data-reuse guarantee.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cuzc/cuzc.hpp"
#include "mozc/mozc.hpp"
#include "test_helpers.hpp"
#include "zc/zc.hpp"

namespace {

namespace zc = ::cuzc::zc;
namespace vgpu = ::cuzc::vgpu;
namespace czc = ::cuzc::cuzc;
namespace mozc = ::cuzc::mozc;
namespace tst = ::cuzc::testing;

struct Fields {
    zc::Field orig;
    zc::Field dec;
};

Fields make(zc::Dims3 d, std::uint64_t seed = 1) {
    Fields f{tst::smooth_field(d, seed), {}};
    f.dec = tst::perturbed(f.orig, 0.01, seed + 100);
    return f;
}

TEST(CuzcPattern1, SingleCooperativeLaunchComputesEverything) {
    vgpu::Device dev;
    const auto f = make({24, 20, 16});
    zc::MetricsConfig cfg;
    const auto r = czc::pattern1_fused(dev, f.orig.view(), f.dec.view(), cfg);
    // The whole category costs exactly one kernel launch (the fusion claim).
    EXPECT_EQ(r.stats.launches, 1u);
    EXPECT_EQ(r.stats.grid_syncs, 2u);  // partials->final, final->histograms
    // One thread block per z-slice.
    EXPECT_EQ(r.stats.blocks, 16u);
    EXPECT_EQ(r.stats.threads_per_block, 32u * 8);
    EXPECT_LT(r.stats.coalescing, 1.0);  // strided slice access
}

TEST(CuzcPattern1, ReadsDataExactlyTwice) {
    // Phase 1 (reductions) + phase 3 (histograms) each read both arrays
    // once; nothing else touches the bulk data.
    vgpu::Device dev;
    const auto f = make({48, 48, 24});
    zc::MetricsConfig cfg;
    cfg.pdf_bins = 16;
    const auto r = czc::pattern1_fused(dev, f.orig.view(), f.dec.view(), cfg);
    const std::uint64_t bulk = 2ull * f.orig.size() * sizeof(float);
    EXPECT_GE(r.stats.global_bytes_read, 2 * bulk);
    EXPECT_LT(r.stats.global_bytes_read, 2 * bulk + bulk / 4);  // small overheads only
}

TEST(CuzcPattern1, ItersPerThreadMatchesSliceArea) {
    vgpu::Device dev;
    const auto f = make({64, 32, 8});
    zc::MetricsConfig cfg;
    const auto r = czc::pattern1_fused(dev, f.orig.view(), f.dec.view(), cfg);
    // Two bulk passes over h*w elements spread over 256 threads/block.
    const double expected = 2.0 * 64 * 32 / 256.0;
    EXPECT_NEAR(r.stats.iters_per_thread(), expected, expected * 0.1);
}

TEST(CuzcPattern1, HistogramsFillSharedMemoryExactlyAt1968Bins) {
    // Block 0 holds both block reductions' per-warp partials (2 x 960 B)
    // when the histogram phase allocates 3 * bins doubles: 1968 bins fill
    // the 48 KiB carve-out to the byte.
    const vgpu::DeviceProps props;
    EXPECT_TRUE(czc::pattern1_histograms_fit(props, 1968));
    EXPECT_FALSE(czc::pattern1_histograms_fit(props, 1969));
    vgpu::Device dev;
    const auto f = make({20, 12, 6});
    zc::MetricsConfig cfg;
    cfg.pdf_bins = 1968;
    const auto r = czc::pattern1_fused(dev, f.orig.view(), f.dec.view(), cfg);
    EXPECT_EQ(r.stats.smem_per_block, props.smem_per_block);
    EXPECT_EQ(r.raw_hist.size(), 3u * 1968);
    EXPECT_EQ(r.report.err_pdf.size(), 1968u);
    EXPECT_GT(r.report.entropy, 0.0);
    vgpu::Device assess_dev;
    const auto a = czc::assess(assess_dev, f.orig.view(), f.dec.view(), cfg).report.reduction;
    EXPECT_EQ(a.err_pdf, r.report.err_pdf);
    EXPECT_EQ(a.entropy, r.report.entropy);
}

TEST(CuzcPattern1, OversizedPdfBinsKeepReductionsAndDropPdfs) {
    // Past the shared-memory limit every launch form and entry point skips
    // the histograms (empty PDFs, entropy 0) instead of overflowing the
    // block's arena; the reductions are those of a small-bins run.
    const auto f = make({20, 12, 6});
    zc::MetricsConfig small;
    small.pdf_bins = 100;
    vgpu::Device ref_dev;
    const auto ref = czc::pattern1_fused(ref_dev, f.orig.view(), f.dec.view(), small);
    // Sharded moments merge in device order, so the multi-GPU reference is
    // a multi-GPU run of its own.
    std::vector<vgpu::Device> ref_devices(3);
    const auto ref_multi =
        czc::assess_multigpu(ref_devices, f.orig.view(), f.dec.view(), small).report.reduction;
    const auto expect_no_pdfs = [](const zc::ReductionReport& r, const zc::ReductionReport& want,
                                   int bins, const char* what) {
        SCOPED_TRACE(std::string(what) + " bins " + std::to_string(bins));
        EXPECT_TRUE(r.err_pdf.empty());
        EXPECT_TRUE(r.pwr_err_pdf.empty());
        EXPECT_EQ(r.entropy, 0.0);
        EXPECT_EQ(r.err_pdf_min, 0.0);
        EXPECT_EQ(r.mse, want.mse);
        EXPECT_EQ(r.psnr_db, want.psnr_db);
        EXPECT_EQ(r.pearson_r, want.pearson_r);
        EXPECT_EQ(r.max_abs_err, want.max_abs_err);
    };
    for (const int bins : {1969, 4096, 1 << 20}) {
        zc::MetricsConfig cfg = small;
        cfg.pdf_bins = bins;
        vgpu::Device dev;
        const auto r = czc::pattern1_fused(dev, f.orig.view(), f.dec.view(), cfg);
        EXPECT_TRUE(r.raw_hist.empty());
        EXPECT_EQ(r.stats.grid_syncs, 1u);  // reductions and final fold only
        expect_no_pdfs(r.report, ref.report, bins, "kernel");

        vgpu::Device assess_dev;
        expect_no_pdfs(czc::assess(assess_dev, f.orig.view(), f.dec.view(), cfg).report.reduction,
                       ref.report, bins, "assess");

        std::vector<vgpu::Device> devices(3);
        expect_no_pdfs(czc::assess_multigpu(devices, f.orig.view(), f.dec.view(), cfg)
                           .report.reduction,
                       ref_multi, bins, "multigpu");
    }

    // The multi-GPU histogram-only form holds no partials, so 2000 bins
    // would fit its arena; it still follows the full launch's limit so
    // every device count returns the same report.
    const czc::Pattern1Ranges ranges{ref.moments.min_err, ref.moments.max_err,
                                     ref.moments.min_pwr, ref.moments.max_pwr,
                                     ref.moments.min_val, ref.moments.max_val};
    czc::Pattern1Options hist_only;
    hist_only.reductions = false;
    hist_only.fixed_ranges = &ranges;
    zc::MetricsConfig cfg = small;
    cfg.pdf_bins = 2000;
    vgpu::Device dev;
    const vgpu::DeviceBuffer<float> d_orig(dev, f.orig.data());
    const vgpu::DeviceBuffer<float> d_dec(dev, f.dec.data());
    const auto r = czc::pattern1_fused_device(dev, d_orig, d_dec, f.orig.dims(), cfg, hist_only);
    EXPECT_TRUE(r.raw_hist.empty());
    EXPECT_TRUE(r.report.err_pdf.empty());
}

TEST(CuzcPattern2, BlockCountFollowsZExtent) {
    // The paper's Table II shape effect: #blocks is governed by the
    // z-extent, so Hurricane/Scale-LETKF-shaped data yields few blocks.
    vgpu::Device dev;
    zc::MetricsConfig cfg;
    for (const auto& [dims, expected_blocks] :
         std::vector<std::pair<zc::Dims3, std::uint64_t>>{
             {{40, 40, 12}, 2}, {{40, 40, 30}, 5}, {{16, 16, 100}, 17}}) {
        const auto f = make(dims);
        const auto r = czc::pattern2_fused(dev, f.orig.view(), f.dec.view(), cfg);
        EXPECT_EQ(r.stats.blocks, expected_blocks) << "l=" << dims.l;
    }
}

TEST(CuzcPattern2, FusedLaunchVersusMetricOrientedLaunches) {
    vgpu::Device dev;
    const auto f = make({32, 32, 32});
    zc::MetricsConfig cfg;
    vgpu::DeviceBuffer<float> d_orig(dev, f.orig.data());
    vgpu::DeviceBuffer<float> d_dec(dev, f.dec.data());
    const auto moments = czc::error_moments_device(dev, d_orig, d_dec, f.orig.dims());

    dev.reset_counters();
    const auto fused =
        czc::pattern2_fused_device(dev, d_orig, d_dec, f.orig.dims(), cfg, moments);
    const std::uint64_t fused_bytes = fused.stats.global_bytes_read;
    EXPECT_EQ(dev.profiler().launch_count(), 1u);

    // moZC-style: three separate launches re-read the data.
    dev.reset_counters();
    czc::Pattern2Options o1{true, false, false, "mo/d1"};
    czc::Pattern2Options o2{false, true, false, "mo/d2"};
    czc::Pattern2Options oa{false, false, true, "mo/ac"};
    std::uint64_t split_bytes = 0;
    split_bytes +=
        czc::pattern2_fused_device(dev, d_orig, d_dec, f.orig.dims(), cfg, moments, o1)
            .stats.global_bytes_read;
    split_bytes +=
        czc::pattern2_fused_device(dev, d_orig, d_dec, f.orig.dims(), cfg, moments, o2)
            .stats.global_bytes_read;
    split_bytes +=
        czc::pattern2_fused_device(dev, d_orig, d_dec, f.orig.dims(), cfg, moments, oa)
            .stats.global_bytes_read;
    EXPECT_EQ(dev.profiler().launch_count(), 3u);
    // Fusion saves global memory traffic (the paper's ~2x pattern-2 claim).
    EXPECT_GT(static_cast<double>(split_bytes) / fused_bytes, 1.4);
}

TEST(CuzcPattern2, SharedMemoryHoldsHaloTilesAndFifo) {
    vgpu::Device dev;
    const auto f = make({32, 32, 32});
    zc::MetricsConfig cfg;  // lag 10 halo
    const auto r = czc::pattern2_fused(dev, f.orig.view(), f.dec.view(), cfg);
    // (16+10)^2 err halo + 11 FIFO tiles + two 18^2 deriv tiles, doubles.
    const std::uint64_t expected =
        (26 * 26 + 11 * 16 * 16 + 2 * 18 * 18) * sizeof(double);
    EXPECT_GE(r.stats.smem_per_block, expected);
    EXPECT_LE(r.stats.smem_per_block, expected + 4096);
    EXPECT_LE(r.stats.smem_per_block, dev.props().smem_per_block);
}

TEST(CuzcPattern3, FifoReadsEachSliceOnce) {
    // The FIFO claim: with the buffer, bulk global reads ~= one pass; the
    // non-FIFO baseline re-reads every slice wsize/step times.
    vgpu::Device dev;
    const auto f = make({40, 24, 40});
    zc::MetricsConfig cfg;
    cfg.ssim_window = 8;
    cfg.ssim_step = 1;

    const auto with_fifo = czc::pattern3_ssim(dev, f.orig.view(), f.dec.view(), cfg);
    czc::Pattern3Options no_fifo;
    no_fifo.use_fifo = false;
    const auto without = czc::pattern3_ssim(dev, f.orig.view(), f.dec.view(), cfg, no_fifo);

    EXPECT_NEAR(with_fifo.report.ssim, without.report.ssim, 1e-9);
    const double read_ratio = static_cast<double>(without.stats.global_bytes_read) /
                              static_cast<double>(with_fifo.stats.global_bytes_read);
    // wsize/step = 8 redundancy, minus boundary effects.
    EXPECT_GT(read_ratio, 5.0);
    EXPECT_LT(read_ratio, 9.0);
}

TEST(CuzcPattern3, BlockPerYWindowRow) {
    vgpu::Device dev;
    const auto f = make({16, 40, 16});
    zc::MetricsConfig cfg;
    cfg.ssim_window = 8;
    const auto r = czc::pattern3_ssim(dev, f.orig.view(), f.dec.view(), cfg);
    EXPECT_EQ(r.stats.blocks, 40u - 8 + 1);
    EXPECT_EQ(r.stats.threads_per_block, 32u * 8);
    EXPECT_EQ(r.report.windows, 9u * 33 * 9);
}

TEST(CuzcCoordinator, ReusesPattern1MomentsForPattern2) {
    vgpu::Device dev;
    const auto f = make({24, 24, 24});
    zc::MetricsConfig cfg;
    (void)czc::assess(dev, f.orig.view(), f.dec.view(), cfg);
    // With all patterns on, no separate moments kernel may run.
    for (const auto& rec : dev.profiler().records()) {
        EXPECT_NE(rec.name, "cuzc/moments");
    }
    // Pattern 2 alone needs the moments kernel.
    dev.reset_counters();
    (void)czc::assess(dev, f.orig.view(), f.dec.view(), zc::MetricsConfig::only(zc::Pattern::kStencil));
    EXPECT_EQ(dev.profiler().aggregate("cuzc/moments").launches, 1u);
}

TEST(CuzcCoordinator, PatternTogglesRunOnlyRequestedKernels) {
    vgpu::Device dev;
    const auto f = make({16, 16, 16});
    const auto cfg = zc::MetricsConfig::only(zc::Pattern::kSlidingWindow);
    const auto r = czc::assess(dev, f.orig.view(), f.dec.view(), cfg);
    EXPECT_EQ(r.pattern1.launches, 0u);
    EXPECT_EQ(r.pattern2.launches, 0u);
    EXPECT_EQ(r.pattern3.launches, 1u);
    EXPECT_GT(r.report.ssim.windows, 0u);
    EXPECT_DOUBLE_EQ(r.report.reduction.mse, 0.0);  // untouched
}

TEST(MozcProfile, TenPlusKernelsForPatternOne) {
    // moZC's metric-oriented design: pattern 1 costs one CUB reduction
    // (2 launches) per metric plus histogram kernels — vs cuZC's single
    // launch. This is the source of the paper's 3.5-6.4x pattern-1 gap.
    vgpu::Device dev;
    const auto f = make({16, 16, 16});
    const auto r =
        mozc::assess(dev, f.orig.view(), f.dec.view(), zc::MetricsConfig::only(zc::Pattern::kGlobalReduction));
    EXPECT_GE(r.pattern1.launches, 10u);
    // And many more passes over the data than the fused kernel's two.
    const std::uint64_t bulk = 2ull * f.orig.size() * sizeof(float);
    EXPECT_GT(r.pattern1.global_bytes_read, 5 * bulk);
}

TEST(MozcProfile, PatternClassificationTable) {
    // Table I of the paper, as code.
    using zc::Metric;
    using zc::Pattern;
    EXPECT_EQ(zc::pattern_of(Metric::kMse), Pattern::kGlobalReduction);
    EXPECT_EQ(zc::pattern_of(Metric::kPsnr), Pattern::kGlobalReduction);
    EXPECT_EQ(zc::pattern_of(Metric::kErrorPdf), Pattern::kGlobalReduction);
    EXPECT_EQ(zc::pattern_of(Metric::kDerivativeOrder1), Pattern::kStencil);
    EXPECT_EQ(zc::pattern_of(Metric::kAutocorrelation), Pattern::kStencil);
    EXPECT_EQ(zc::pattern_of(Metric::kLaplacian), Pattern::kStencil);
    EXPECT_EQ(zc::pattern_of(Metric::kSsim), Pattern::kSlidingWindow);
}

}  // namespace

// moZC-specific profile checks (the metric-oriented baseline's cost
// structure) and remaining small-surface coverage: array-valued CUB
// reductions, bench-config parsing, slab-bound properties.

#include <gtest/gtest.h>

#include <array>

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

TEST(MozcKernels, MetricOrientedNamingInventory) {
    // Each pattern-1 metric must appear as its own kernel in the profiler —
    // the design property that costs moZC its performance.
    vgpu::Device dev;
    const zc::Field orig = tst::smooth_field({12, 12, 12}, 1);
    const zc::Field dec = tst::perturbed(orig, 0.01, 2);
    (void)mozc::assess(dev, orig.view(), dec.view(),
                       zc::MetricsConfig::only(zc::Pattern::kGlobalReduction));
    for (const char* name :
         {"mozc/min_err/partial", "mozc/max_err/partial", "mozc/avg_err/partial",
          "mozc/mse/partial", "mozc/min_pwr_err/partial", "mozc/max_pwr_err/partial",
          "mozc/avg_pwr_err/partial", "mozc/value_stats/partial", "mozc/pearson/partial",
          "mozc/err_pdf", "mozc/pwr_err_pdf", "mozc/entropy"}) {
        EXPECT_EQ(dev.profiler().aggregate(name).launches, 1u) << name;
    }
}

TEST(MozcKernels, PatternTwoIsThreeStencilLaunchesPlusMoments) {
    vgpu::Device dev;
    const zc::Field orig = tst::smooth_field({16, 16, 16}, 1);
    const zc::Field dec = tst::perturbed(orig, 0.01, 2);
    (void)mozc::assess(dev, orig.view(), dec.view(),
                       zc::MetricsConfig::only(zc::Pattern::kStencil));
    EXPECT_EQ(dev.profiler().aggregate("mozc/deriv_order1").launches, 1u);
    EXPECT_EQ(dev.profiler().aggregate("mozc/deriv_order2").launches, 1u);
    EXPECT_EQ(dev.profiler().aggregate("mozc/autocorr").launches, 1u);
    EXPECT_EQ(dev.profiler().aggregate("cuzc/moments").launches, 1u);
}

TEST(MozcKernels, SsimKernelIsTheNoFifoVariant) {
    vgpu::Device dev;
    const zc::Field orig = tst::smooth_field({16, 16, 24}, 1);
    const zc::Field dec = tst::perturbed(orig, 0.01, 2);
    zc::MetricsConfig cfg = zc::MetricsConfig::only(zc::Pattern::kSlidingWindow);
    cfg.ssim_window = 4;
    (void)mozc::assess(dev, orig.view(), dec.view(), cfg);
    EXPECT_EQ(dev.profiler().aggregate("mozc/ssim").launches, 1u);
    EXPECT_EQ(dev.profiler().aggregate("cuzc/pattern3").launches, 0u);
}

TEST(VgpuReduce, ArrayValuedReductionWithMixedOps) {
    // The component-wise reductions moZC's value_stats kernel relies on.
    vgpu::Device dev;
    std::vector<float> host(500);
    for (std::size_t i = 0; i < host.size(); ++i) {
        host[i] = static_cast<float>(i) - 100.0f;
    }
    vgpu::DeviceBuffer<float> buf(dev, std::span<const float>(host));
    using A3 = std::array<double, 3>;
    const A3 r = vgpu::device_reduce<A3>(
        dev, "t/a3", host.size(), A3{1e300, -1e300, 0.0},
        [](A3 a, A3 b) {
            return A3{std::min(a[0], b[0]), std::max(a[1], b[1]), a[2] + b[2]};
        },
        [&](vgpu::Launch& l) {
            auto s = l.span(buf);
            return [s](std::size_t base, std::size_t count) {
                const float* p = s.ld_bulk(base, count);
                return [p, base](std::size_t i) {
                    const double v = p[i - base];
                    return A3{v, v, v};
                };
            };
        });
    EXPECT_DOUBLE_EQ(r[0], -100.0);
    EXPECT_DOUBLE_EQ(r[1], 399.0);
    EXPECT_DOUBLE_EQ(r[2], (0.0 + 499.0) * 500.0 / 2.0 - 100.0 * 500.0);
}

TEST(MultiGpuBounds, PartitionIsMonotoneAndComplete) {
    for (const std::size_t extent : {1ul, 7ul, 80ul, 513ul}) {
        for (const std::size_t parts : {1ul, 2ul, 3ul, 8ul}) {
            const auto b = czc::slab_bounds(extent, parts);
            ASSERT_EQ(b.size(), parts + 1);
            EXPECT_EQ(b.front(), 0u);
            EXPECT_EQ(b.back(), extent);
            std::size_t covered = 0;
            for (std::size_t d = 0; d < parts; ++d) {
                EXPECT_LE(b[d], b[d + 1]);
                covered += b[d + 1] - b[d];
                // Balanced within one element.
                EXPECT_LE(b[d + 1] - b[d], extent / parts + 1);
            }
            EXPECT_EQ(covered, extent);
        }
    }
}

TEST(MozcKernels, OversizedPdfBinsKeepReductionsAndDropPdfs) {
    // Each moZC histogram kernel keeps `bins` doubles of block-local counts:
    // 6144 fill the 48 KiB carve-out exactly. Past it the PDFs are left out
    // (entropy 0, no PDF range) instead of overflowing the block's arena,
    // and the reductions are those of a small-bins run.
    const zc::Field orig = tst::smooth_field({20, 12, 6}, 3);
    const zc::Field dec = tst::perturbed(orig, 0.01, 5);
    zc::MetricsConfig cfg = zc::MetricsConfig::only(zc::Pattern::kGlobalReduction);
    cfg.pdf_bins = 100;
    vgpu::Device ref_dev;
    const auto ref = mozc::assess(ref_dev, orig.view(), dec.view(), cfg).report.reduction;
    for (const int bins : {6144, 6145, 1 << 20}) {
        SCOPED_TRACE("bins " + std::to_string(bins));
        cfg.pdf_bins = bins;
        vgpu::Device dev;
        const auto r = mozc::assess(dev, orig.view(), dec.view(), cfg).report.reduction;
        const std::size_t kept = bins <= 6144 ? static_cast<std::size_t>(bins) : 0;
        EXPECT_EQ(r.err_pdf.size(), kept);
        EXPECT_EQ(r.pwr_err_pdf.size(), kept);
        if (kept == 0) {
            EXPECT_EQ(r.entropy, 0.0);
            EXPECT_EQ(r.err_pdf_min, 0.0);
            EXPECT_EQ(r.err_pdf_max, 0.0);
        } else {
            EXPECT_GT(r.entropy, 0.0);
            EXPECT_EQ(r.err_pdf_min, ref.err_pdf_min);
        }
        EXPECT_EQ(r.mse, ref.mse);
        EXPECT_EQ(r.psnr_db, ref.psnr_db);
        EXPECT_EQ(r.pearson_r, ref.pearson_r);
        EXPECT_EQ(r.max_abs_err, ref.max_abs_err);
    }
}

}  // namespace

// Validation of the benchmark methodology itself: profiles measured at two
// different scales must extrapolate to consistent full-size estimates, and
// the grid-shape rules must match what the kernels actually launch. Also
// the CI gate benches' shared harness: strict flags, the report-identity
// check and the cuzc-bench-v1 record.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cuzc/cuzc.hpp"
#include "harness.hpp"
#include "test_helpers.hpp"
#include "zc/zc.hpp"

namespace {

namespace zc = ::cuzc::zc;
namespace vgpu = ::cuzc::vgpu;
namespace czc = ::cuzc::cuzc;
namespace tst = ::cuzc::testing;
using namespace ::cuzc::bench;
using ::cuzc::io::Flags;

vgpu::KernelStats run_pattern(zc::Pattern p, const zc::Dims3& dims,
                              const zc::MetricsConfig& cfg) {
    const zc::Field orig = tst::smooth_field(dims, 3);
    const zc::Field dec = tst::perturbed(orig, 0.01, 5);
    vgpu::Device dev;
    const auto only = zc::MetricsConfig::only(p, cfg);
    return pattern_stats(czc::assess(dev, orig.view(), dec.view(), only), p);
}

class ExtrapolationConsistency : public ::testing::TestWithParam<zc::Pattern> {};

TEST_P(ExtrapolationConsistency, TwoScalesAgreeAtFullSize) {
    const zc::Pattern p = GetParam();
    zc::MetricsConfig cfg;
    cfg.ssim_window = 4;
    cfg.autocorr_max_lag = 4;
    // h chosen so (h - wsize + 1) is a multiple of the pattern-3 sweep
    // width (29 owners for wsize 4): the warp-sweep boundary overhead is
    // then the same fraction at every scale and extrapolations can agree.
    const zc::Dims3 full{119, 128, 64};
    const zc::Dims3 half{61, 64, 32};
    const zc::Dims3 quarter{32, 32, 16};

    const auto from_half =
        extrapolate(run_pattern(p, half, cfg), half, full, static_cast<int>(p), cfg);
    const auto from_quarter =
        extrapolate(run_pattern(p, quarter, cfg), quarter, full, static_cast<int>(p), cfg);

    // Grid shape must agree exactly (recomputed from full dims).
    EXPECT_EQ(from_half.blocks, from_quarter.blocks);
    // Volume-scaled counters agree within boundary-tile effects.
    const auto close = [](std::uint64_t a, std::uint64_t b, double tol, const char* what) {
        const double ratio =
            static_cast<double>(std::max(a, b)) / static_cast<double>(std::min(a, b));
        EXPECT_LT(ratio, 1.0 + tol) << what << ": " << a << " vs " << b;
    };
    // Tolerances: the block-level reduction trees cost ops proportional to
    // the block count (not the volume), so small measurement grids carry a
    // boundary overhead that shrinks as the grid grows.
    close(from_half.global_bytes_read, from_quarter.global_bytes_read, 0.30, "global reads");
    close(from_half.lane_ops, from_quarter.lane_ops, 0.45, "lane ops");
    close(from_half.thread_iters, from_quarter.thread_iters, 0.35, "iters");
}

INSTANTIATE_TEST_SUITE_P(Patterns, ExtrapolationConsistency,
                         ::testing::Values(zc::Pattern::kGlobalReduction, zc::Pattern::kStencil,
                                           zc::Pattern::kSlidingWindow));

TEST(Extrapolation, BlockRulesMatchActualLaunches) {
    zc::MetricsConfig cfg;
    cfg.ssim_window = 8;
    const zc::Dims3 dims{64, 64, 48};
    // Pattern 1: one block per z-slice.
    EXPECT_EQ(run_pattern(zc::Pattern::kGlobalReduction, dims, cfg).blocks,
              extrapolate(run_pattern(zc::Pattern::kGlobalReduction, dims, cfg), dims, dims, 1,
                          cfg)
                  .blocks);
    // Pattern 3: one block per y-window row.
    const auto p3 = run_pattern(zc::Pattern::kSlidingWindow, dims, cfg);
    EXPECT_EQ(p3.blocks, 64u - 8 + 1);
    EXPECT_EQ(extrapolate(p3, dims, dims, 3, cfg).blocks, p3.blocks);
}

TEST(Extrapolation, IdentityWhenDimsMatch) {
    zc::MetricsConfig cfg;
    const auto s = run_pattern(zc::Pattern::kGlobalReduction, {32, 32, 16}, cfg);
    const auto e = extrapolate(s, {32, 32, 16}, {32, 32, 16}, 1, cfg);
    EXPECT_EQ(e.global_bytes_read, s.global_bytes_read);
    EXPECT_EQ(e.lane_ops, s.lane_ops);
    EXPECT_EQ(e.blocks, s.blocks);
    EXPECT_EQ(e.launches, s.launches);
    EXPECT_EQ(e.regs_per_thread, s.regs_per_thread);
    EXPECT_EQ(e.smem_per_block, s.smem_per_block);
}

TEST(Harness, PreparedDatasetsCoverThePaperMatrix) {
    BenchConfig cfg;
    cfg.scale = 32;
    const auto ds = prepare_datasets(cfg);
    ASSERT_EQ(ds.size(), 4u);
    for (const auto& d : ds) {
        EXPECT_GT(d.compression_ratio, 1.0) << d.name;
        EXPECT_EQ(d.orig.dims(), d.run_dims);
        EXPECT_EQ(d.dec.dims(), d.run_dims);
        EXPECT_GE(d.full_dims.volume(), d.run_dims.volume());
    }
    // Aspect relationships that drive the shape effects survive scaling.
    EXPECT_LT(ds[0].run_dims.l, ds[0].run_dims.h);  // Hurricane short z
    EXPECT_EQ(ds[1].run_dims.h, ds[1].run_dims.l);  // NYX cubic
}

TEST(Harness, PatternTimesOrderingHolds) {
    BenchConfig cfg;
    cfg.scale = 16;
    const auto ds = prepare_datasets(cfg);
    const auto mcfg = paper_metrics();
    for (const auto& d : ds) {
        for (const auto p : {zc::Pattern::kGlobalReduction, zc::Pattern::kStencil,
                             zc::Pattern::kSlidingWindow}) {
            const auto t = pattern_times(d, p, mcfg);
            EXPECT_GT(t.cuzc_s, 0.0);
            // <= because on degenerate scaled shapes (z shrunk to one SSIM
            // window) the no-FIFO baseline has no redundancy left.
            EXPECT_LE(t.cuzc_s, t.mozc_s) << d.name << " pattern " << static_cast<int>(p);
            EXPECT_LT(t.mozc_s, t.ompzc_s) << d.name << " pattern " << static_cast<int>(p);
        }
    }
}

/// Every numeric slot of a report, in wire order.
std::vector<double*> report_slots(zc::AssessmentReport& r) {
    zc::ReductionReport& a = r.reduction;
    zc::StencilReport& s = r.stencil;
    std::vector<double*> out{
        &a.min_val,     &a.max_val,         &a.value_range,     &a.mean_val,
        &a.var_val,     &a.std_val,         &a.entropy,         &a.min_err,
        &a.max_err,     &a.avg_err,         &a.avg_abs_err,     &a.max_abs_err,
        &a.min_pwr_err, &a.max_pwr_err,     &a.avg_pwr_err,     &a.mse,
        &a.rmse,        &a.nrmse,           &a.snr_db,          &a.psnr_db,
        &a.pearson_r,   &a.err_pdf_min,     &a.err_pdf_max,     &a.pwr_err_pdf_min,
        &a.pwr_err_pdf_max,
        &s.deriv1_avg_orig, &s.deriv1_max_orig, &s.deriv1_avg_dec, &s.deriv1_max_dec,
        &s.deriv1_mse,  &s.deriv2_avg_orig, &s.deriv2_max_orig, &s.deriv2_avg_dec,
        &s.deriv2_max_dec, &s.deriv2_mse,   &s.divergence_avg_orig, &s.divergence_avg_dec,
        &s.laplacian_avg_orig, &s.laplacian_avg_dec, &r.ssim.ssim,
    };
    for (auto* v : {&a.err_pdf, &a.pwr_err_pdf, &s.autocorr}) {
        for (double& d : *v) out.push_back(&d);
    }
    return out;
}

zc::AssessmentReport sample_report() {
    zc::AssessmentReport r;
    r.reduction.err_pdf = {0.25, 0.5, 0.25};
    r.reduction.pwr_err_pdf = {0.5, 0.5};
    r.stencil.autocorr = {0.9, -0.1};
    r.ssim.windows = 7;
    double v = 1.5;
    for (double* slot : report_slots(r)) *slot = (v += 0.375);
    return r;
}

TEST(ReportIdentity, EveryFieldIsComparedBitForBit) {
    const zc::AssessmentReport base = sample_report();
    EXPECT_TRUE(reports_identical(base, sample_report()));
    zc::AssessmentReport probe = sample_report();
    const std::size_t n = report_slots(probe).size();
    ASSERT_EQ(n, 47u);
    for (std::size_t i = 0; i < n; ++i) {
        zc::AssessmentReport ulp = sample_report();
        double& slot = *report_slots(ulp)[i];
        slot = std::nextafter(slot, std::numeric_limits<double>::infinity());
        EXPECT_FALSE(reports_identical(base, ulp)) << "slot " << i;

        zc::AssessmentReport pos = sample_report(), neg = sample_report();
        *report_slots(pos)[i] = 0.0;
        *report_slots(neg)[i] = -0.0;
        EXPECT_TRUE(*report_slots(pos)[i] == *report_slots(neg)[i]);
        EXPECT_FALSE(reports_identical(pos, neg)) << "slot " << i;
    }
    zc::AssessmentReport windows = sample_report();
    ++windows.ssim.windows;
    EXPECT_FALSE(reports_identical(base, windows));
    zc::AssessmentReport longer = sample_report();
    longer.stencil.autocorr.push_back(0.0);
    EXPECT_FALSE(reports_identical(base, longer));
}

std::string parse(const Flags& flags, std::initializer_list<const char*> args) {
    std::vector<const char*> argv{"bench"};
    argv.insert(argv.end(), args);
    return flags.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchFlags, TableRejectsGarbageOverflowEmptyAndUnknownFlags) {
    // The flag table of bench_net_throughput.
    std::size_t requests = 200, trials = 5;
    double tight = 0.1;
    bool check = false;
    std::string out = "BENCH_net_throughput.json";
    Flags flags("bench_net_throughput");
    flags.num("--requests", requests, std::size_t{1})
        .num("--tight", tight, 0.0)
        .num("--trials", trials, std::size_t{1})
        .flag("--check", check)
        .text("--out", out);
    for (const char* bad :
         {"--requests=12x", "--requests=99999999999999999999999", "--requests=",
          "--requests=0", "--requests=-3", "--requests=+4", "--requests= 4", "--requests",
          "--tight=nan", "--tight=0.1x", "--tight=", "--tight=-1", "--check=1", "--chek",
          "--requests_=4", "requests=4"}) {
        EXPECT_NE(parse(flags, {bad}), "") << bad;
    }
    EXPECT_EQ(requests, 200u);
    EXPECT_EQ(tight, 0.1);
    EXPECT_FALSE(check);
    EXPECT_EQ(parse(flags, {"--requests=12", "--tight=0.25", "--check", "--out="}), "");
    EXPECT_EQ(requests, 12u);
    EXPECT_EQ(tight, 0.25);
    EXPECT_TRUE(check);
    EXPECT_EQ(out, "");
}

TEST(BenchFlags, ListsAndDimsAreStrict) {
    std::vector<unsigned> scales{8, 4};
    zc::Dims3 dims{40, 40, 40};
    Flags flags("bench");
    flags.list("--scales", scales).dims("--dims", dims);
    for (const char* bad : {"--scales=", "--scales=8,", "--scales=,4", "--scales=8,,4",
                            "--scales=0", "--scales=8x", "--scales=-4", "--dims=4x5",
                            "--dims=4x5x6x", "--dims=4x0x6", "--dims=4x5x", "--dims="}) {
        EXPECT_NE(parse(flags, {bad}), "") << bad;
    }
    EXPECT_EQ(scales, (std::vector<unsigned>{8, 4}));
    EXPECT_EQ(parse(flags, {"--scales=16", "--dims=4x5x6"}), "");
    EXPECT_EQ(scales, (std::vector<unsigned>{16}));
    EXPECT_EQ(dims, (zc::Dims3{4, 5, 6}));
}

/// BenchConfig::from_args on a real argv (it takes `char**` in every
/// revision of the harness).
BenchConfig scale_from(std::initializer_list<const char*> args) {
    std::vector<std::string> store{"bench_fig10_overall"};
    store.insert(store.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : store) argv.push_back(a.data());
    return BenchConfig::from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchConfigDeathTest, ScaleTypoExitsInsteadOfRunningFullSize) {
    // Each of these used to select scale 1: the full 141M-element fields.
    ::unsetenv("CUZC_BENCH_SCALE");
    for (const char* bad : {"--scale=abc", "--scale=-4", "--scale=0", "--scale=", "--scale=8x",
                            "--scale=99999999999", "--scales=8"}) {
        EXPECT_EXIT((void)scale_from({bad}), ::testing::ExitedWithCode(2),
                    "bench_fig10_overall: ")
            << bad;
    }
    for (const char* bad : {"", "abc", "0", "-4"}) {
        ::setenv("CUZC_BENCH_SCALE", bad, 1);
        EXPECT_EXIT((void)scale_from({}), ::testing::ExitedWithCode(2), "CUZC_BENCH_SCALE")
            << "'" << bad << "'";
    }
    ::setenv("CUZC_BENCH_SCALE", "4", 1);
    EXPECT_EQ(scale_from({}).scale, 4u);
    EXPECT_EQ(scale_from({"--scale=16"}).scale, 16u);
    ::unsetenv("CUZC_BENCH_SCALE");
    EXPECT_EQ(scale_from({}).scale, 8u);
}

TEST(BenchRecord, WritesEnvelopeKeysAndGates) {
    Record rec("bench_test");
    rec.set("requests", 32).set("relative_throughput", 0.75).set("dims", "4x4x4");
    rec.set("results", ::cuzc::io::Json::Array{
                           ::cuzc::io::Json::Object{{"stats", stats_json(vgpu::KernelStats{})}}});
    EXPECT_TRUE(rec.check("identical", 32, Op::kEqual, 32));
    EXPECT_FALSE(rec.check("relative_throughput", 0.75, Op::kAtLeast, 0.8, false));
    EXPECT_EQ(rec.status(), 0);  // the failed floor was not enforced

    const auto path = std::filesystem::temp_directory_path() /
                      ("cuzc_bench_record_" + std::to_string(::getpid()) + ".json");
    testing::internal::CaptureStdout();
    EXPECT_EQ(rec.finish(path.string()), 0);
    const std::string printed = testing::internal::GetCapturedStdout();
    std::ifstream in(path);
    std::stringstream doc;
    doc << in.rdbuf();
    std::filesystem::remove(path);
    EXPECT_EQ(printed, doc.str());
    const std::string text = tst::strip_json_ws(doc.str());
    for (const char* key : {"\"schema\":\"cuzc-bench-v1\"", "\"bench\":\"bench_test\"",
                            "\"simd\":\"simd=", "\"block_workers\":", "\"nproc\":",
                            "\"peak_rss_kib\":", "\"requests\":32",
                            "\"relative_throughput\":0.75", "\"dims\":\"4x4x4\"",
                            "\"stats\":{\"blocks\":0,", "\"gates\":[",
                            "{\"name\":\"identical\",\"value\":32,\"op\":\"==\","
                            "\"threshold\":32,\"outcome\":\"pass\"}",
                            "\"op\":\">=\",\"threshold\":0.8,\"outcome\":\"skip\"}"}) {
        EXPECT_NE(text.find(key), std::string::npos) << key << "\n" << text;
    }
    EXPECT_LT(text.find("\"peak_rss_kib\""), text.find("\"requests\""));
    EXPECT_LT(text.find("\"requests\""), text.find("\"gates\""));

    // An enforced failing gate is reported and fails the run.
    testing::internal::CaptureStderr();
    EXPECT_FALSE(rec.check("bytes_copied", 245888, Op::kEqual, 0));
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "bench_test: FAIL bytes_copied: 245888 == 0 does not hold\n");
    testing::internal::CaptureStdout();
    EXPECT_EQ(rec.finish(""), 1);
    (void)testing::internal::GetCapturedStdout();
}

TEST(Harness, Formatting) {
    EXPECT_NE(fmt_time(2.5).find("s"), std::string::npos);
    EXPECT_NE(fmt_time(2.5e-3).find("ms"), std::string::npos);
    EXPECT_NE(fmt_time(2.5e-6).find("us"), std::string::npos);
    EXPECT_NE(fmt_rate(2.0e9).find("GB/s"), std::string::npos);
    EXPECT_NE(fmt_rate(2.0e6).find("MB/s"), std::string::npos);
}

}  // namespace

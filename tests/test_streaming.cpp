// Streaming (in-situ) assessment tests: chunked feeding must reproduce the
// one-shot pattern-1 metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/rng.hpp"
#include "fuzz/serial_fold.hpp"
#include "net/wire.hpp"
#include "test_helpers.hpp"
#include "vgpu/simd.hpp"
#include "zc/zc.hpp"

namespace {

namespace zc = ::cuzc::zc;
namespace tst = ::cuzc::testing;

struct ChunkCase {
    std::size_t chunk;
};

class StreamingChunks : public ::testing::TestWithParam<ChunkCase> {};

TEST_P(StreamingChunks, MatchesOneShotScalars) {
    const zc::Field orig = tst::smooth_field({12, 14, 16}, 3);
    const zc::Field dec = tst::perturbed(orig, 0.02, 9);
    zc::MetricsConfig cfg;
    cfg.pdf_bins = 32;
    const auto ref = zc::reduction_metrics(orig.view(), dec.view(), cfg);

    zc::StreamingAssessor sa(cfg);
    const std::size_t chunk = GetParam().chunk;
    for (std::size_t off = 0; off < orig.size(); off += chunk) {
        const std::size_t n = std::min(chunk, orig.size() - off);
        sa.feed(orig.data().subspan(off, n), dec.data().subspan(off, n));
    }
    EXPECT_EQ(sa.consumed(), orig.size());
    const auto got = sa.finalize();

    // Every scalar is exact (moments merge associatively).
    tst::expect_close(ref.min_err, got.min_err, 1e-12, "min_err");
    tst::expect_close(ref.max_err, got.max_err, 1e-12, "max_err");
    tst::expect_close(ref.avg_err, got.avg_err, 1e-12, "avg_err");
    tst::expect_close(ref.mse, got.mse, 1e-12, "mse");
    tst::expect_close(ref.psnr_db, got.psnr_db, 1e-12, "psnr");
    tst::expect_close(ref.snr_db, got.snr_db, 1e-12, "snr");
    tst::expect_close(ref.pearson_r, got.pearson_r, 1e-12, "pearson");
    tst::expect_close(ref.min_pwr_err, got.min_pwr_err, 1e-12, "min_pwr");
    tst::expect_close(ref.max_pwr_err, got.max_pwr_err, 1e-12, "max_pwr");
    tst::expect_close(ref.mean_val, got.mean_val, 1e-12, "mean_val");
    tst::expect_close(ref.std_val, got.std_val, 1e-12, "std_val");

    // Distributions: mass is conserved and the ranges match.
    double mass = 0;
    for (const auto p : got.err_pdf) mass += p;
    EXPECT_NEAR(mass, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(got.err_pdf_min, ref.err_pdf_min);
    EXPECT_DOUBLE_EQ(got.err_pdf_max, ref.err_pdf_max);
    // Entropy within sub-bin rebinning tolerance.
    tst::expect_close(ref.entropy, got.entropy, 0.05, "entropy");
}

INSTANTIATE_TEST_SUITE_P(Sizes, StreamingChunks,
                         ::testing::Values(ChunkCase{1}, ChunkCase{7}, ChunkCase{128},
                                           ChunkCase{1000}, ChunkCase{100000}));

TEST(Streaming, SingleFeedMatchesPdfExactly) {
    // With one chunk the ranges are final from the start, so even the PDFs
    // are bit-identical to the one-shot computation.
    const zc::Field orig = tst::smooth_field({10, 10, 10}, 6);
    const zc::Field dec = tst::perturbed(orig, 0.05, 2);
    zc::MetricsConfig cfg;
    const auto ref = zc::reduction_metrics(orig.view(), dec.view(), cfg);
    zc::StreamingAssessor sa(cfg);
    sa.feed(orig.data(), dec.data());
    const auto got = sa.finalize();
    ASSERT_EQ(got.err_pdf.size(), ref.err_pdf.size());
    for (std::size_t b = 0; b < ref.err_pdf.size(); ++b) {
        EXPECT_DOUBLE_EQ(got.err_pdf[b], ref.err_pdf[b]) << "bin " << b;
        EXPECT_DOUBLE_EQ(got.pwr_err_pdf[b], ref.pwr_err_pdf[b]) << "bin " << b;
    }
    EXPECT_DOUBLE_EQ(got.entropy, ref.entropy);
}

TEST(Streaming, EmptyFinalizeIsZero) {
    zc::StreamingAssessor sa(zc::MetricsConfig{});
    const auto got = sa.finalize();
    EXPECT_DOUBLE_EQ(got.mse, 0.0);
    EXPECT_EQ(sa.consumed(), 0u);
}

TEST(Streaming, RangeGrowthRebinsWithoutLosingMass) {
    zc::MetricsConfig cfg;
    cfg.pdf_bins = 10;
    zc::StreamingAssessor sa(cfg);
    // First chunk has tiny errors, later chunks 100x larger -> the error
    // range grows drastically and the early counts must be rebinned.
    std::vector<float> o1(100, 1.0f), d1(100, 1.001f);
    std::vector<float> o2(100, 1.0f), d2(100, 1.5f);
    sa.feed(o1, d1);
    sa.feed(o2, d2);
    const auto got = sa.finalize();
    double mass = 0;
    for (const auto p : got.err_pdf) mass += p;
    EXPECT_NEAR(mass, 1.0, 1e-12);
    EXPECT_NEAR(got.max_err, 0.5, 1e-6);
}

TEST(Streaming, ConstantErrorFirstChunkRebinsIntoTheGrownRange) {
    // Regression: a first chunk whose errors are all identical leaves the
    // accumulated range degenerate (lo == hi). When a later chunk grows the
    // range, the rebin used to divide by the zero-width old range and
    // scatter the early counts; the whole early mass must instead land in
    // the one new bin that contains the degenerate point.
    zc::MetricsConfig cfg;
    cfg.pdf_bins = 16;
    cfg.pattern2 = false;
    cfg.pattern3 = false;
    zc::StreamingAssessor sa(cfg);
    std::vector<float> o1(64, 2.0f), d1(64, 2.25f);  // every error exactly 0.25
    sa.feed(o1, d1);
    std::vector<float> o2(64), d2(64);
    for (std::size_t i = 0; i < o2.size(); ++i) {
        o2[i] = 2.0f;
        d2[i] = 2.0f + static_cast<float>(i) * 0.01f;  // errors 0 .. 0.63
    }
    sa.feed(o2, d2);
    const auto got = sa.finalize();

    // Mass is conserved and finite everywhere.
    double mass = 0;
    for (const auto p : got.err_pdf) {
        ASSERT_TRUE(std::isfinite(p));
        ASSERT_GE(p, 0.0);
        mass += p;
    }
    EXPECT_NEAR(mass, 1.0, 1e-12);

    // The first chunk's 64 identical errors all sit in the bin holding
    // 0.25 of the final [0, 0.63] range: that bin carries at least half
    // the total probability (64 early + a few late samples of 128).
    EXPECT_DOUBLE_EQ(got.err_pdf_min, 0.0);
    EXPECT_NEAR(got.err_pdf_max, 0.63, 1e-6);
    const int bins = cfg.pdf_bins;
    const auto peak = static_cast<std::size_t>(
        std::min<double>(bins - 1, (0.25 - got.err_pdf_min) /
                                       (got.err_pdf_max - got.err_pdf_min) * bins));
    EXPECT_GE(got.err_pdf[peak], 0.5) << "early mass not rebinned into the 0.25 bin";
}

TEST(Streaming, RandomChunkingReproducesBatchMomentsExactly) {
    // Property: whatever the chunk boundaries, every scalar moment equals
    // the one-shot batch computation bit for bit — the streamed accumulator
    // folds the same element order through the same moment code.
    const zc::Dims3 dims{14, 11, 13};
    const zc::Field orig = tst::smooth_field(dims, 17);
    const zc::Field dec = tst::perturbed(orig, 0.015, 71);
    zc::MetricsConfig cfg;
    cfg.pdf_bins = 24;
    const auto ref = zc::reduction_metrics(orig.view(), dec.view(), cfg);

    std::uint64_t rng = 0x9E3779B97F4A7C15ull;
    for (int trial = 0; trial < 8; ++trial) {
        zc::StreamingAssessor sa(cfg);
        std::size_t off = 0;
        while (off < dims.volume()) {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            const std::size_t n =
                std::min<std::size_t>(1 + (rng >> 33) % 777, dims.volume() - off);
            sa.feed(orig.data().subspan(off, n), dec.data().subspan(off, n));
            off += n;
        }
        const auto got = sa.finalize();
        EXPECT_EQ(got.min_err, ref.min_err) << "trial " << trial;
        EXPECT_EQ(got.max_err, ref.max_err) << "trial " << trial;
        EXPECT_EQ(got.avg_err, ref.avg_err) << "trial " << trial;
        EXPECT_EQ(got.avg_abs_err, ref.avg_abs_err) << "trial " << trial;
        EXPECT_EQ(got.max_abs_err, ref.max_abs_err) << "trial " << trial;
        EXPECT_EQ(got.min_pwr_err, ref.min_pwr_err) << "trial " << trial;
        EXPECT_EQ(got.max_pwr_err, ref.max_pwr_err) << "trial " << trial;
        EXPECT_EQ(got.mse, ref.mse) << "trial " << trial;
        EXPECT_EQ(got.rmse, ref.rmse) << "trial " << trial;
        EXPECT_EQ(got.nrmse, ref.nrmse) << "trial " << trial;
        EXPECT_EQ(got.snr_db, ref.snr_db) << "trial " << trial;
        EXPECT_EQ(got.psnr_db, ref.psnr_db) << "trial " << trial;
        EXPECT_EQ(got.pearson_r, ref.pearson_r) << "trial " << trial;
        EXPECT_EQ(got.min_val, ref.min_val) << "trial " << trial;
        EXPECT_EQ(got.max_val, ref.max_val) << "trial " << trial;
        EXPECT_EQ(got.mean_val, ref.mean_val) << "trial " << trial;
        EXPECT_EQ(got.std_val, ref.std_val) << "trial " << trial;
        EXPECT_EQ(got.err_pdf_min, ref.err_pdf_min) << "trial " << trial;
        EXPECT_EQ(got.err_pdf_max, ref.err_pdf_max) << "trial " << trial;
    }
}

TEST(Streaming, ChunkBoundaryErrorRangeSeedStaysDoublePrecision) {
    // Found by the stream-diff fuzz target (seed 7, iter 4): the feed used
    // to seed the chunk-local error range with a float-precision
    // `dec[0] - orig[0]`, while the accumulation loop subtracts in double.
    // When a chunk boundary lands on an element whose float-rounded
    // difference exceeds the true double difference, the accumulated PDF
    // range widens by a float ulp and err_pdf_max no longer matches the
    // batch computation bit for bit. This pair rounds UP in float:
    //   float(q - p)  = 0.88888883590698242
    //   double(q) - double(p) = 0.88888882100582123
    const float p = -0.7654321f, q = 0.1234567f;
    ASSERT_GT(static_cast<double>(q - p),
              static_cast<double>(q) - static_cast<double>(p));

    const std::vector<float> orig = {0.0f, p};
    const std::vector<float> dec = {0.5f, q};  // elem 1 holds the max error
    zc::MetricsConfig cfg = zc::MetricsConfig::only(zc::Pattern::kGlobalReduction);
    cfg.pdf_bins = 8;

    const zc::Dims3 dims{1, 1, 2};
    const auto ref = zc::reduction_metrics(zc::Tensor3f(orig, dims),
                                           zc::Tensor3f(dec, dims), cfg);

    // Split so the rounding-sensitive element opens the second chunk.
    zc::StreamingAssessor sa(cfg);
    sa.feed(std::span<const float>(orig).first(1), std::span<const float>(dec).first(1));
    sa.feed(std::span<const float>(orig).subspan(1), std::span<const float>(dec).subspan(1));
    const auto got = sa.finalize();
    EXPECT_EQ(got.err_pdf_max, ref.err_pdf_max);
    EXPECT_EQ(got.max_err, ref.max_err);

    // Mirror image exercises the low side of the range.
    const std::vector<float> orig2 = {0.0f, q};
    const std::vector<float> dec2 = {-0.5f, p};
    const auto ref2 = zc::reduction_metrics(zc::Tensor3f(orig2, dims),
                                            zc::Tensor3f(dec2, dims), cfg);
    zc::StreamingAssessor sa2(cfg);
    sa2.feed(std::span<const float>(orig2).first(1), std::span<const float>(dec2).first(1));
    sa2.feed(std::span<const float>(orig2).subspan(1), std::span<const float>(dec2).subspan(1));
    EXPECT_EQ(sa2.finalize().err_pdf_min, ref2.err_pdf_min);
}

TEST(Streaming, MismatchedChunkThrowsAndConsumesNothing) {
    // Truncating to the overlap would skew every accumulated moment; the
    // feed must reject the chunk outright and leave the accumulator as it
    // was, so a caller can recover and keep streaming.
    zc::StreamingAssessor sa(zc::MetricsConfig{});
    std::vector<float> good_o(50, 1.0f), good_d(50, 1.01f);
    sa.feed(good_o, good_d);
    const auto before = sa.finalize();

    std::vector<float> o(40, 1.0f), d(39, 1.0f);
    try {
        sa.feed(o, d);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("chunk size mismatch"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(sa.consumed(), 50u);
    const auto after = sa.finalize();
    EXPECT_EQ(after.mse, before.mse);
    EXPECT_EQ(after.err_pdf, before.err_pdf);
}

namespace simd = ::cuzc::vgpu::simd;
namespace fuzz = ::cuzc::fuzz;

/// Restores the SIMD backend a test started with.
struct BackendGuard {
    simd::Backend saved = simd::active_backend();
    ~BackendGuard() { simd::force_backend(saved); }
};

TEST(Streaming, LaneFoldMatchesTheSerialOracleOnEveryBackend) {
    // Random chunkings of 1-16 and 1-1500 elements, 1-300 bins, pwr_eps 0
    // now and then, and inputs with ±0, ±inf, NaN and denormals: the lane
    // fold and the batch reduction reproduce the serial fold's every
    // report field.
    constexpr float kInf = std::numeric_limits<float>::infinity();
    constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
    const float specials[] = {0.0f, -0.0f, kInf, -kInf, std::numeric_limits<float>::quiet_NaN(),
                              kDenorm, -3 * kDenorm};
    fuzz::Rng rng(27);
    BackendGuard guard;
    for (int c = 0; c < 120; ++c) {
        const std::size_t n = rng.range(1, 5000);
        const double special = c % 3 == 0 ? 0.0 : 0.05 * static_cast<double>(c % 3);
        std::vector<float> orig(n), dec(n);
        for (std::size_t i = 0; i < n; ++i) {
            orig[i] = rng.chance(special) ? specials[rng.below(std::size(specials))]
                                          : static_cast<float>(rng.unit() * 2.0 - 1.0);
            dec[i] = rng.chance(special)  ? specials[rng.below(std::size(specials))]
                     : rng.chance(0.1)    ? orig[i]
                                          : orig[i] + static_cast<float>(rng.unit() * 0.01);
        }
        zc::MetricsConfig cfg = zc::MetricsConfig::only(zc::Pattern::kGlobalReduction);
        cfg.pdf_bins = static_cast<int>(rng.range(1, 300));
        if (c % 4 == 1) cfg.pwr_eps = 0.0;
        // Odd cases come in chunks of at most 16 elements, rebinning often.
        const std::size_t max_chunk = c % 2 == 1 ? 16 : 1500;
        std::vector<std::size_t> cuts;
        for (std::size_t off = 0; off < n; off += cuts.back()) {
            cuts.push_back(std::min<std::size_t>(n - off, rng.range(1, max_chunk)));
        }
        const auto ref = fuzz::fold_chunks<fuzz::SerialStreamFold>(cfg, orig, dec, cuts);
        const auto ref_whole = fuzz::fold_chunks<fuzz::SerialStreamFold>(cfg, orig, dec, {n});
        const zc::Tensor3f to(orig, {1, 1, n}), td(dec, {1, 1, n});
        for (const simd::Backend b : simd::available_backends()) {
            ASSERT_TRUE(simd::force_backend(b));
            EXPECT_TRUE(fuzz::same_report_bits(
                fuzz::fold_chunks<zc::StreamingAssessor>(cfg, orig, dec, cuts), ref))
                << "case " << c << " on " << simd::backend_name(b);
            EXPECT_TRUE(fuzz::same_report_bits(zc::reduction_metrics(to, td, cfg), ref_whole))
                << "batch, case " << c << " on " << simd::backend_name(b);
        }
    }
}

TEST(Streaming, LaneFoldTakesTheSerialExtremeOfSignedZerosAndNaNSeeds) {
    // The serial fold keeps the first element attaining an extreme (so -0
    // before +0 gives -0) and ignores the range of a chunk whose element 0
    // is NaN while its moments still fold every element. In the second
    // pair the min of x, in the third the max of e and of p, is first
    // attained by a +0 at element 1 (lane 1), while lane 0 reaches a -0 at
    // element 4: a fold in lane order would return -0.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const std::vector<std::pair<std::vector<float>, std::vector<float>>> pairs = {
        {{1.0f, 0.0f, -0.0f, 2.0f, 5.0f, nan, 0.0f, -4.0f, 3.0f},
         {1.5f, 0.0f, -0.0f, 2.0f, 5.0f, 1.0f, -0.0f, -4.5f, 9.0f}},
        {{2.0f, 0.0f, 2.0f, 2.0f, -0.0f, 2.0f, 2.0f, 2.0f, 2.0f},
         {1.0f, 0.0f, 1.0f, 1.0f, -0.0f, 1.0f, 1.0f, 1.0f, 1.0f}},
        {{2.0f, 1.0f, 2.0f, 2.0f, 0.0f, 2.0f, 2.0f, 2.0f, 2.0f},
         {1.0f, 1.0f, 1.0f, 1.0f, -0.0f, 1.0f, 1.0f, 1.0f, 1.0f}},
    };
    zc::MetricsConfig cfg = zc::MetricsConfig::only(zc::Pattern::kGlobalReduction);
    cfg.pdf_bins = 4;
    BackendGuard guard;
    for (const simd::Backend b : simd::available_backends()) {
        ASSERT_TRUE(simd::force_backend(b));
        for (std::size_t k = 0; k < pairs.size(); ++k) {
            const auto& [orig, dec] = pairs[k];
            for (const std::vector<std::size_t>& cuts :
                 {std::vector<std::size_t>{9}, {5, 4}, {1, 4, 4}, {2, 1, 6}, {3, 3, 3}, {1, 8}}) {
                EXPECT_TRUE(fuzz::same_report_bits(
                    fuzz::fold_chunks<zc::StreamingAssessor>(cfg, orig, dec, cuts),
                    fuzz::fold_chunks<fuzz::SerialStreamFold>(cfg, orig, dec, cuts)))
                    << "pair " << k << " on " << simd::backend_name(b) << ", first chunk "
                    << cuts[0];
            }
        }
    }
}

TEST(Streaming, StreamDigestOf128CubeAt64KiChunksIsPinned) {
    // encode_report digest of the serial fold's report, captured before
    // the lane passes, of the 128^3 pair streamed in 64 Ki-element chunks.
    const zc::Field orig = tst::smooth_field({128, 128, 128}, 3);
    const zc::Field dec = tst::perturbed(orig, 0.02, 9);
    const zc::MetricsConfig cfg = zc::MetricsConfig::only(zc::Pattern::kGlobalReduction);
    BackendGuard guard;
    for (const simd::Backend b : simd::available_backends()) {
        ASSERT_TRUE(simd::force_backend(b));
        zc::StreamingAssessor sa(cfg);
        for (std::size_t off = 0; off < orig.size(); off += 65536) {
            sa.feed(orig.data().subspan(off, 65536), dec.data().subspan(off, 65536));
        }
        const zc::AssessmentReport rep{sa.finalize(), {}, {}};
        EXPECT_EQ(::cuzc::net::digest_report(0, rep), 0xaa0d0b1a3b986b7dull)
            << simd::backend_name(b);
    }
}

}  // namespace

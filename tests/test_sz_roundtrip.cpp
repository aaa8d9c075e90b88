// SZ compressor tests: the error-bound guarantee (property-style over
// bounds x field kinds), quantizer/Lorenzo units, ratio behaviour, and
// stream robustness.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "data/datasets.hpp"
#include "sz/sz.hpp"
#include "test_helpers.hpp"
#include "zc/zc.hpp"

namespace {

namespace sz = ::cuzc::sz;
namespace zc = ::cuzc::zc;
namespace data = ::cuzc::data;
namespace tst = ::cuzc::testing;

TEST(Quantizer, RoundTripWithinBound) {
    const sz::LinearQuantizer q(0.01, 1024);
    for (double pred : {0.0, 1.0, -3.5}) {
        for (double v = -4.0; v <= 4.0; v += 0.037) {
            double recon;
            const auto code = q.quantize(v, pred, recon);
            if (code != 0) {
                EXPECT_LE(std::fabs(recon - v), 0.01);
                EXPECT_DOUBLE_EQ(q.reconstruct(code, pred), recon);
            } else {
                EXPECT_DOUBLE_EQ(recon, v);  // unpredictable: exact
            }
        }
    }
}

TEST(Quantizer, LargeResidualIsUnpredictable) {
    const sz::LinearQuantizer q(1e-6, 256);
    double recon;
    EXPECT_EQ(q.quantize(1000.0, 0.0, recon), 0u);
    EXPECT_DOUBLE_EQ(recon, 1000.0);
}

TEST(Lorenzo, PredictsPolynomialSurfacesExactly) {
    // The 3-D Lorenzo predictor is exact for f = a + bx + cy + dz + exy +
    // fxz + gyz + hxyz (trilinear), given exact neighbours.
    const zc::Dims3 d{4, 4, 4};
    std::vector<double> recon(d.volume());
    const auto f = [](double x, double y, double z) {
        return 1.0 + 2 * x + 3 * y - z + 0.5 * x * y - 0.25 * x * z + y * z + 0.125 * x * y * z;
    };
    for (std::size_t x = 0; x < d.h; ++x) {
        for (std::size_t y = 0; y < d.w; ++y) {
            for (std::size_t z = 0; z < d.l; ++z) {
                recon[d.index(x, y, z)] = f(x, y, z);
            }
        }
    }
    // Interior points (all neighbours in-domain) predict exactly.
    for (std::size_t x = 1; x < d.h; ++x) {
        for (std::size_t y = 1; y < d.w; ++y) {
            for (std::size_t z = 1; z < d.l; ++z) {
                const double pred = sz::lorenzo_predict(recon, d, x, y, z);
                // Lorenzo is exact for trilinear + lower-order terms except
                // the xyz term (3rd order): allow its residual.
                const double residual = 0.125;  // h^3 coefficient * 1
                EXPECT_NEAR(pred, f(x, y, z), residual + 1e-9);
            }
        }
    }
}

TEST(Lorenzo, BoundaryUsesZeroPadding) {
    const zc::Dims3 d{2, 2, 2};
    std::vector<double> recon(8, 5.0);
    EXPECT_DOUBLE_EQ(sz::lorenzo_predict(recon, d, 0, 0, 0), 0.0);
    EXPECT_DOUBLE_EQ(sz::lorenzo_predict(recon, d, 1, 0, 0), 5.0);
    EXPECT_DOUBLE_EQ(sz::lorenzo_predict(recon, d, 1, 1, 0), 5.0);  // 5+5-5
    EXPECT_DOUBLE_EQ(sz::lorenzo_predict(recon, d, 1, 1, 1), 5.0);
}

struct BoundCase {
    double eb;
    int kind;  // 0 smooth, 1 random, 2 generated dataset field
};

class ErrorBoundProperty : public ::testing::TestWithParam<BoundCase> {};

TEST_P(ErrorBoundProperty, RoundTripRespectsAbsoluteBound) {
    const auto [eb, kind] = GetParam();
    zc::Field orig;
    switch (kind) {
        case 0: orig = tst::smooth_field({20, 22, 24}, 13); break;
        case 1: orig = tst::random_field({16, 16, 16}, 29); break;
        default: {
            const auto spec = data::scaled(data::miranda(), 16);
            orig = data::generate_field(spec.fields[0], spec.dims);
        }
    }
    sz::SzConfig cfg;
    cfg.abs_error_bound = eb;
    const auto comp = sz::compress(orig.view(), cfg);
    const zc::Field dec = sz::decompress(comp.bytes);
    ASSERT_EQ(dec.dims(), orig.dims());
    double max_err = 0;
    for (std::size_t i = 0; i < orig.size(); ++i) {
        max_err = std::max(
            max_err, std::fabs(static_cast<double>(dec.data()[i]) - orig.data()[i]));
    }
    EXPECT_LE(max_err, eb * (1.0 + 1e-12)) << "bound violated";
    if (kind != 1) {
        EXPECT_GT(comp.compression_ratio(), 1.0);
    } else {
        // Incompressible noise at tight bounds may expand (codes + raw
        // unpredictables); the bound guarantee is what matters.
        EXPECT_GT(comp.compression_ratio(), 0.4);
    }
}

INSTANTIATE_TEST_SUITE_P(Bounds, ErrorBoundProperty,
                         ::testing::Values(BoundCase{1e-1, 0}, BoundCase{1e-2, 0},
                                           BoundCase{1e-3, 0}, BoundCase{1e-4, 0},
                                           BoundCase{1e-2, 1}, BoundCase{1e-4, 1},
                                           BoundCase{1e-2, 2}, BoundCase{1e-3, 2}));

TEST(SzCompressor, RelativeBoundScalesWithRange) {
    zc::Field orig = tst::smooth_field({12, 12, 12}, 3);
    for (std::size_t i = 0; i < orig.size(); ++i) orig.data()[i] *= 100.0f;
    sz::SzConfig cfg;
    cfg.use_rel_bound = true;
    cfg.rel_error_bound = 1e-3;
    const auto comp = sz::compress(orig.view(), cfg);
    float lo = orig.data()[0], hi = lo;
    for (std::size_t i = 0; i < orig.size(); ++i) {
        lo = std::min(lo, orig.data()[i]);
        hi = std::max(hi, orig.data()[i]);
    }
    EXPECT_NEAR(comp.effective_error_bound, 1e-3 * (static_cast<double>(hi) - lo), 1e-7);
    const zc::Field dec = sz::decompress(comp.bytes);
    for (std::size_t i = 0; i < orig.size(); ++i) {
        EXPECT_LE(std::fabs(static_cast<double>(dec.data()[i]) - orig.data()[i]),
                  comp.effective_error_bound * (1 + 1e-12));
    }
}

TEST(SzCompressor, SmoothDataCompressesBetterThanNoise) {
    const zc::Field smooth = tst::smooth_field({24, 24, 24}, 5);
    const zc::Field noise = tst::random_field({24, 24, 24}, 6);
    sz::SzConfig cfg;
    cfg.abs_error_bound = 1e-3;
    const double rs = sz::compress(smooth.view(), cfg).compression_ratio();
    const double rn = sz::compress(noise.view(), cfg).compression_ratio();
    EXPECT_GT(rs, rn);
    EXPECT_GT(rs, 4.0);  // smooth data must compress well
}

TEST(SzCompressor, LooserBoundGivesHigherRatio) {
    const zc::Field orig = tst::smooth_field({20, 20, 20}, 8);
    sz::SzConfig tight, loose;
    tight.abs_error_bound = 1e-5;
    loose.abs_error_bound = 1e-2;
    EXPECT_GT(sz::compress(orig.view(), loose).compression_ratio(),
              sz::compress(orig.view(), tight).compression_ratio());
}

TEST(SzCompressor, InvalidInputsThrow) {
    zc::Field empty;
    sz::SzConfig cfg;
    EXPECT_THROW((void)sz::compress(empty.view(), cfg), std::invalid_argument);
    const zc::Field f = tst::smooth_field({4, 4, 4}, 1);
    cfg.abs_error_bound = 0.0;
    EXPECT_THROW((void)sz::compress(f.view(), cfg), std::invalid_argument);
    cfg.abs_error_bound = 1e-3;
    cfg.quant_codes = 4;
    EXPECT_THROW((void)sz::compress(f.view(), cfg), std::invalid_argument);
    cfg.quant_codes = sz::kMaxQuantCodes + 1;
    EXPECT_THROW((void)sz::compress(f.view(), cfg), std::invalid_argument);
    // The limit itself is a valid alphabet.
    cfg.quant_codes = sz::kMaxQuantCodes;
    const zc::Field back = sz::decompress(sz::compress(f.view(), cfg).bytes);
    for (std::size_t i = 0; i < f.size(); ++i) {
        EXPECT_LE(std::fabs(static_cast<double>(back.data()[i]) - f.data()[i]), 1e-3);
    }
}

TEST(SzCompressor, CorruptStreamIsRejected) {
    const zc::Field f = tst::smooth_field({6, 6, 6}, 2);
    sz::SzConfig cfg;
    auto comp = sz::compress(f.view(), cfg);
    comp.bytes[0] ^= 0xFF;  // break the magic
    EXPECT_THROW((void)sz::decompress(comp.bytes), std::invalid_argument);

    // Hostile streams must throw in every build type, never read or write
    // out of bounds or allocate for a shape the bytes cannot hold.
    const std::vector<std::uint8_t> magic_only{0x43, 0x53, 0x5a, 0x43};
    EXPECT_THROW((void)sz::decompress(magic_only), std::invalid_argument);
    // Bit 1 is no code when the only code is the 1-bit 0.
    EXPECT_THROW((void)sz::decompress(tst::one_symbol_sz_stream({1, 1, 8}, {0xFF})),
                 std::invalid_argument);
    // 2^32 x 2^32 x 1 wraps to a volume of 0.
    EXPECT_THROW(
        (void)sz::decompress(tst::one_symbol_sz_stream({1ull << 32, 1ull << 32, 1}, {0x00})),
        std::invalid_argument);
    // 268 M elements declared by a 66-byte stream: more than 8 per byte.
    const auto bomb = tst::one_symbol_sz_stream({1024, 1024, 256}, {0x00});
    EXPECT_EQ(bomb.size(), 66u);
    EXPECT_THROW((void)sz::decompress(bomb), std::invalid_argument);

    // 61 bytes declaring num_codes = 2^32 - 1 (no symbols, one payload
    // byte) must not size a 4 GiB code-length table.
    sz::ByteWriter w;
    w.put<std::uint32_t>(0x435a5343);  // magic
    for (const std::uint64_t extent : {1, 1, 8}) w.put<std::uint64_t>(extent);
    w.put<double>(1e-3);               // error bound
    w.put<std::uint32_t>(0xFFFFFFFFu);  // num_codes
    w.put<std::uint32_t>(0);           // symbols present
    w.put<std::uint64_t>(0);           // unpredictable values
    w.put<std::uint64_t>(1);           // payload bytes
    w.put<std::uint8_t>(0x00);
    const std::vector<std::uint8_t> table_bomb = w.finish();
    EXPECT_EQ(table_bomb.size(), 61u);
    EXPECT_THROW((void)sz::decompress(table_bomb), std::invalid_argument);

    // The same layout with a payload that can hold the field decodes.
    const zc::Field ones = sz::decompress(tst::one_symbol_sz_stream({1, 1, 8}, {0x00}));
    EXPECT_EQ(ones.dims(), (zc::Dims3{1, 1, 8}));
    EXPECT_EQ(sz::stream_dims(bomb), (zc::Dims3{1024, 1024, 256}));
}

TEST(SzCompressor, UnpredictableCountReported) {
    const zc::Field noise = tst::random_field({10, 10, 10}, 77);
    sz::SzConfig cfg;
    cfg.abs_error_bound = 1e-9;  // nearly lossless: most points unpredictable
    const auto comp = sz::compress(noise.view(), cfg);
    EXPECT_GT(comp.unpredictable_count, 0u);
    const zc::Field dec = sz::decompress(comp.bytes);
    for (std::size_t i = 0; i < noise.size(); ++i) {
        EXPECT_LE(std::fabs(static_cast<double>(dec.data()[i]) - noise.data()[i]), 1e-9);
    }
}

}  // namespace

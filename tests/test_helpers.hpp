#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "data/noise.hpp"
#include "sz/bitstream.hpp"
#include "zc/field_buffer.hpp"
#include "zc/report.hpp"
#include "zc/tensor.hpp"

namespace cuzc::testing {

/// Deterministic pseudo-random field in [-1, 1] (hash-based; no global RNG
/// state, identical across platforms).
inline zc::Field random_field(zc::Dims3 dims, std::uint64_t seed) {
    zc::Field f(dims);
    for (std::size_t i = 0; i < f.size(); ++i) {
        f.data()[i] = static_cast<float>(data::to_unit(data::mix64(seed + i)) * 2.0 - 1.0);
    }
    return f;
}

/// Smooth structured field (superposed waves), compressible and with
/// non-trivial derivatives.
inline zc::Field smooth_field(zc::Dims3 dims, std::uint64_t seed) {
    zc::Field f(dims);
    const double p = 0.1 + 0.01 * static_cast<double>(seed % 7);
    std::size_t i = 0;
    for (std::size_t x = 0; x < dims.h; ++x) {
        for (std::size_t y = 0; y < dims.w; ++y) {
            for (std::size_t z = 0; z < dims.l; ++z, ++i) {
                f.data()[i] = static_cast<float>(
                    std::sin(p * static_cast<double>(x)) +
                    0.5 * std::cos(0.23 * static_cast<double>(y)) +
                    0.25 * std::sin(0.31 * static_cast<double>(z) + p));
            }
        }
    }
    return f;
}

/// Perturb a field by deterministic noise of amplitude `amp` — a stand-in
/// decompressed field with known error scale.
inline zc::Field perturbed(const zc::Field& src, double amp, std::uint64_t seed) {
    zc::Field f(src.dims());
    for (std::size_t i = 0; i < src.size(); ++i) {
        const double e = (data::to_unit(data::mix64(seed ^ (i * 2654435761ull))) * 2.0 - 1.0) * amp;
        f.data()[i] = static_cast<float>(src.data()[i] + e);
    }
    return f;
}

/// Same perturbation over a ref-counted data-plane view (e.g. a request's
/// `orig` member); identical output bytes for identical input.
inline zc::Field perturbed(const zc::FieldRef& src, double amp, std::uint64_t seed) {
    zc::Field f(src.dims());
    for (std::size_t i = 0; i < src.size(); ++i) {
        const double e = (data::to_unit(data::mix64(seed ^ (i * 2654435761ull))) * 2.0 - 1.0) * amp;
        f.data()[i] = static_cast<float>(src.data()[i] + e);
    }
    return f;
}

/// Relative-or-absolute closeness for metric comparisons across frameworks
/// (different summation orders).
inline void expect_close(double a, double b, double rel, const char* what) {
    if (std::isinf(a) || std::isinf(b)) {
        EXPECT_EQ(a, b) << what;
        return;
    }
    const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
    EXPECT_LE(std::fabs(a - b), rel * scale + 1e-12) << what << ": " << a << " vs " << b;
}

/// Compare every scalar of two assessment reports.
inline void expect_reports_close(const zc::AssessmentReport& a, const zc::AssessmentReport& b,
                                 double rel, bool p1 = true, bool p2 = true, bool p3 = true) {
    if (p1) {
        const auto& ra = a.reduction;
        const auto& rb = b.reduction;
        expect_close(ra.min_val, rb.min_val, rel, "min_val");
        expect_close(ra.max_val, rb.max_val, rel, "max_val");
        expect_close(ra.mean_val, rb.mean_val, rel, "mean_val");
        expect_close(ra.std_val, rb.std_val, rel, "std_val");
        expect_close(ra.entropy, rb.entropy, rel, "entropy");
        expect_close(ra.min_err, rb.min_err, rel, "min_err");
        expect_close(ra.max_err, rb.max_err, rel, "max_err");
        expect_close(ra.avg_err, rb.avg_err, rel, "avg_err");
        expect_close(ra.avg_abs_err, rb.avg_abs_err, rel, "avg_abs_err");
        expect_close(ra.min_pwr_err, rb.min_pwr_err, rel, "min_pwr_err");
        expect_close(ra.max_pwr_err, rb.max_pwr_err, rel, "max_pwr_err");
        expect_close(ra.avg_pwr_err, rb.avg_pwr_err, rel, "avg_pwr_err");
        expect_close(ra.mse, rb.mse, rel, "mse");
        expect_close(ra.rmse, rb.rmse, rel, "rmse");
        expect_close(ra.nrmse, rb.nrmse, rel, "nrmse");
        expect_close(ra.snr_db, rb.snr_db, rel, "snr_db");
        expect_close(ra.psnr_db, rb.psnr_db, rel, "psnr_db");
        expect_close(ra.pearson_r, rb.pearson_r, rel, "pearson_r");
        ASSERT_EQ(ra.err_pdf.size(), rb.err_pdf.size());
        for (std::size_t i = 0; i < ra.err_pdf.size(); ++i) {
            expect_close(ra.err_pdf[i], rb.err_pdf[i], rel, "err_pdf[i]");
            expect_close(ra.pwr_err_pdf[i], rb.pwr_err_pdf[i], rel, "pwr_err_pdf[i]");
        }
    }
    if (p2) {
        const auto& sa = a.stencil;
        const auto& sb = b.stencil;
        expect_close(sa.deriv1_avg_orig, sb.deriv1_avg_orig, rel, "deriv1_avg_orig");
        expect_close(sa.deriv1_max_orig, sb.deriv1_max_orig, rel, "deriv1_max_orig");
        expect_close(sa.deriv1_avg_dec, sb.deriv1_avg_dec, rel, "deriv1_avg_dec");
        expect_close(sa.deriv1_max_dec, sb.deriv1_max_dec, rel, "deriv1_max_dec");
        expect_close(sa.deriv1_mse, sb.deriv1_mse, rel, "deriv1_mse");
        expect_close(sa.deriv2_avg_orig, sb.deriv2_avg_orig, rel, "deriv2_avg_orig");
        expect_close(sa.deriv2_max_orig, sb.deriv2_max_orig, rel, "deriv2_max_orig");
        expect_close(sa.deriv2_avg_dec, sb.deriv2_avg_dec, rel, "deriv2_avg_dec");
        expect_close(sa.deriv2_max_dec, sb.deriv2_max_dec, rel, "deriv2_max_dec");
        expect_close(sa.deriv2_mse, sb.deriv2_mse, rel, "deriv2_mse");
        expect_close(sa.divergence_avg_orig, sb.divergence_avg_orig, rel, "divergence_avg_orig");
        expect_close(sa.divergence_avg_dec, sb.divergence_avg_dec, rel, "divergence_avg_dec");
        expect_close(sa.laplacian_avg_orig, sb.laplacian_avg_orig, rel, "laplacian_avg_orig");
        expect_close(sa.laplacian_avg_dec, sb.laplacian_avg_dec, rel, "laplacian_avg_dec");
        ASSERT_EQ(sa.autocorr.size(), sb.autocorr.size());
        for (std::size_t i = 0; i < sa.autocorr.size(); ++i) {
            expect_close(sa.autocorr[i], sb.autocorr[i], rel, "autocorr[i]");
        }
    }
    if (p3) {
        EXPECT_EQ(a.ssim.windows, b.ssim.windows);
        expect_close(a.ssim.ssim, b.ssim.ssim, rel, "ssim");
    }
}

/// Demand *bit-identical* reports — no tolerance, no absolute floor. Used
/// where two code paths promise the exact same arithmetic in the exact same
/// order (e.g. the threaded vs sequential multi-GPU pipelines).
inline void expect_reports_identical(const zc::AssessmentReport& a,
                                     const zc::AssessmentReport& b) {
    const auto& ra = a.reduction;
    const auto& rb = b.reduction;
    EXPECT_EQ(ra.min_val, rb.min_val);
    EXPECT_EQ(ra.max_val, rb.max_val);
    EXPECT_EQ(ra.mean_val, rb.mean_val);
    EXPECT_EQ(ra.std_val, rb.std_val);
    EXPECT_EQ(ra.entropy, rb.entropy);
    EXPECT_EQ(ra.min_err, rb.min_err);
    EXPECT_EQ(ra.max_err, rb.max_err);
    EXPECT_EQ(ra.avg_err, rb.avg_err);
    EXPECT_EQ(ra.avg_abs_err, rb.avg_abs_err);
    EXPECT_EQ(ra.mse, rb.mse);
    EXPECT_EQ(ra.rmse, rb.rmse);
    EXPECT_EQ(ra.snr_db, rb.snr_db);
    EXPECT_EQ(ra.psnr_db, rb.psnr_db);
    EXPECT_EQ(ra.pearson_r, rb.pearson_r);
    EXPECT_EQ(ra.err_pdf, rb.err_pdf);
    EXPECT_EQ(ra.pwr_err_pdf, rb.pwr_err_pdf);
    const auto& sa = a.stencil;
    const auto& sb = b.stencil;
    EXPECT_EQ(sa.deriv1_avg_orig, sb.deriv1_avg_orig);
    EXPECT_EQ(sa.deriv1_max_orig, sb.deriv1_max_orig);
    EXPECT_EQ(sa.deriv1_avg_dec, sb.deriv1_avg_dec);
    EXPECT_EQ(sa.deriv1_max_dec, sb.deriv1_max_dec);
    EXPECT_EQ(sa.deriv1_mse, sb.deriv1_mse);
    EXPECT_EQ(sa.deriv2_avg_orig, sb.deriv2_avg_orig);
    EXPECT_EQ(sa.deriv2_max_orig, sb.deriv2_max_orig);
    EXPECT_EQ(sa.deriv2_avg_dec, sb.deriv2_avg_dec);
    EXPECT_EQ(sa.deriv2_max_dec, sb.deriv2_max_dec);
    EXPECT_EQ(sa.deriv2_mse, sb.deriv2_mse);
    EXPECT_EQ(sa.divergence_avg_orig, sb.divergence_avg_orig);
    EXPECT_EQ(sa.divergence_avg_dec, sb.divergence_avg_dec);
    EXPECT_EQ(sa.laplacian_avg_orig, sb.laplacian_avg_orig);
    EXPECT_EQ(sa.laplacian_avg_dec, sb.laplacian_avg_dec);
    EXPECT_EQ(sa.autocorr, sb.autocorr);
    EXPECT_EQ(a.ssim.windows, b.ssim.windows);
    EXPECT_EQ(a.ssim.ssim, b.ssim.ssim);
}

/// An SZ stream in sz::compress's layout declaring `dims`, whose code
/// table holds one symbol with a 1-bit code and whose Huffman payload is
/// `payload`: the building block of hostile-stream tests.
inline std::vector<std::uint8_t> one_symbol_sz_stream(zc::Dims3 dims,
                                                      const std::vector<std::uint8_t>& payload) {
    sz::ByteWriter w;
    w.put<std::uint32_t>(0x435a5343);  // magic
    w.put<std::uint64_t>(dims.h);
    w.put<std::uint64_t>(dims.w);
    w.put<std::uint64_t>(dims.l);
    w.put<double>(1e-3);       // error bound
    w.put<std::uint32_t>(16);  // num_codes
    w.put<std::uint32_t>(1);   // symbols present
    w.put<std::uint32_t>(8);   // the symbol (code 0 after the radius shift)
    w.put<std::uint8_t>(1);    // its code length
    w.put<std::uint64_t>(0);   // unpredictable values
    w.put<std::uint64_t>(payload.size());
    w.put_bytes(payload);
    return w.finish();
}

/// `json` without the whitespace outside string literals, so two documents
/// that differ only in layout compare equal.
inline std::string strip_json_ws(std::string_view json) {
    std::string out;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (in_string) {
            out += c;
            if (c == '\\' && i + 1 < json.size()) {
                out += json[++i];
            } else if (c == '"') {
                in_string = false;
            }
        } else if (c == '"') {
            in_string = true;
            out += c;
        } else if (std::isspace(static_cast<unsigned char>(c)) == 0) {
            out += c;
        }
    }
    return out;
}

/// strip_json_ws(json) with the value of every member named in `keys`
/// replaced by `*`: the values that differ between runs (timings, ports,
/// paths, process-wide counters) are masked, every key and its order kept.
inline std::string mask_json(std::string_view json,
                             std::initializer_list<std::string_view> keys) {
    std::string s = strip_json_ws(json);
    for (const std::string_view key : keys) {
        const std::string needle = "\"" + std::string(key) + "\":";
        for (std::size_t at = s.find(needle); at != std::string::npos;
             at = s.find(needle, at + needle.size())) {
            const std::size_t begin = at + needle.size();
            std::size_t end = begin;
            int depth = 0;
            bool in_string = false;
            for (; end < s.size(); ++end) {
                const char c = s[end];
                if (in_string) {
                    if (c == '\\') {
                        ++end;
                    } else if (c == '"') {
                        in_string = false;
                    }
                } else if (c == '"') {
                    in_string = true;
                } else if (c == '{' || c == '[') {
                    ++depth;
                } else if ((c == '}' || c == ']' || c == ',') && depth == 0) {
                    break;
                } else if (c == '}' || c == ']') {
                    --depth;
                }
            }
            s.replace(begin, end - begin, "*");
        }
    }
    return s;
}

}  // namespace cuzc::testing

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace cuzc::zc {

/// The computing-intensive assessment metrics Z-checker supports,
/// classified by computational pattern as in the paper's Table I.
enum class Metric : std::uint32_t {
    // Category I — global reduction.
    kMinError,
    kMaxError,
    kAvgError,
    kErrorPdf,
    kMinPwrError,
    kMaxPwrError,
    kAvgPwrError,
    kPwrErrorPdf,
    kMse,
    kRmse,
    kNrmse,
    kSnr,
    kPsnr,
    kPearson,
    kValueStats,
    // Category II — stencil-like.
    kDerivativeOrder1,
    kDerivativeOrder2,
    kDivergence,
    kLaplacian,
    kAutocorrelation,
    // Category III — sliding window.
    kSsim,
};

/// The three computational patterns of the paper's pattern-oriented design
/// (Table I): global reduction, stencil-like, sliding window.
enum class Pattern : std::uint8_t { kGlobalReduction = 1, kStencil = 2, kSlidingWindow = 3 };

[[nodiscard]] constexpr Pattern pattern_of(Metric m) noexcept {
    switch (m) {
        case Metric::kDerivativeOrder1:
        case Metric::kDerivativeOrder2:
        case Metric::kDivergence:
        case Metric::kLaplacian:
        case Metric::kAutocorrelation: return Pattern::kStencil;
        case Metric::kSsim: return Pattern::kSlidingWindow;
        default: return Pattern::kGlobalReduction;
    }
}

[[nodiscard]] std::string_view to_string(Metric m) noexcept;
[[nodiscard]] std::string_view to_string(Pattern p) noexcept;

/// Assessment configuration: which metric groups run and with what
/// parameters. Defaults mirror the paper's evaluation setup (Section IV-B):
/// derivatives of order 1 and 2, autocorrelation lags up to 10, SSIM with
/// window side 8 and sliding step 1.
struct MetricsConfig {
    bool pattern1 = true;
    bool pattern2 = true;
    bool pattern3 = true;

    int pdf_bins = 100;
    int autocorr_max_lag = 10;
    int deriv_orders = 2;
    int ssim_window = 8;
    int ssim_step = 1;
    /// Floor applied to |original value| when forming pointwise relative
    /// ("pwr") errors, guarding division by (near-)zero data.
    double pwr_eps = 1e-6;

    [[nodiscard]] bool enabled(Pattern p) const noexcept {
        switch (p) {
            case Pattern::kGlobalReduction: return pattern1;
            case Pattern::kStencil: return pattern2;
            case Pattern::kSlidingWindow: return pattern3;
        }
        return false;
    }

    [[nodiscard]] static MetricsConfig all() { return MetricsConfig{}; }
    [[nodiscard]] static MetricsConfig only(Pattern p) { return only(p, MetricsConfig{}); }
    /// `base` with only pattern `p`'s metrics enabled.
    [[nodiscard]] static MetricsConfig only(Pattern p, MetricsConfig base) {
        base.pattern1 = p == Pattern::kGlobalReduction;
        base.pattern2 = p == Pattern::kStencil;
        base.pattern3 = p == Pattern::kSlidingWindow;
        return base;
    }
};

/// The limits every front end holds a MetricsConfig to: the wire's request
/// and stream-begin decoders, the trace reader and the .cfg loader. They
/// bound the allocations and kernel trip counts one config can ask for, and
/// sharing them keeps a config that one front end accepts acceptable to
/// every other.
inline constexpr int kMaxPdfBins = 1 << 20;
inline constexpr int kMaxAutocorrLag = 1 << 20;
inline constexpr int kMaxDerivOrders = 8;
inline constexpr int kMaxSsimExtent = 1 << 20;  ///< ssim_window and ssim_step

/// "" when every knob of `cfg` is within the limits above (and pwr_eps is
/// finite and >= 0), otherwise a message naming the first offending key.
[[nodiscard]] std::string validate(const MetricsConfig& cfg);

}  // namespace cuzc::zc

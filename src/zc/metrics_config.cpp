#include "metrics_config.hpp"

#include <cmath>

namespace cuzc::zc {

std::string_view to_string(Metric m) noexcept {
    switch (m) {
        case Metric::kMinError: return "min_error";
        case Metric::kMaxError: return "max_error";
        case Metric::kAvgError: return "avg_error";
        case Metric::kErrorPdf: return "error_pdf";
        case Metric::kMinPwrError: return "min_pwr_error";
        case Metric::kMaxPwrError: return "max_pwr_error";
        case Metric::kAvgPwrError: return "avg_pwr_error";
        case Metric::kPwrErrorPdf: return "pwr_error_pdf";
        case Metric::kMse: return "mse";
        case Metric::kRmse: return "rmse";
        case Metric::kNrmse: return "nrmse";
        case Metric::kSnr: return "snr";
        case Metric::kPsnr: return "psnr";
        case Metric::kPearson: return "pearson";
        case Metric::kValueStats: return "value_stats";
        case Metric::kDerivativeOrder1: return "derivative_order1";
        case Metric::kDerivativeOrder2: return "derivative_order2";
        case Metric::kDivergence: return "divergence";
        case Metric::kLaplacian: return "laplacian";
        case Metric::kAutocorrelation: return "autocorrelation";
        case Metric::kSsim: return "ssim";
    }
    return "?";
}

std::string_view to_string(Pattern p) noexcept {
    switch (p) {
        case Pattern::kGlobalReduction: return "pattern-1/global-reduction";
        case Pattern::kStencil: return "pattern-2/stencil";
        case Pattern::kSlidingWindow: return "pattern-3/sliding-window";
    }
    return "?";
}

std::string validate(const MetricsConfig& cfg) {
    const struct {
        const char* key;
        int value, min, max;
    } knobs[] = {
        {"pdf_bins", cfg.pdf_bins, 1, kMaxPdfBins},
        {"autocorr_max_lag", cfg.autocorr_max_lag, 0, kMaxAutocorrLag},
        {"deriv_orders", cfg.deriv_orders, 1, kMaxDerivOrders},
        {"ssim_window", cfg.ssim_window, 1, kMaxSsimExtent},
        {"ssim_step", cfg.ssim_step, 1, kMaxSsimExtent},
    };
    for (const auto& k : knobs) {
        if (k.value < k.min || k.value > k.max) {
            return std::string(k.key) + " = " + std::to_string(k.value) + " is outside [" +
                   std::to_string(k.min) + ", " + std::to_string(k.max) + "]";
        }
    }
    if (!(cfg.pwr_eps >= 0) || !std::isfinite(cfg.pwr_eps)) {
        return "pwr_eps must be finite and >= 0";
    }
    return {};
}

}  // namespace cuzc::zc

#pragma once

#include <cmath>
#include <cstdint>

namespace cuzc::sz {

/// SZ's error-bounded linear-scaling quantizer. Prediction residuals are
/// mapped to integer codes of width 2*eb: code = round(residual / (2*eb))
/// offset by half the code range; residuals too large for the range become
/// "unpredictable" (code 0) and the exact value is stored verbatim.
/// Reconstruction is pred + 2*eb*(code - radius), which guarantees
/// |reconstructed - value| <= eb for every predictable point.
class LinearQuantizer {
public:
    LinearQuantizer(double error_bound, std::uint32_t num_codes) noexcept
        : eb_(error_bound), radius_(num_codes / 2), num_codes_(num_codes) {}

    [[nodiscard]] std::uint32_t radius() const noexcept { return radius_; }
    [[nodiscard]] std::uint32_t num_codes() const noexcept { return num_codes_; }

    /// Quantize `value` against `pred`. Returns the code (0 means
    /// unpredictable) and leaves the reconstructed value in `recon` so the
    /// predictor chain can continue from what the decompressor will see.
    [[nodiscard]] std::uint32_t quantize(double value, double pred, double& recon) const noexcept {
        const double diff = value - pred;
        const double scaled = diff / (2.0 * eb_);
        if (std::fabs(scaled) < static_cast<double>(radius_) - 1.0) {
            const auto q = static_cast<std::int64_t>(std::llround(scaled));
            recon = pred + 2.0 * eb_ * static_cast<double>(q);
            // Guard against float rounding pushing past the bound.
            if (std::fabs(recon - value) <= eb_) {
                return static_cast<std::uint32_t>(q + static_cast<std::int64_t>(radius_));
            }
        }
        recon = value;
        return 0;  // unpredictable
    }

    /// Reconstruct from a non-zero code.
    [[nodiscard]] double reconstruct(std::uint32_t code, double pred) const noexcept {
        const auto q = static_cast<std::int64_t>(code) - static_cast<std::int64_t>(radius_);
        return pred + 2.0 * eb_ * static_cast<double>(q);
    }

private:
    double eb_;
    std::uint32_t radius_;
    std::uint32_t num_codes_;
};

}  // namespace cuzc::sz

#include "reduction_metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "streaming.hpp"

namespace cuzc::zc {

void finalize_reduction(const ReductionMoments& m, ReductionReport& out) {
    const double n = static_cast<double>(m.n);
    if (m.n == 0) return;

    out.min_val = m.min_val;
    out.max_val = m.max_val;
    out.value_range = m.max_val - m.min_val;
    out.mean_val = m.sum_val / n;
    out.var_val = std::max(0.0, m.sum_val_sq / n - out.mean_val * out.mean_val);
    out.std_val = std::sqrt(out.var_val);

    out.min_err = m.min_err;
    out.max_err = m.max_err;
    out.avg_err = m.sum_err / n;
    out.avg_abs_err = m.sum_abs_err / n;
    out.max_abs_err = std::max(std::fabs(m.min_err), std::fabs(m.max_err));

    out.min_pwr_err = m.min_pwr;
    out.max_pwr_err = m.max_pwr;
    out.avg_pwr_err = m.sum_pwr_abs / n;

    out.mse = m.sum_err_sq / n;
    out.rmse = std::sqrt(out.mse);
    out.nrmse = out.value_range > 0 ? out.rmse / out.value_range : 0.0;

    constexpr double kInf = std::numeric_limits<double>::infinity();
    out.snr_db = out.mse > 0 && out.var_val > 0 ? 10.0 * std::log10(out.var_val / out.mse)
                                                : (out.mse > 0 ? -kInf : kInf);
    out.psnr_db = out.mse > 0 && out.value_range > 0
                      ? 20.0 * std::log10(out.value_range) - 10.0 * std::log10(out.mse)
                      : kInf;

    const double mean_dec = m.sum_dec / n;
    const double var_dec = std::max(0.0, m.sum_dec_sq / n - mean_dec * mean_dec);
    const double cov = m.sum_cross / n - out.mean_val * mean_dec;
    const double denom = std::sqrt(out.var_val) * std::sqrt(var_dec);
    out.pearson_r = denom > 0 ? cov / denom : (out.var_val == 0 && var_dec == 0 ? 1.0 : 0.0);
}

ReductionReport reduction_metrics(const Tensor3f& orig, const Tensor3f& dec,
                                  const MetricsConfig& cfg) {
    if (orig.size() == 0 || dec.size() != orig.size()) return {};
    // One whole-field feed: with the ranges final from the start, the
    // stream fold is the batch computation, so both share one implementation.
    StreamingAssessor fold(cfg);
    fold.feed(orig.data(), dec.data());
    return fold.finalize();
}

}  // namespace cuzc::zc

#include "serial_fold.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "net/wire.hpp"
#include "zc/reduction_metrics.hpp"

namespace cuzc::fuzz {

void SerialStreamFold::feed(std::span<const float> orig, std::span<const float> dec) {
    if (orig.size() != dec.size()) {
        throw std::invalid_argument("SerialStreamFold::feed: chunk size mismatch (" +
                                    std::to_string(orig.size()) + " original vs " +
                                    std::to_string(dec.size()) + " decompressed elements)");
    }
    const std::size_t n = orig.size();
    if (n == 0) return;
    const int bins = fold_.bins;
    const double eps = fold_.cfg.pwr_eps;

    double lo[3], hi[3];
    lo[0] = hi[0] = static_cast<double>(dec[0]) - static_cast<double>(orig[0]);
    lo[1] = hi[1] = zc::pwr_error(orig[0], dec[0], eps);
    lo[2] = hi[2] = orig[0];
    for (std::size_t i = 0; i < n; ++i) {
        const double x = orig[i];
        const double e = static_cast<double>(dec[i]) - x;
        const double p = zc::pwr_error(x, dec[i], eps);
        lo[0] = std::min(lo[0], e);
        hi[0] = std::max(hi[0], e);
        lo[1] = std::min(lo[1], p);
        hi[1] = std::max(hi[1], p);
        lo[2] = std::min(lo[2], x);
        hi[2] = std::max(hi[2], x);
    }
    fold_.take_ranges(lo, hi);

    zc::ReductionMoments& m = fold_.moments;
    m.n += n;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = orig[i];
        const double y = dec[i];
        const double e = y - x;
        const double p = zc::pwr_error(x, y, eps);
        m.min_err = std::min(m.min_err, e);
        m.max_err = std::max(m.max_err, e);
        m.sum_err += e;
        m.sum_abs_err += std::fabs(e);
        m.sum_err_sq += e * e;
        m.min_pwr = std::min(m.min_pwr, p);
        m.max_pwr = std::max(m.max_pwr, p);
        m.sum_pwr_abs += std::fabs(p);
        m.min_val = std::min(m.min_val, x);
        m.max_val = std::max(m.max_val, x);
        m.sum_val += x;
        m.sum_val_sq += x * x;
        m.sum_dec += y;
        m.sum_dec_sq += y * y;
        m.sum_cross += x * y;
        const double v[3] = {e, p, x};
        for (int k = 0; k < 3; ++k) {
            fold_.hist[k][static_cast<std::size_t>(
                zc::pdf_bin(v[k], fold_.lo[k], fold_.hi[k], bins))] += 1.0;
        }
    }
}

bool same_report_bits(const zc::ReductionReport& a, const zc::ReductionReport& b) {
    const auto encoded = [](zc::ReductionReport r) {
        const auto one_nan = [](double& d) {
            if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
        };
        for (double* d : {&r.min_val, &r.max_val, &r.value_range, &r.mean_val, &r.var_val,
                          &r.std_val, &r.entropy, &r.min_err, &r.max_err, &r.avg_err,
                          &r.avg_abs_err, &r.max_abs_err, &r.min_pwr_err, &r.max_pwr_err,
                          &r.avg_pwr_err, &r.mse, &r.rmse, &r.nrmse, &r.snr_db, &r.psnr_db,
                          &r.pearson_r, &r.err_pdf_min, &r.err_pdf_max, &r.pwr_err_pdf_min,
                          &r.pwr_err_pdf_max}) {
            one_nan(*d);
        }
        for (double& d : r.err_pdf) one_nan(d);
        for (double& d : r.pwr_err_pdf) one_nan(d);
        return net::encode_report(zc::AssessmentReport{std::move(r), {}, {}});
    };
    return encoded(a) == encoded(b);
}

}  // namespace cuzc::fuzz

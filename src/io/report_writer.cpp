#include "report_writer.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "json.hpp"

namespace cuzc::io {

namespace {

struct NamedValue {
    const char* name;
    double value;
};

template <class Fn>
void for_each_scalar(const zc::AssessmentReport& r, Fn&& fn) {
    const auto& red = r.reduction;
    fn(NamedValue{"min_val", red.min_val});
    fn(NamedValue{"max_val", red.max_val});
    fn(NamedValue{"value_range", red.value_range});
    fn(NamedValue{"mean_val", red.mean_val});
    fn(NamedValue{"std_val", red.std_val});
    fn(NamedValue{"entropy", red.entropy});
    fn(NamedValue{"min_err", red.min_err});
    fn(NamedValue{"max_err", red.max_err});
    fn(NamedValue{"avg_err", red.avg_err});
    fn(NamedValue{"avg_abs_err", red.avg_abs_err});
    fn(NamedValue{"max_abs_err", red.max_abs_err});
    fn(NamedValue{"min_pwr_err", red.min_pwr_err});
    fn(NamedValue{"max_pwr_err", red.max_pwr_err});
    fn(NamedValue{"avg_pwr_err", red.avg_pwr_err});
    fn(NamedValue{"mse", red.mse});
    fn(NamedValue{"rmse", red.rmse});
    fn(NamedValue{"nrmse", red.nrmse});
    fn(NamedValue{"snr_db", red.snr_db});
    fn(NamedValue{"psnr_db", red.psnr_db});
    fn(NamedValue{"pearson_r", red.pearson_r});
    const auto& st = r.stencil;
    fn(NamedValue{"deriv1_avg_orig", st.deriv1_avg_orig});
    fn(NamedValue{"deriv1_max_orig", st.deriv1_max_orig});
    fn(NamedValue{"deriv1_avg_dec", st.deriv1_avg_dec});
    fn(NamedValue{"deriv1_max_dec", st.deriv1_max_dec});
    fn(NamedValue{"deriv1_mse", st.deriv1_mse});
    fn(NamedValue{"deriv2_avg_orig", st.deriv2_avg_orig});
    fn(NamedValue{"deriv2_max_orig", st.deriv2_max_orig});
    fn(NamedValue{"deriv2_avg_dec", st.deriv2_avg_dec});
    fn(NamedValue{"deriv2_max_dec", st.deriv2_max_dec});
    fn(NamedValue{"deriv2_mse", st.deriv2_mse});
    fn(NamedValue{"divergence_avg_orig", st.divergence_avg_orig});
    fn(NamedValue{"divergence_avg_dec", st.divergence_avg_dec});
    fn(NamedValue{"laplacian_avg_orig", st.laplacian_avg_orig});
    fn(NamedValue{"laplacian_avg_dec", st.laplacian_avg_dec});
    fn(NamedValue{"ssim", r.ssim.ssim});
}

/// The report's rule for values JSON cannot hold, applied before writing:
/// NaN reads 0 and +-inf reads +-1e308.
double json_safe(double v) {
    if (std::isnan(v)) return 0.0;
    if (std::isinf(v)) return v > 0 ? 1e308 : -1e308;
    return v;
}

}  // namespace

void write_text(std::ostream& os, const zc::AssessmentReport& r) {
    os << std::setprecision(10);
    for_each_scalar(r, [&](const NamedValue& nv) {
        os << std::left << std::setw(22) << nv.name << " = " << nv.value << '\n';
    });
    os << "autocorr              =";
    for (const auto v : r.stencil.autocorr) os << ' ' << v;
    os << '\n';
}

void write_csv(std::ostream& os, const zc::AssessmentReport& r) {
    os << std::setprecision(10);
    bool first = true;
    for_each_scalar(r, [&](const NamedValue& nv) {
        os << (first ? "" : ",") << nv.name;
        first = false;
    });
    os << '\n';
    first = true;
    for_each_scalar(r, [&](const NamedValue& nv) {
        os << (first ? "" : ",") << nv.value;
        first = false;
    });
    os << '\n';
}

void write_json(std::ostream& os, const zc::AssessmentReport& r) {
    Json doc = Json::Object{};
    for_each_scalar(r, [&](const NamedValue& nv) { doc.set(nv.name, json_safe(nv.value)); });
    Json::Array autocorr;
    for (const double v : r.stencil.autocorr) autocorr.emplace_back(json_safe(v));
    doc.set("autocorr", std::move(autocorr)).set("err_pdf_bins", r.reduction.err_pdf.size());
    os << std::setprecision(12) << doc << '\n';
}

std::string to_text(const zc::AssessmentReport& r) {
    std::ostringstream ss;
    write_text(ss, r);
    return ss.str();
}

std::string to_json(const zc::AssessmentReport& r) {
    std::ostringstream ss;
    write_json(ss, r);
    return ss.str();
}

}  // namespace cuzc::io

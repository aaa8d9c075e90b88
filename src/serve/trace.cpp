#include "trace.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "data/noise.hpp"
#include "io/strict_parse.hpp"

namespace cuzc::serve {

zc::MetricsConfig TraceEntry::metrics() const {
    zc::MetricsConfig cfg;
    cfg.pattern1 = pattern1;
    cfg.pattern2 = pattern2;
    cfg.pattern3 = pattern3;
    cfg.ssim_window = ssim_window;
    cfg.autocorr_max_lag = autocorr_max_lag;
    cfg.deriv_orders = deriv_orders;
    cfg.pdf_bins = pdf_bins;
    cfg.ssim_step = ssim_step;
    return cfg;
}

std::vector<TraceEntry> generate_trace(const TraceGenConfig& cfg) {
    std::vector<TraceEntry> trace;
    trace.reserve(cfg.requests);
    const std::size_t distinct = std::max<std::size_t>(cfg.distinct, 1);
    for (std::size_t r = 0; r < cfg.requests; ++r) {
        // Which of the distinct (field, config) combinations this request
        // asks for; repeats are spread through the trace by the hash.
        const std::size_t combo = data::mix64(cfg.seed + r) % distinct;
        TraceEntry e;
        e.dims = cfg.shapes[combo % cfg.shapes.size()];
        e.seed = cfg.seed * 1000 + combo;
        e.noise = 0.005 + 0.005 * static_cast<double>(combo % 3);
        // Three config variants, tied to the combo so repeats are exact.
        switch (combo % 3) {
            case 0: break;  // all patterns, default knobs
            case 1:
                e.pattern3 = false;
                e.pdf_bins = 64;  // exercised even when p3 is off: cache-key input
                break;
            case 2:
                e.pattern2 = false;
                e.ssim_step = 2;
                break;
            default: break;
        }
        // A deterministic slice of requests carries an impossible deadline.
        if (data::to_unit(data::mix64(cfg.seed ^ (r * 977))) < cfg.tight_deadline_fraction) {
            e.deadline_us = 0.001;
            e.priority = 1;
        }
        trace.push_back(e);
    }
    return trace;
}

void write_trace(std::ostream& os, std::span<const TraceEntry> trace) {
    os << "# cuzc-trace-v1\n";
    for (const TraceEntry& e : trace) {
        os << "req dims=" << e.dims.h << 'x' << e.dims.w << 'x' << e.dims.l
           << " seed=" << e.seed << " noise=" << e.noise << " p1=" << int{e.pattern1}
           << " p2=" << int{e.pattern2} << " p3=" << int{e.pattern3} << " win=" << e.ssim_window
           << " lag=" << e.autocorr_max_lag << " deriv=" << e.deriv_orders
           << " bins=" << e.pdf_bins << " step=" << e.ssim_step
           << " deadline_us=" << e.deadline_us << " prio=" << e.priority << "\n";
    }
}

namespace {

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& what) {
    throw std::runtime_error("trace line " + std::to_string(line_no) + ": " + what);
}

// The shared strict numeric grammar (io::parse_num): full consumption,
// no sign/whitespace laxity, floats must be finite. One rule across the
// trace, config, and CLI parsers.
using io::parse_num;

/// The wire's per-axis extent cap (net::wire kMaxExtent): a trace that the
/// in-process service would accept but a remote server would reject — or
/// vice versa — breaks the local-vs-remote replay equivalence the CI smokes
/// gate on. It also stops a size_t overflow: 4611686018427387904x3x1 wraps
/// h*w*l past the zero check and would OOM at materialize time. Each metric
/// knob is held to zc::validate's limits as it is read, as the wire does.
constexpr std::uint64_t kMaxExtent = 1ull << 20;

}  // namespace

std::vector<TraceEntry> read_trace(std::istream& is) {
    std::vector<TraceEntry> trace;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::string tok;
        ls >> tok;
        if (tok != "req") parse_fail(line_no, "expected 'req', got '" + tok + "'");
        TraceEntry e;
        while (ls >> tok) {
            const auto eq = tok.find('=');
            if (eq == std::string::npos) parse_fail(line_no, "token '" + tok + "' is not key=value");
            const std::string key = tok.substr(0, eq);
            const std::string val = tok.substr(eq + 1);
            // Every recognized value parses full-consumption and is
            // range-checked here, so a malformed trace fails at read time
            // with a line number instead of feeding the service a config
            // the kernels would choke on mid-replay.
            if (key == "dims") {
                std::size_t h = 0, w = 0, l = 0;
                const auto a = val.find('x');
                const auto b = val.find('x', a == std::string::npos ? a : a + 1);
                if (a == std::string::npos || b == std::string::npos ||
                    !parse_num(std::string_view(val).substr(0, a), h) ||
                    !parse_num(std::string_view(val).substr(a + 1, b - a - 1), w) ||
                    !parse_num(std::string_view(val).substr(b + 1), l) || h * w * l == 0 ||
                    h > kMaxExtent || w > kMaxExtent || l > kMaxExtent) {
                    parse_fail(line_no, "bad dims '" + val + "'");
                }
                e.dims = {h, w, l};
            } else if (key == "seed") {
                if (!parse_num(val, e.seed)) parse_fail(line_no, "bad value in '" + tok + "'");
            } else if (key == "noise") {
                if (!parse_num(val, e.noise) || e.noise < 0) {
                    parse_fail(line_no, "noise must be a number >= 0, got '" + val + "'");
                }
            } else if (key == "p1" || key == "p2" || key == "p3") {
                if (val != "0" && val != "1") {
                    parse_fail(line_no, key + " must be 0 or 1, got '" + val + "'");
                }
                (key == "p1" ? e.pattern1 : key == "p2" ? e.pattern2 : e.pattern3) = val == "1";
            } else if (key == "win" || key == "lag" || key == "deriv" || key == "bins" ||
                       key == "step") {
                int& knob = key == "win"     ? e.ssim_window
                            : key == "lag"   ? e.autocorr_max_lag
                            : key == "deriv" ? e.deriv_orders
                            : key == "bins"  ? e.pdf_bins
                                             : e.ssim_step;
                if (!parse_num(val, knob)) {
                    parse_fail(line_no, key + " must be an integer, got '" + val + "'");
                }
                if (const std::string err = zc::validate(e.metrics()); !err.empty()) {
                    parse_fail(line_no, err);
                }
            } else if (key == "deadline_us") {
                if (!parse_num(val, e.deadline_us) || e.deadline_us < 0) {
                    parse_fail(line_no, "deadline_us must be a number >= 0, got '" + val + "'");
                }
            } else if (key == "prio") {
                if (!parse_num(val, e.priority)) {
                    parse_fail(line_no, "prio must be an integer, got '" + val + "'");
                }
            }
            // Unknown keys are ignored (forward compatibility).
        }
        trace.push_back(e);
    }
    return trace;
}

std::pair<zc::Field, zc::Field> materialize(const TraceEntry& entry) {
    zc::Field orig(entry.dims);
    zc::Field dec(entry.dims);
    const double phase = data::to_unit(data::mix64(entry.seed)) * 6.28318530717958647692;
    std::size_t i = 0;
    for (std::size_t x = 0; x < entry.dims.h; ++x) {
        for (std::size_t y = 0; y < entry.dims.w; ++y) {
            for (std::size_t z = 0; z < entry.dims.l; ++z, ++i) {
                const double v = std::sin(0.13 * static_cast<double>(x) + phase) +
                                 0.5 * std::cos(0.21 * static_cast<double>(y)) +
                                 0.25 * std::sin(0.34 * static_cast<double>(z) + phase);
                orig.data()[i] = static_cast<float>(v);
                const double err =
                    (data::to_unit(data::mix64(entry.seed ^ (i * 2654435761ull))) * 2.0 - 1.0) *
                    entry.noise;
                dec.data()[i] = static_cast<float>(v + err);
            }
        }
    }
    return {std::move(orig), std::move(dec)};
}

AssessRequest to_request(const TraceEntry& entry) {
    auto [orig, dec] = materialize(entry);
    AssessRequest req;
    req.orig = std::move(orig);
    req.dec = std::move(dec);
    req.cfg = entry.metrics();
    req.deadline_model_s = entry.deadline_us * 1e-6;
    req.priority = entry.priority;
    return req;
}

}  // namespace cuzc::serve

#include "config.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/strict_parse.hpp"

namespace cuzc::io {

namespace {

[[nodiscard]] std::string trim(std::string_view s) {
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return std::string(s.substr(b, e - b));
}

}  // namespace

Config Config::parse(std::string_view text) {
    Config cfg;
    std::string section;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t nl = text.find('\n', pos);
        std::string_view line =
            text.substr(pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
        pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;

        const std::size_t comment = line.find_first_of("#;");
        if (comment != std::string_view::npos) line = line.substr(0, comment);
        const std::string trimmed = trim(line);
        if (trimmed.empty()) continue;

        if (trimmed.front() == '[') {
            if (trimmed.back() != ']') {
                throw std::runtime_error("config: malformed section header: " + trimmed);
            }
            section = trim(std::string_view(trimmed).substr(1, trimmed.size() - 2));
            continue;
        }
        const std::size_t eq = trimmed.find('=');
        if (eq == std::string::npos) {
            throw std::runtime_error("config: expected key=value, got: " + trimmed);
        }
        std::string key = trim(std::string_view(trimmed).substr(0, eq));
        if (key.empty()) {
            throw std::runtime_error("config: empty key in line: " + trimmed);
        }
        cfg.set(section, std::move(key), trim(std::string_view(trimmed).substr(eq + 1)));
    }
    return cfg;
}

Config Config::load(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("config: cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str());
}

void Config::set(std::string section, std::string key, std::string value) {
    entries_[{std::move(section), std::move(key)}] = std::move(value);
}

std::optional<std::string> Config::get(std::string_view section, std::string_view key) const {
    const auto it = entries_.find({std::string(section), std::string(key)});
    if (it == entries_.end()) return std::nullopt;
    return it->second;
}

std::string Config::get_or(std::string_view section, std::string_view key,
                           std::string_view fallback) const {
    auto v = get(section, key);
    return v ? *v : std::string(fallback);
}

namespace {

[[noreturn]] void value_fail(std::string_view section, std::string_view key,
                             std::string_view value, std::string_view kind) {
    throw std::runtime_error("config: [" + std::string(section) + "] " + std::string(key) +
                             ": invalid " + std::string(kind) + " '" + std::string(value) +
                             "'");
}

}  // namespace

int Config::get_int(std::string_view section, std::string_view key, int fallback) const {
    const auto v = get(section, key);
    if (!v) return fallback;
    int out = 0;
    // Full-consumption parse: "12abc" is an error here, not 12 — a typo'd
    // knob must fail loudly, naming the key, instead of half-applying.
    if (!parse_num(*v, out)) value_fail(section, key, *v, "integer");
    return out;
}

double Config::get_double(std::string_view section, std::string_view key,
                          double fallback) const {
    const auto v = get(section, key);
    if (!v) return fallback;
    double out = 0;
    if (!parse_num(*v, out)) value_fail(section, key, *v, "number");
    return out;
}

bool Config::get_bool(std::string_view section, std::string_view key, bool fallback) const {
    const auto v = get(section, key);
    if (!v) return fallback;
    if (*v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
    if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
    value_fail(section, key, *v, "boolean");
}

zc::MetricsConfig metrics_from_config(const Config& cfg) {
    zc::MetricsConfig m;
    m.pattern1 = cfg.get_bool("metrics", "pattern1", m.pattern1);
    m.pattern2 = cfg.get_bool("metrics", "pattern2", m.pattern2);
    m.pattern3 = cfg.get_bool("metrics", "pattern3", m.pattern3);
    m.pdf_bins = cfg.get_int("metrics", "pdf_bins", m.pdf_bins);
    m.autocorr_max_lag = cfg.get_int("metrics", "autocorr_max_lag", m.autocorr_max_lag);
    m.deriv_orders = cfg.get_int("metrics", "deriv_orders", m.deriv_orders);
    m.ssim_window = cfg.get_int("metrics", "ssim_window", m.ssim_window);
    m.ssim_step = cfg.get_int("metrics", "ssim_step", m.ssim_step);
    m.pwr_eps = cfg.get_double("metrics", "pwr_eps", m.pwr_eps);
    if (const std::string err = zc::validate(m); !err.empty()) {
        throw std::runtime_error("config: [metrics] " + err);
    }
    return m;
}

}  // namespace cuzc::io

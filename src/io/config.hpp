#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "zc/metrics_config.hpp"

namespace cuzc::io {

/// Z-checker-style `.cfg` configuration: INI dialect with [sections],
/// `key = value` entries, `#`/`;` comments, and case-sensitive keys.
class Config {
public:
    static Config parse(std::string_view text);
    static Config load(const std::string& path);

    [[nodiscard]] std::optional<std::string> get(std::string_view section,
                                                 std::string_view key) const;
    [[nodiscard]] std::string get_or(std::string_view section, std::string_view key,
                                     std::string_view fallback) const;
    [[nodiscard]] int get_int(std::string_view section, std::string_view key,
                              int fallback) const;
    [[nodiscard]] double get_double(std::string_view section, std::string_view key,
                                    double fallback) const;
    [[nodiscard]] bool get_bool(std::string_view section, std::string_view key,
                                bool fallback) const;

    void set(std::string section, std::string key, std::string value);
    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

private:
    std::map<std::pair<std::string, std::string>, std::string> entries_;
};

/// Build a MetricsConfig from the [metrics] section of a config file,
/// with the paper's evaluation parameters as defaults. Throws
/// std::runtime_error naming the key when a value is outside
/// zc::validate's limits.
[[nodiscard]] zc::MetricsConfig metrics_from_config(const Config& cfg);

}  // namespace cuzc::io

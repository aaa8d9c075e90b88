#pragma once

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace cuzc::io {

/// A JSON value, and the one JSON writer: reports, service and wire
/// telemetry, the CLI's replay/listen/fuzz summaries and every bench record
/// are built as a Json and written by `operator<<`, so each rule below has
/// one place:
///  - every string (keys included) goes through json_string;
///  - integers are written exactly, never through a double;
///  - a double is written as `os << v` (the stream's default notation and
///    precision), and a non-finite double as `null`;
///  - a container none of whose elements is a container is written on one
///    line; any other puts each element on its own line, indented two
///    spaces per level.
/// Objects keep their members in insertion order.
class Json {
public:
    using Array = std::vector<Json>;
    using Object = std::vector<std::pair<std::string, Json>>;

    Json() = default;  ///< null
    Json(bool v) : v_(v) {}
    template <std::signed_integral T>
    Json(T v) : v_(static_cast<std::int64_t>(v)) {}
    template <std::unsigned_integral T>
        requires(!std::same_as<T, bool>)
    Json(T v) : v_(static_cast<std::uint64_t>(v)) {}
    Json(double v) : v_(v) {}
    Json(const char* v) : v_(std::string(v)) {}
    Json(std::string_view v) : v_(std::string(v)) {}
    Json(std::string v) : v_(std::move(v)) {}
    Json(Array v) : v_(std::move(v)) {}
    Json(Object v) : v_(std::move(v)) {}

    /// Append member `key` to this object.
    Json& set(std::string key, Json value);

    friend std::ostream& operator<<(std::ostream& os, const Json& j);

private:
    void write(std::ostream& os, std::size_t depth) const;

    std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double, std::string, Array,
                 Object>
        v_;
};

/// `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped.
[[nodiscard]] std::string json_string(std::string_view s);

}  // namespace cuzc::io

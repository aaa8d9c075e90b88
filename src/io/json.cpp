#include "json.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace cuzc::io {

Json& Json::set(std::string key, Json value) {
    std::get<Object>(v_).emplace_back(std::move(key), std::move(value));
    return *this;
}

void Json::write(std::ostream& os, std::size_t depth) const {
    const auto* array = std::get_if<Array>(&v_);
    const auto* object = std::get_if<Object>(&v_);
    if (array == nullptr && object == nullptr) {
        if (const auto* d = std::get_if<double>(&v_)) {
            if (std::isfinite(*d)) {
                os << *d;
            } else {
                os << "null";
            }
        } else if (const auto* str = std::get_if<std::string>(&v_)) {
            os << json_string(*str);
        } else if (const auto* b = std::get_if<bool>(&v_)) {
            os << (*b ? "true" : "false");
        } else if (const auto* i = std::get_if<std::int64_t>(&v_)) {
            os << *i;
        } else if (const auto* u = std::get_if<std::uint64_t>(&v_)) {
            os << *u;
        } else {
            os << "null";
        }
        return;
    }
    // Arrays and objects share one layout; an array is an object without keys.
    const std::size_t n = array != nullptr ? array->size() : object->size();
    const auto element = [&](std::size_t i) -> const Json& {
        return array != nullptr ? (*array)[i] : (*object)[i].second;
    };
    bool nested = false;
    for (std::size_t i = 0; i < n; ++i) {
        nested = nested || std::holds_alternative<Array>(element(i).v_) ||
                 std::holds_alternative<Object>(element(i).v_);
    }
    os << (array != nullptr ? '[' : '{');
    for (std::size_t i = 0; i < n; ++i) {
        if (i > 0) os << (nested ? "," : ", ");
        if (nested) os << '\n' << std::string(2 * (depth + 1), ' ');
        if (object != nullptr) os << json_string((*object)[i].first) << ": ";
        element(i).write(os, depth + 1);
    }
    if (nested) os << '\n' << std::string(2 * depth, ' ');
    os << (array != nullptr ? ']' : '}');
}

std::ostream& operator<<(std::ostream& os, const Json& j) {
    j.write(os, 0);
    return os;
}

std::string json_string(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof(esc), "\\u%04x", static_cast<unsigned>(c));
            out += esc;
        } else {
            out += c;
        }
    }
    return out + '"';
}

}  // namespace cuzc::io

#pragma once

/// The one numeric grammar every text front-end shares — CLI flags, .cfg
/// values, trace tokens. A number is the *entire* token, parsed by
/// std::from_chars: no leading whitespace, no '+' sign, no trailing
/// garbage, no overflow, and (for floating point) no nan/inf — a config
/// knob or flag is never legitimately non-finite. Centralizing the rule
/// here keeps the three parsers from drifting apart: "12abc" must mean
/// the same thing (a parse error) to all of them.

#include <charconv>
#include <cmath>
#include <string_view>
#include <type_traits>

#include "zc/tensor.hpp"

namespace cuzc::io {

/// Strict full-consumption numeric parse. Returns false (leaving `out`
/// untouched) on empty input, leading whitespace, a stray or explicit '+'
/// sign, trailing garbage, out-of-range values, and non-finite floats.
template <class T>
[[nodiscard]] bool parse_num(std::string_view s, T& out) {
    const char* first = s.data();
    const char* last = s.data() + s.size();
    T value{};
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last) return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value)) return false;
    }
    out = value;
    return true;
}

/// Strict `HxWxL` extents (an `X` separator is accepted too). Each extent
/// is a full parse_num count, and a zero extent is rejected.
[[nodiscard]] inline bool parse_dims(std::string_view s, zc::Dims3& dims) {
    std::size_t parts[3] = {0, 0, 0};
    for (int idx = 0; idx < 3; ++idx) {
        // Separators live strictly *between* extents, so a trailing
        // "4x4x4x" leaves "4x" for the last extent and fails there.
        const std::size_t sep = idx < 2 ? s.find_first_of("xX") : s.size();
        if (sep == std::string_view::npos || !parse_num(s.substr(0, sep), parts[idx])) {
            return false;
        }
        s.remove_prefix(idx < 2 ? sep + 1 : sep);
    }
    dims = zc::Dims3{parts[0], parts[1], parts[2]};
    return dims.volume() > 0;
}

}  // namespace cuzc::io

#pragma once

#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "io/strict_parse.hpp"

namespace cuzc::io {

/// A command line as a table: each flag declared once with the variable it
/// sets. Exactly the declared flags are accepted, and every number goes
/// through io::parse_num, so `--requests=12x`, an empty or overflowing
/// value and a misspelled flag are errors, never a silent 12 or a no-op.
/// The `cuzc` CLI (one table per subcommand) and every bench parse this way.
class Flags {
public:
    explicit Flags(std::string program) : program_(std::move(program)) {}

    /// `--NAME`: sets `out` to `value`.
    Flags& flag(std::string_view name, bool& out, bool value = true);
    Flags& text(std::string_view name, std::string& out);  ///< `--NAME=TEXT`, may be empty
    /// `--NAME=N` with min <= N <= max.
    template <class T>
    Flags& num(std::string_view name, T& out, T min, T max = std::numeric_limits<T>::max());
    Flags& list(std::string_view name, std::vector<unsigned>& out);  ///< `--NAME=8,4`
    Flags& dims(std::string_view name, zc::Dims3& out);              ///< `--NAME=HxWxL`
    /// `--NAME=VALUE` through `set`, which refuses VALUE by returning false
    /// or by throwing a std::exception that names the reason.
    Flags& value(std::string_view name, std::function<bool(std::string_view)> set);
    /// The flag declared last also reads environment variable `var` first.
    Flags& from_env(const char* var);

    /// The first error, or "" when the environment and `argv[1..argc)`
    /// parsed (`argv[0]` is the program or subcommand name).
    [[nodiscard]] std::string parse(int argc, const char* const* argv) const;
    /// `parse`, or print "<program>: <error>" and exit with status 2.
    void parse_or_exit(int argc, const char* const* argv) const;

private:
    struct Spec {
        std::string name;
        bool takes_value = true;
        std::function<bool(std::string_view)> set;
        const char* env = nullptr;
    };
    Flags& add(std::string_view name, bool takes_value, std::function<bool(std::string_view)> set);

    std::string program_;
    std::vector<Spec> specs_;
};

template <class T>
Flags& Flags::num(std::string_view name, T& out, T min, T max) {
    return add(name, true, [&out, min, max](std::string_view v) {
        T parsed{};
        if (!parse_num(v, parsed) || parsed < min || parsed > max) return false;
        out = parsed;
        return true;
    });
}

}  // namespace cuzc::io

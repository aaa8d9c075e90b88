#include "flags.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>

namespace cuzc::io {

Flags& Flags::add(std::string_view name, bool takes_value,
                  std::function<bool(std::string_view)> set) {
    specs_.push_back(Spec{std::string(name), takes_value, std::move(set)});
    return *this;
}

Flags& Flags::flag(std::string_view name, bool& out, bool value) {
    return add(name, false, [&out, value](std::string_view) {
        out = value;
        return true;
    });
}

Flags& Flags::text(std::string_view name, std::string& out) {
    return add(name, true, [&out](std::string_view v) { out = v; return true; });
}

Flags& Flags::list(std::string_view name, std::vector<unsigned>& out) {
    return add(name, true, [&out](std::string_view v) {
        std::vector<unsigned> parsed;
        for (;;) {
            const std::size_t comma = v.find(',');
            if (!parse_num(v.substr(0, comma), parsed.emplace_back()) || parsed.back() < 1) {
                return false;
            }
            if (comma == std::string_view::npos) break;
            v.remove_prefix(comma + 1);
        }
        out = std::move(parsed);
        return true;
    });
}

Flags& Flags::dims(std::string_view name, zc::Dims3& out) {
    return add(name, true, [&out](std::string_view v) { return parse_dims(v, out); });
}

Flags& Flags::value(std::string_view name, std::function<bool(std::string_view)> set) {
    return add(name, true, std::move(set));
}

Flags& Flags::from_env(const char* var) {
    specs_.back().env = var;
    return *this;
}

std::string Flags::parse(int argc, const char* const* argv) const {
    for (const Spec& spec : specs_) {
        const char* env = spec.env != nullptr ? std::getenv(spec.env) : nullptr;
        if (env != nullptr && !spec.set(env)) {
            return "bad " + std::string(spec.env) + " value '" + env + "'";
        }
    }
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const std::size_t eq = arg.find('=');
        const auto spec = std::find_if(specs_.begin(), specs_.end(), [&](const Spec& s) {
            return s.name == arg.substr(0, eq);
        });
        if (spec == specs_.end()) return "unknown argument '" + std::string(arg) + "'";
        bool ok = spec->takes_value == (eq != std::string_view::npos);
        std::string why;
        try {
            ok = ok && spec->set(eq == std::string_view::npos ? std::string_view{}
                                                              : arg.substr(eq + 1));
        } catch (const std::exception& e) {
            ok = false;
            why = std::string(": ") + e.what();
        }
        if (!ok) return "bad " + spec->name + " in '" + std::string(arg) + "'" + why;
    }
    return {};
}

void Flags::parse_or_exit(int argc, const char* const* argv) const {
    if (const std::string err = parse(argc, argv); !err.empty()) {
        std::fprintf(stderr, "%s: %s\n", program_.c_str(), err.c_str());
        std::exit(2);
    }
}

}  // namespace cuzc::io

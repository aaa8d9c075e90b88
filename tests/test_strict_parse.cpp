// One strict numeric grammar across every text surface: io::parse_num is
// the single implementation, and the CLI, config, and trace parsers all
// route through it. This suite drives one accept/reject table through all
// four layers so a future "just use atoi here" regression fails loudly in
// the same place the grammar is defined.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "io/config.hpp"
#include "io/strict_parse.hpp"
#include "serve/trace.hpp"
#include "zc/metrics_config.hpp"

namespace {

namespace cli = ::cuzc::cli;
namespace io = ::cuzc::io;
namespace serve = ::cuzc::serve;
namespace zc = ::cuzc::zc;

/// The shared verdict table. `ok_int`/`ok_uint`/`ok_double` say whether
/// io::parse_num accepts the text for that type; the higher layers must
/// agree wherever the text can reach them.
struct NumCase {
    const char* text;
    bool ok_int;
    bool ok_uint;
    bool ok_double;
};

const NumCase kCases[] = {
    // clang-format off
    {"42",                             true,  true,  true },
    {"-3",                             true,  false, true },
    {"3.5",                            false, false, true },
    {"1e3",                            false, false, true },
    // Huge integer literals overflow every integer type but are a
    // perfectly finite 1e28 as a double — the cli-parse fuzz target
    // caught an earlier draft of this table getting that wrong.
    {"9999999999999999999999999999",   false, false, true },
    {"",                               false, false, false},
    {"+5",                             false, false, false},  // explicit '+' rejected
    {"-",                              false, false, false},  // sign-only
    {" 5",                             false, false, false},  // leading whitespace
    {"5 ",                             false, false, false},  // trailing whitespace
    {"12abc",                          false, false, false},  // trailing garbage
    {"--3",                            false, false, false},
    {"0x10",                           false, false, false},  // no hex
    {"nan",                            false, false, false},  // finite-only floats
    {"inf",                            false, false, false},
    // clang-format on
};

bool has_space(const char* s) {
    for (; *s; ++s) {
        if (*s == ' ') return true;
    }
    return false;
}

TEST(StrictParse, ParseNumVerdictTable) {
    for (const NumCase& c : kCases) {
        int i = 0;
        unsigned u = 0;
        double d = 0;
        EXPECT_EQ(io::parse_num(std::string_view(c.text), i), c.ok_int) << "'" << c.text << "'";
        EXPECT_EQ(io::parse_num(std::string_view(c.text), u), c.ok_uint) << "'" << c.text << "'";
        EXPECT_EQ(io::parse_num(std::string_view(c.text), d), c.ok_double)
            << "'" << c.text << "'";
    }
}

TEST(StrictParse, ConfigGettersFollowTheTable) {
    for (const NumCase& c : kCases) {
        if (*c.text == '\0') continue;  // "k =" with no value is a valid empty string
        io::Config cfg;
        cfg.set("metrics", "knob", c.text);
        if (c.ok_int) {
            EXPECT_EQ(cfg.get_int("metrics", "knob", -1), std::stoi(c.text)) << c.text;
        } else {
            // The diagnostic must name the section, key, and offending
            // value — a typo'd knob has to be findable from the message.
            try {
                (void)cfg.get_int("metrics", "knob", -1);
                FAIL() << "get_int accepted '" << c.text << "'";
            } catch (const std::runtime_error& e) {
                const std::string what = e.what();
                EXPECT_NE(what.find("knob"), std::string::npos) << what;
                EXPECT_NE(what.find(c.text), std::string::npos) << what;
            }
        }
        if (c.ok_double) {
            EXPECT_NO_THROW((void)cfg.get_double("metrics", "knob", -1)) << c.text;
        } else {
            EXPECT_THROW((void)cfg.get_double("metrics", "knob", -1), std::runtime_error)
                << c.text;
        }
    }
}

TEST(StrictParse, TraceSeedAndNoiseFollowTheTable) {
    for (const NumCase& c : kCases) {
        // Trace tokens are whitespace-delimited, so padded cases cannot
        // reach the value parser through this surface.
        if (*c.text == '\0' || has_space(c.text)) continue;

        {
            std::istringstream is(std::string("req dims=4x4x4 seed=") + c.text + "\n");
            if (c.ok_uint) {
                const auto trace = serve::read_trace(is);
                ASSERT_EQ(trace.size(), 1u) << c.text;
            } else {
                EXPECT_THROW(serve::read_trace(is), std::runtime_error) << c.text;
            }
        }
        {
            std::istringstream is(std::string("req dims=4x4x4 noise=") + c.text + "\n");
            const bool ok = c.ok_double && c.text[0] != '-';  // noise must be >= 0
            if (ok) {
                EXPECT_NO_THROW(serve::read_trace(is)) << c.text;
            } else {
                EXPECT_THROW(serve::read_trace(is), std::runtime_error) << c.text;
            }
        }
    }
}

std::optional<cli::CliOptions> parse(std::vector<std::string> args, std::string* diag = nullptr) {
    args.insert(args.begin(), "cuzc");
    std::vector<const char*> argv;
    for (const auto& a : args) argv.push_back(a.c_str());
    std::ostringstream err;
    auto opt = cli::parse_cli(static_cast<int>(argv.size()), argv.data(), err);
    if (diag != nullptr) *diag = err.str();
    return opt;
}

TEST(StrictParse, CliNumericFlagsFollowTheTable) {
    for (const NumCase& c : kCases) {
        {
            // --threads is unsigned; 0 is a legal "leave default" value.
            const auto opt = parse({"--orig=o", "--dec=d", "--dims=4x4x4",
                                    std::string("--threads=") + c.text});
            EXPECT_EQ(opt.has_value(), c.ok_uint) << "--threads=" << c.text;
        }
        {
            // --timeout is a double but range-checked to >= 0.
            std::string diag;
            const auto opt = parse(
                {"serve", "--replay=t.txt", std::string("--timeout=") + c.text}, &diag);
            const bool ok = c.ok_double && c.text[0] != '-';
            EXPECT_EQ(opt.has_value(), ok) << "--timeout=" << c.text;
            if (!ok) {
                EXPECT_FALSE(diag.empty()) << "--timeout=" << c.text;
            }
        }
    }
}

TEST(StrictParse, RejectionsAlwaysCarryADiagnostic) {
    for (const NumCase& c : kCases) {
        if (c.ok_uint) continue;
        std::string diag;
        const auto opt =
            parse({"--orig=o", "--dec=d", "--dims=4x4x4", std::string("--devices=") + c.text},
                  &diag);
        EXPECT_FALSE(opt.has_value()) << "--devices=" << c.text;
        EXPECT_FALSE(diag.empty()) << "--devices=" << c.text;
    }
}

TEST(StrictParse, OutOfRangeMetricsAreRefusedByEveryFrontEndNamingTheKey) {
    // The .cfg loader used to pass these on: a 1-bin PDF with entropy 0,
    // SSIM 0, an empty autocorrelation. The trace reader and the wire
    // refuse them, and all three now hold one set of limits.
    struct Case {
        const char* key;        ///< MetricsConfig / .cfg key
        const char* trace_key;  ///< cuzc-trace-v1 token
        int value;
        int zc::MetricsConfig::*field;
    };
    const Case cases[] = {
        {"pdf_bins", "bins", 0, &zc::MetricsConfig::pdf_bins},
        {"pdf_bins", "bins", -5, &zc::MetricsConfig::pdf_bins},
        {"ssim_window", "win", 0, &zc::MetricsConfig::ssim_window},
        {"ssim_step", "step", 0, &zc::MetricsConfig::ssim_step},
        {"autocorr_max_lag", "lag", -3, &zc::MetricsConfig::autocorr_max_lag},
        {"deriv_orders", "deriv", 0, &zc::MetricsConfig::deriv_orders},
    };
    for (const Case& c : cases) {
        const std::string value = std::to_string(c.value);
        SCOPED_TRACE(std::string(c.key) + " = " + value);
        zc::MetricsConfig m;
        m.*c.field = c.value;
        EXPECT_NE(zc::validate(m).find(c.key), std::string::npos) << zc::validate(m);

        const std::string cfg = "[metrics]\n" + std::string(c.key) + " = " + value + "\n";
        try {
            (void)io::metrics_from_config(io::Config::parse(cfg));
            ADD_FAILURE() << "accepted: " << cfg;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos) << e.what();
        }

        std::istringstream trace("req dims=4x4x4 " + std::string(c.trace_key) + "=" + value +
                                 "\n");
        try {
            (void)serve::read_trace(trace);
            ADD_FAILURE() << "trace accepted " << c.trace_key << "=" << value;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos) << e.what();
        }
    }
    EXPECT_EQ(zc::validate(zc::MetricsConfig{}), "");
}

}  // namespace

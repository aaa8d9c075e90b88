// Grammar fuzzing of the text parsers: the workload-trace reader and the
// Z-checker .cfg reader. Valid inputs are *generated* (so the accept
// grammar is exercised structurally, not by luck), corruptions swap in
// tokens from a pool of classic numeric-grammar breakers, and blind
// mutations check the throw-don't-crash contract.

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/fuzz.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/rng.hpp"
#include "io/config.hpp"
#include "serve/trace.hpp"
#include "zc/metrics_config.hpp"

namespace cuzc::fuzz {
namespace {

// Tokens every strict numeric grammar must reject: empty, explicit '+',
// whitespace padding, trailing garbage, overflow, and non-finite floats.
const char* const kBadNumbers[] = {
    "",     "+5",       " 5",   "5 ",    "12abc", "0x10",
    "nan",  "inf",      "-inf", "1e999", "--3",   "9999999999999999999999999999",
    "4611686018427387904",
};

std::string bad_number(Rng& rng) {
    return kBadNumbers[rng.below(std::size(kBadNumbers))];
}

std::vector<std::uint8_t> to_bytes(const std::string& s) {
    return {s.begin(), s.end()};
}

std::string to_string(std::span<const std::uint8_t> bytes) {
    return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

// --- trace-parse --------------------------------------------------------

std::string random_trace_text(Rng& rng) {
    serve::TraceGenConfig cfg;
    cfg.requests = rng.range(1, 12);
    cfg.seed = rng.next();
    cfg.distinct = rng.range(1, cfg.requests);
    cfg.tight_deadline_fraction = rng.unit() * 0.5;
    std::ostringstream os;
    serve::write_trace(os, serve::generate_trace(cfg));
    return os.str();
}

void trace_replay(std::span<const std::uint8_t> bytes, Oracle oracle) {
    std::istringstream is(to_string(bytes));
    bool rejected = false;
    std::string why;
    std::vector<serve::TraceEntry> entries;
    try {
        entries = serve::read_trace(is);
    } catch (const std::runtime_error& e) {
        rejected = true;
        why = e.what();
    }
    if (!rejected) {
        // Whatever the parser accepted must survive the rest of the
        // pipeline: re-serialization and request materialization both
        // trust read_trace's validation.
        std::ostringstream os;
        serve::write_trace(os, entries);
        for (const serve::TraceEntry& e : entries) {
            (void)e.metrics();
        }
    }
    check_verdict(bytes, oracle, rejected, "trace", why);
}

void trace_iterate(std::uint64_t seed, std::uint64_t iter) {
    Rng rng(mix_seed(seed, iter, 0x74726163));  // "trac"
    const std::string valid = random_trace_text(rng);

    // Generated traces must round-trip bit-identically.
    {
        std::istringstream is(valid);
        const auto entries = serve::read_trace(is);
        std::ostringstream os;
        serve::write_trace(os, entries);
        if (os.str() != valid) {
            throw FuzzFailure("trace round-trip is not bit-identical", to_bytes(valid),
                              Oracle::kAccept);
        }
    }
    probe(trace_replay, to_bytes(valid), Oracle::kAccept, "trace parser");

    // Grammar-aware corruption: replace one numeric value with a breaker.
    {
        std::string corrupt = valid;
        const std::size_t eq = corrupt.find('=', corrupt.find("req"));
        if (eq != std::string::npos) {
            std::size_t end = corrupt.find_first_of(" \n", eq + 1);
            if (end == std::string::npos) end = corrupt.size();
            corrupt.replace(eq + 1, end - (eq + 1), bad_number(rng));
            probe(trace_replay, to_bytes(corrupt), Oracle::kReject, "trace parser");
        }
    }

    // Blind mutation: throw-or-parse, never crash.
    auto mutated = to_bytes(valid);
    mutate_bytes(mutated, rng, 6);
    probe(trace_replay, mutated, Oracle::kInvariant, "trace parser");
}

void trace_corpus(CorpusWriter& w) {
    Rng rng(11);
    w.add_text("defaults.txt", Oracle::kAccept, random_trace_text(rng));
    // size_t overflow bait: 2^62 * 3 * 1 wraps to 0 if multiplied unchecked.
    w.add_text("dims-huge.txt", Oracle::kReject,
               "# cuzc-trace-v1\n"
               "req dims=4611686018427387904x3x1 seed=1 noise=0.01 p1=1 p2=0 p3=0 win=4 "
               "lag=10 deriv=2 bins=100 step=1 deadline_us=0 prio=0\n");
    w.add_text("noise-nan.txt", Oracle::kReject,
               "# cuzc-trace-v1\n"
               "req dims=4x4x4 seed=1 noise=nan p1=1 p2=1 p3=1 win=4 lag=10 deriv=2 "
               "bins=100 step=1 deadline_us=0 prio=0\n");
    w.add_text("seed-trailing.txt", Oracle::kReject,
               "# cuzc-trace-v1\n"
               "req dims=4x4x4 seed=1z noise=0.01 p1=1 p2=1 p3=1 win=4 lag=10 deriv=2 "
               "bins=100 step=1 deadline_us=0 prio=0\n");
}

// --- config-parse -------------------------------------------------------

const char* const kSections[] = {"metrics", "io", "serve"};
/// The [metrics] integer keys, each with the range zc::validate accepts.
struct IntKey {
    const char* name;
    int min, max;
};
const IntKey kIntKeys[] = {
    {"pdf_bins", 1, zc::kMaxPdfBins},
    {"autocorr_max_lag", 0, zc::kMaxAutocorrLag},
    {"deriv_orders", 1, zc::kMaxDerivOrders},
    {"ssim_window", 1, zc::kMaxSsimExtent},
    {"ssim_step", 1, zc::kMaxSsimExtent},
};

std::string random_config_text(Rng& rng) {
    std::ostringstream os;
    const std::uint64_t sections = rng.range(1, 3);
    for (std::uint64_t s = 0; s < sections; ++s) {
        os << "[" << kSections[rng.below(std::size(kSections))] << "]\n";
        const std::uint64_t keys = rng.range(1, 5);
        for (std::uint64_t k = 0; k < keys; ++k) {
            if (rng.chance(0.2)) os << "# comment line " << rng.below(100) << "\n";
            const IntKey& key = kIntKeys[rng.below(std::size(kIntKeys))];
            os << key.name << " = "
               << rng.range(static_cast<std::uint64_t>(key.min),
                            static_cast<std::uint64_t>(key.max))
               << "\n";
        }
        if (rng.chance(0.3)) os << "pwr_eps = 0." << rng.range(0, 999) << "\n";
    }
    return os.str();
}

/// Accept = parse + the typed [metrics] getters all succeed (that is the
/// path the CLI takes); reject = a typed error from either stage.
void config_replay(std::span<const std::uint8_t> bytes, Oracle oracle) {
    bool rejected = false;
    std::string why;
    try {
        const io::Config cfg = io::Config::parse(to_string(bytes));
        (void)io::metrics_from_config(cfg);
    } catch (const std::runtime_error& e) {
        rejected = true;
        why = e.what();
    }
    check_verdict(bytes, oracle, rejected, "config", why);
}

void config_iterate(std::uint64_t seed, std::uint64_t iter) {
    Rng rng(mix_seed(seed, iter, 0x636f6e66));  // "conf"
    const std::string valid = random_config_text(rng);
    probe(config_replay, to_bytes(valid), Oracle::kAccept, "config parser");

    // A typed getter must reject a lax numeric value and name the key.
    {
        const char* key = kIntKeys[rng.below(std::size(kIntKeys))].name;
        std::string bad = bad_number(rng);
        // The INI grammar trims whitespace around values before the typed
        // getter sees them, so padded tokens are legitimately accepted
        // there; substitute a breaker that survives trimming.
        if (bad.find_first_of(" \t") != std::string::npos || bad.empty()) bad = "12abc";
        const std::string text = "[metrics]\n" + std::string(key) + " = " + bad + "\n";
        const io::Config cfg = io::Config::parse(text);
        bool threw = false;
        try {
            (void)cfg.get_int("metrics", key, 1);
        } catch (const std::runtime_error& e) {
            threw = true;
            if (std::string(e.what()).find(key) == std::string::npos) {
                throw FuzzFailure("config get_int error does not name the offending key: " +
                                      std::string(e.what()),
                                  to_bytes(text), Oracle::kReject);
            }
        }
        if (!threw) {
            throw FuzzFailure("config get_int accepted lax value '" + bad + "'",
                              to_bytes(text), Oracle::kReject);
        }
    }

    auto mutated = to_bytes(valid);
    mutate_bytes(mutated, rng, 6);
    probe(config_replay, mutated, Oracle::kInvariant, "config parser");
}

void config_corpus(CorpusWriter& w) {
    w.add_text("typical.txt", Oracle::kAccept,
               "# cuzc assessment config\n"
               "[metrics]\n"
               "pdf_bins = 100\n"
               "autocorr_max_lag = 10\n"
               "deriv_orders = 2\n"
               "ssim_window = 8\n"
               "ssim_step = 1\n");
    w.add_text("int-trailing.txt", Oracle::kReject,
               "[metrics]\npdf_bins = 12abc\n");
    w.add_text("double-trailing.txt", Oracle::kReject,
               "[metrics]\npwr_eps = 0.5x\n");
    w.add_text("empty-key.txt", Oracle::kReject,
               "[metrics]\n = 5\n");
    // Values outside zc::validate's limits, which the loader used to pass
    // on (a 1-bin PDF, SSIM 0, an empty autocorrelation).
    w.add_text("pdf-bins-zero.txt", Oracle::kReject, "[metrics]\npdf_bins = 0\n");
    w.add_text("pdf-bins-negative.txt", Oracle::kReject, "[metrics]\npdf_bins = -5\n");
    w.add_text("ssim-window-zero.txt", Oracle::kReject, "[metrics]\nssim_window = 0\n");
    w.add_text("ssim-step-zero.txt", Oracle::kReject, "[metrics]\nssim_step = 0\n");
    w.add_text("autocorr-lag-negative.txt", Oracle::kReject,
               "[metrics]\nautocorr_max_lag = -3\n");
    w.add_text("deriv-orders-zero.txt", Oracle::kReject, "[metrics]\nderiv_orders = 0\n");
}

}  // namespace

void register_parse_targets() {
    register_target(Target{
        "trace-parse",
        "workload-trace grammar: generated traces round-trip, lax numerics and hostile "
        "dims reject, mutations never crash",
        trace_iterate,
        trace_replay,
        trace_corpus,
    });
    register_target(Target{
        "config-parse",
        ".cfg grammar: generated configs parse, typed getters reject lax values naming "
        "the key, mutations never crash",
        config_iterate,
        config_replay,
        config_corpus,
    });
}

}  // namespace cuzc::fuzz

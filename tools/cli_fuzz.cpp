// The `cli-parse` fuzz target: grammar fuzzing of parse_cli. It lives in
// the CLI library (not src/fuzz) because the fuzz library must not depend
// on the CLI; run_fuzz registers it before dispatch.
//
// Reproducers serialize an argv as NUL-separated tokens, so corpus entries
// replay byte-for-byte into the same argument vector.

#include <cstdint>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "fuzz/fuzz.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/rng.hpp"

namespace cuzc::cli {
namespace {

namespace fuzz = ::cuzc::fuzz;

std::vector<std::uint8_t> pack_argv(const std::vector<std::string>& args) {
    std::vector<std::uint8_t> bytes;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (i > 0) bytes.push_back(0);
        bytes.insert(bytes.end(), args[i].begin(), args[i].end());
    }
    return bytes;
}

std::vector<std::string> unpack_argv(std::span<const std::uint8_t> bytes) {
    std::vector<std::string> args;
    std::string cur;
    for (const std::uint8_t b : bytes) {
        if (b == 0) {
            args.push_back(std::move(cur));
            cur.clear();
        } else {
            cur.push_back(static_cast<char>(b));
        }
    }
    args.push_back(std::move(cur));
    return args;
}

/// Run parse_cli on the packed argv. The throw-free contract is absolute:
/// invalid input returns nullopt with a diagnostic, it never throws.
void cli_replay(std::span<const std::uint8_t> bytes, fuzz::Oracle oracle) {
    const std::vector<std::string> args = unpack_argv(bytes);
    std::vector<const char*> argv;
    argv.push_back("cuzc");
    for (const std::string& a : args) argv.push_back(a.c_str());

    std::ostringstream err;
    bool accepted = false;
    try {
        accepted = parse_cli(static_cast<int>(argv.size()), argv.data(), err).has_value();
    } catch (const std::exception& e) {
        throw fuzz::FuzzFailure(std::string("parse_cli threw: ") + e.what(),
                                {bytes.begin(), bytes.end()}, fuzz::Oracle::kInvariant);
    }
    fuzz::check_verdict(bytes, oracle, !accepted, "command line", err.str());
    if (!accepted && err.str().empty()) {
        throw fuzz::FuzzFailure("parse_cli rejected without a diagnostic",
                                {bytes.begin(), bytes.end()}, fuzz::Oracle::kInvariant);
    }
}

/// Numeric-grammar breakers every flag must reject. Deliberately excludes
/// large-but-representable values ("4611686018427387904" is a legal u64
/// seed) — membership here means "no numeric flag may accept this". The
/// final overflow literal applies only to integer flags: for double flags
/// it parses to a perfectly finite 1e28 (the fuzzer itself flagged an
/// earlier draft that expected --timeout to reject it).
const char* const kBadValues[] = {
    "", " 5", "5 ", "12abc", "--3", "nan", "inf", "9999999999999999999999999999",
};
constexpr std::size_t kBadValuesFloat = std::size(kBadValues) - 1;

/// Flags taking a numeric value, with a valid example and the subcommand
/// they require.
struct NumericFlag {
    const char* sub;   ///< "" = plain assess mode
    const char* flag;
    const char* good;
    bool is_float;     ///< draws from the float-safe bad-value prefix
};
const NumericFlag kNumericFlags[] = {
    {"", "--devices=", "2", false},
    {"", "--threads=", "3", false},
    {"serve", "--cache=", "64", false},
    {"serve", "--batch=", "4", false},
    {"serve", "--timeout=", "1.5", true},
    {"serve", "--shard-threshold=", "0.25", true},
    {"trace", "--requests=", "10", false},
    {"trace", "--seed=", "7", false},
    {"trace", "--distinct=", "4", false},
    {"trace", "--tight-fraction=", "0.5", true},
    {"fuzz", "--iters=", "5", false},
};

std::vector<std::string> base_line(const char* sub) {
    if (std::string_view(sub) == "serve") return {"serve", "--replay=trace.txt"};
    if (std::string_view(sub) == "trace") return {"trace"};
    if (std::string_view(sub) == "fuzz") return {"fuzz"};
    return {"--orig=o.f32", "--dec=d.f32", "--dims=4x4x4"};
}

std::vector<std::string> random_valid_line(fuzz::Rng& rng) {
    switch (rng.below(5)) {
        case 0: {
            std::vector<std::string> args = {"--orig=o.f32", "--dec=d.f32", "--dims=4x4x4"};
            if (rng.chance(0.5)) args.push_back("--devices=" + std::to_string(rng.range(1, 4)));
            if (rng.chance(0.5)) args.push_back("--threads=" + std::to_string(rng.range(1, 8)));
            if (rng.chance(0.3)) args.push_back("--format=json");
            if (rng.chance(0.3)) args.push_back("--profile");
            return args;
        }
        case 1: {
            std::vector<std::string> args = {"serve", "--replay=trace.txt"};
            if (rng.chance(0.5)) args.push_back("--cache=" + std::to_string(rng.below(256)));
            if (rng.chance(0.5)) args.push_back("--timeout=" + std::to_string(rng.range(1, 9)));
            if (rng.chance(0.3)) args.push_back("--no-coalesce");
            return args;
        }
        case 2:
            return {"replay", "--connect=localhost:" + std::to_string(rng.range(1024, 65535)),
                    "--replay=trace.txt"};
        case 3: {
            std::vector<std::string> args = {"trace",
                                             "--requests=" + std::to_string(rng.range(1, 99)),
                                             "--seed=" + std::to_string(rng.next())};
            if (rng.chance(0.4)) args.push_back("--tight-fraction=0." + std::to_string(rng.below(10)));
            return args;
        }
        default: {
            std::vector<std::string> args = {
                "assess", "--connect=localhost:" + std::to_string(rng.range(1024, 65535)),
                "--orig=o.f32", "--dec=d.f32", "--dims=2x2x2"};
            if (rng.chance(0.5)) args.push_back("--stream-chunk=" + std::to_string(rng.range(1, 64)));
            return args;
        }
    }
}

void cli_iterate(std::uint64_t seed, std::uint64_t iter) {
    fuzz::Rng rng(fuzz::mix_seed(seed, iter, 0x636c6970));  // "clip"

    // A structurally valid line must parse.
    cli_replay(pack_argv(random_valid_line(rng)), fuzz::Oracle::kAccept);

    // Any numeric flag fed a lax value must reject.
    {
        const NumericFlag& nf = kNumericFlags[rng.below(std::size(kNumericFlags))];
        auto args = base_line(nf.sub);
        const std::size_t pool = nf.is_float ? kBadValuesFloat : std::size(kBadValues);
        args.push_back(std::string(nf.flag) + kBadValues[rng.below(pool)]);
        cli_replay(pack_argv(args), fuzz::Oracle::kReject);
    }

    // Hostile dims grammar: missing extents, trailing separators, zeros.
    {
        static const char* const kBadDims[] = {"4x4",  "4x4x4x4", "4x4x",  "x4x4",
                                               "0x4x4", "4x-1x4",  "4x4x4 ", "axbxc"};
        std::vector<std::string> args = {"--orig=o.f32", "--dec=d.f32"};
        args.push_back(std::string("--dims=") + kBadDims[rng.below(std::size(kBadDims))]);
        cli_replay(pack_argv(args), fuzz::Oracle::kReject);
    }

    // Blind mutation of a valid line: parse or reject, never throw.
    auto bytes = pack_argv(random_valid_line(rng));
    fuzz::mutate_bytes(bytes, rng, 5);
    cli_replay(bytes, fuzz::Oracle::kInvariant);
}

void cli_corpus(fuzz::CorpusWriter& w) {
    w.add("basic.bin", fuzz::Oracle::kAccept,
          pack_argv({"--orig=o.f32", "--dec=d.f32", "--dims=4x4x4"}));
    // atoi laxity regressions: these parsed as 2 / 3 / 4x4x4 before the
    // strict-parse sweep.
    w.add("devices-trailing.bin", fuzz::Oracle::kReject,
          pack_argv({"--orig=o.f32", "--dec=d.f32", "--dims=4x4x4", "--devices=2x"}));
    w.add("threads-junk.bin", fuzz::Oracle::kReject,
          pack_argv({"--orig=o.f32", "--dec=d.f32", "--dims=4x4x4", "--threads=3y"}));
    w.add("dims-trailing-x.bin", fuzz::Oracle::kReject,
          pack_argv({"--orig=o.f32", "--dec=d.f32", "--dims=4x4x4x"}));
    w.add("timeout-nan.bin", fuzz::Oracle::kReject,
          pack_argv({"serve", "--replay=t.txt", "--timeout=nan"}));
    w.add("stream-chunk-overflow.bin", fuzz::Oracle::kReject,
          pack_argv({"assess", "--connect=h:1", "--orig=o", "--dec=d", "--dims=2x2x2",
                     "--stream-chunk=99999999999999999999"}));
}

}  // namespace

void register_cli_fuzz_target() {
    fuzz::register_target(fuzz::Target{
        "cli-parse",
        "parse_cli grammar: valid lines parse, lax numerics and hostile dims reject "
        "with a diagnostic, mutations never throw",
        cli_iterate,
        cli_replay,
        cli_corpus,
    });
}

}  // namespace cuzc::cli

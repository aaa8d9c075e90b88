// Tests of the cuzc::fuzz harness itself plus a bounded smoke of every
// registered target: the checked-in corpus must replay green and a short
// seeded campaign must finish with zero findings. Suite names contain
// "Fuzz" so the TSan CI leg can select them with --gtest_filter=*Fuzz*.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/fuzz.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/rng.hpp"
#include "zc/field_buffer.hpp"

#ifndef CUZC_CORPUS_DIR
#error "test_fuzz_harness needs -DCUZC_CORPUS_DIR=<path to tests/corpus>"
#endif

namespace {

namespace fuzz = ::cuzc::fuzz;
namespace fs = std::filesystem;

const char* const kExpectedTargets[] = {
    "wire-decode", "wire-assembler", "session",     "stream-diff",
    "simd-diff",   "cache-key",      "report-roundtrip", "trace-parse",
    "config-parse", "sz-decode",
};

TEST(FuzzRegistry, BuiltinTargetsAreRegisteredOnce) {
    for (const char* name : kExpectedTargets) {
        const fuzz::Target* t = fuzz::find_target(name);
        ASSERT_NE(t, nullptr) << name;
        EXPECT_FALSE(t->description.empty()) << name;
        EXPECT_TRUE(static_cast<bool>(t->iterate)) << name;
    }
    // Registration is first-wins: a duplicate name must not shadow or
    // duplicate the existing target.
    const std::size_t before = fuzz::targets().size();
    fuzz::register_target(fuzz::Target{"wire-decode", "imposter", nullptr, nullptr, nullptr});
    EXPECT_EQ(fuzz::targets().size(), before);
    EXPECT_NE(fuzz::find_target("wire-decode")->description, "imposter");
}

TEST(FuzzRegistry, CliTargetRegistersThroughTheCliLibrary) {
    // The cli-parse target lives in the CLI library so the fuzz library
    // stays free of a tools dependency; registering twice is a no-op.
    cuzc::cli::register_cli_fuzz_target();
    cuzc::cli::register_cli_fuzz_target();
    const fuzz::Target* t = fuzz::find_target("cli-parse");
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(static_cast<bool>(t->replay));
}

TEST(FuzzCorpus, OraclePrefixConventionRoundTrips) {
    EXPECT_EQ(fuzz::oracle_from_name("accept-basic.bin"), fuzz::Oracle::kAccept);
    EXPECT_EQ(fuzz::oracle_from_name("reject-timeout-nan.bin"), fuzz::Oracle::kReject);
    EXPECT_EQ(fuzz::oracle_from_name("crash-deadbeef.bin"), fuzz::Oracle::kInvariant);
    EXPECT_EQ(fuzz::oracle_from_name("seed-reuse-after-reject-settle.bin"),
              fuzz::Oracle::kInvariant);
}

TEST(FuzzCorpus, MinimizeShrinksToTheFailingByte) {
    std::vector<std::uint8_t> input(257, 0x00);
    input[131] = 0x7f;
    const auto minimized = fuzz::minimize(
        input,
        [](std::span<const std::uint8_t> cand) {
            for (const std::uint8_t b : cand) {
                if (b == 0x7f) return true;
            }
            return false;
        },
        512);
    ASSERT_EQ(minimized.size(), 1u);
    EXPECT_EQ(minimized[0], 0x7f);
}

TEST(FuzzCorpus, MinimizeNeverReturnsAPassingInput) {
    // Even with a tiny evaluation budget the result must still fail.
    std::vector<std::uint8_t> input(64, 0xaa);
    const auto minimized = fuzz::minimize(
        input, [](std::span<const std::uint8_t> cand) { return cand.size() >= 7; }, 4);
    EXPECT_GE(minimized.size(), 7u);
}

TEST(FuzzCorpus, WriteRegressionCorpusReplaysGreen) {
    // The generated seed corpus is self-consistent: every entry written by
    // a target's seed_corpus hook must replay cleanly through that
    // target's own oracle.
    cuzc::cli::register_cli_fuzz_target();
    const fs::path dir =
        fs::temp_directory_path() / ("cuzc_fuzz_corpus_" + std::to_string(::getpid()));
    const std::size_t written = fuzz::write_regression_corpus(dir.string());
    EXPECT_GE(written, 20u);
    for (const fuzz::Target& t : fuzz::targets()) {
        if (!t.replay) continue;
        for (const auto& [name, bytes] : fuzz::load_corpus((dir / t.name).string())) {
            EXPECT_NO_THROW(t.replay(bytes, fuzz::oracle_from_name(name)))
                << t.name << "/" << name;
        }
    }
    fs::remove_all(dir);
}

TEST(FuzzMutate, MutationIsDeterministicPerSeed) {
    std::vector<std::uint8_t> a(48, 0x11), b(48, 0x11);
    fuzz::Rng ra(99), rb(99);
    fuzz::mutate_bytes(a, ra, 8);
    fuzz::mutate_bytes(b, rb, 8);
    EXPECT_EQ(a, b);
}

// A bounded campaign over every registered target, replaying the
// checked-in corpus first. This is the in-tree mirror of the CI
// fuzz-smoke job: the corpus entries encode fixed bugs, so any finding
// here is a regression.
TEST(FuzzSmoke, CheckedInCorpusReplaysGreenAndShortCampaignIsClean) {
    cuzc::cli::register_cli_fuzz_target();
    fuzz::FuzzOptions opt;
    opt.seed = 7;
    opt.iters = 5;
    opt.corpus_dir = CUZC_CORPUS_DIR;
    for (const fuzz::Target& t : fuzz::targets()) {
        std::ostringstream log;
        opt.log = &log;
        const fuzz::FuzzResult res = fuzz::run_target(t, opt);
        EXPECT_TRUE(res.ok()) << t.name << ":\n" << log.str();
        EXPECT_EQ(res.iterations, opt.iters) << t.name;
        if (t.replay && t.seed_corpus) {
            EXPECT_GT(res.corpus_entries, 0u)
                << t.name << ": corpus dir missing from " << CUZC_CORPUS_DIR;
        }
    }
}

TEST(FuzzSmoke, WireDecodeReplayAliasesRequestFieldsWithoutCopying) {
    // The wire-decode target decodes from the assembler's slab-pinned view,
    // as the server does, so the checked-in request frame's fields alias
    // the ingest slab: the replay copies no payload bytes.
    const fuzz::Target* t = fuzz::find_target("wire-decode");
    ASSERT_NE(t, nullptr);
    const std::string dir = std::string(CUZC_CORPUS_DIR) + "/wire-decode";
    std::vector<std::uint8_t> frame;
    for (auto& [name, bytes] : fuzz::load_corpus(dir)) {
        if (name == "accept-request-small.bin") frame = std::move(bytes);
    }
    ASSERT_FALSE(frame.empty()) << "wire-decode/accept-request-small.bin missing";
    const std::uint64_t before = cuzc::zc::data_plane_stats().bytes_copied;
    t->replay(frame, fuzz::Oracle::kAccept);
    EXPECT_EQ(cuzc::zc::data_plane_stats().bytes_copied, before);
}

TEST(FuzzSmoke, CampaignIsDeterministicFromTheSeed) {
    const fuzz::Target* t = fuzz::find_target("wire-decode");
    ASSERT_NE(t, nullptr);
    fuzz::FuzzOptions opt;
    opt.seed = 1234;
    opt.iters = 10;
    const auto a = fuzz::run_target(*t, opt);
    const auto b = fuzz::run_target(*t, opt);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.findings.size(), b.findings.size());
}

}  // namespace

// End-to-end tests of the cuzc command-line tool (driven in-process).

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <cstdlib>

#include "cli.hpp"
#include "data/raw_io.hpp"
#include "sz/sz.hpp"
#include "test_helpers.hpp"
#include "vgpu/scheduler.hpp"
#include "zc/zc.hpp"

namespace {

namespace cli = ::cuzc::cli;
namespace zc = ::cuzc::zc;
namespace sz = ::cuzc::sz;
namespace data = ::cuzc::data;
namespace tst = ::cuzc::testing;
namespace fs = std::filesystem;

struct CliFixture : public ::testing::Test {
    fs::path dir;
    zc::Field orig, dec;

    void SetUp() override {
        // Unique per test so parallel ctest runs don't race on TearDown.
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir = fs::temp_directory_path() /
              (std::string("cuzc_cli_test_") + info->name() + "_" +
               std::to_string(static_cast<unsigned long>(::getpid())));
        fs::create_directories(dir);
        orig = tst::smooth_field({10, 12, 14}, 4);
        dec = tst::perturbed(orig, 0.01, 8);
        data::write_f32(dir / "orig.f32", orig.view());
        data::write_f32(dir / "dec.f32", dec.view());
        sz::SzConfig scfg;
        scfg.abs_error_bound = 1e-3;
        const auto comp = sz::compress(orig.view(), scfg);
        std::ofstream out(dir / "orig.sz", std::ios::binary);
        out.write(reinterpret_cast<const char*>(comp.bytes.data()),
                  static_cast<std::streamsize>(comp.bytes.size()));
    }
    void TearDown() override { fs::remove_all(dir); }

    std::optional<cli::CliOptions> parse(std::vector<std::string> args) {
        args.insert(args.begin(), "cuzc");
        std::vector<const char*> argv;
        for (const auto& a : args) argv.push_back(a.c_str());
        std::ostringstream err;
        return cli::parse_cli(static_cast<int>(argv.size()), argv.data(), err);
    }

    int run(std::vector<std::string> args, std::string* out_text = nullptr) {
        const auto opt = parse(std::move(args));
        if (!opt) return -1;
        std::ostringstream out, err;
        const int rc = cli::run_cli(*opt, out, err);
        if (out_text) *out_text = out.str();
        return rc;
    }
};

TEST_F(CliFixture, TextReportToStdout) {
    std::string out;
    const int rc = run({"--orig=" + (dir / "orig.f32").string(),
                        "--dec=" + (dir / "dec.f32").string(), "--dims=10x12x14"},
                       &out);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("psnr_db"), std::string::npos);
    EXPECT_NE(out.find("ssim"), std::string::npos);
}

TEST_F(CliFixture, SzStreamInputDecompressesAndAssesses) {
    std::string out;
    const int rc = run({"--orig=" + (dir / "orig.f32").string(),
                        "--sz=" + (dir / "orig.sz").string(), "--dims=10x12x14",
                        "--format=json"},
                       &out);
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(out.front(), '{');
    // The SZ bound must show in the reported max error.
    const auto pos = out.find("\"max_abs_err\": ");
    ASSERT_NE(pos, std::string::npos);
    EXPECT_LE(std::stod(out.substr(pos + 15)), 1e-3 * (1 + 1e-9));
}

TEST_F(CliFixture, HtmlToFile) {
    const auto out_path = dir / "report.html";
    const int rc = run({"--orig=" + (dir / "orig.f32").string(),
                        "--dec=" + (dir / "dec.f32").string(), "--dims=10x12x14",
                        "--format=html", "--out=" + out_path.string()});
    EXPECT_EQ(rc, 0);
    std::ifstream in(out_path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("<!DOCTYPE html>"), std::string::npos);
}

TEST_F(CliFixture, MultiDeviceMatchesSingle) {
    std::string single, multi;
    EXPECT_EQ(run({"--orig=" + (dir / "orig.f32").string(),
                   "--dec=" + (dir / "dec.f32").string(), "--dims=10x12x14",
                   "--format=csv"},
                  &single),
              0);
    EXPECT_EQ(run({"--orig=" + (dir / "orig.f32").string(),
                   "--dec=" + (dir / "dec.f32").string(), "--dims=10x12x14",
                   "--format=csv", "--devices=3"},
                  &multi),
              0);
    EXPECT_EQ(single, multi);  // CSV values agree to printed precision
}

TEST_F(CliFixture, ConfigFileControlsMetrics) {
    const auto cfg_path = dir / "zc.cfg";
    {
        std::ofstream cfg(cfg_path);
        cfg << "[metrics]\npattern3 = off\nssim_window = 4\n";
    }
    std::string out;
    EXPECT_EQ(run({"--orig=" + (dir / "orig.f32").string(),
                   "--dec=" + (dir / "dec.f32").string(), "--dims=10x12x14",
                   "--config=" + cfg_path.string()},
                  &out),
              0);
    // SSIM disabled -> reported as 0 windows -> value 0.
    EXPECT_NE(out.find("ssim                   = 0"), std::string::npos);
}

TEST_F(CliFixture, ParserRejectsBadInput) {
    EXPECT_FALSE(parse({"--orig=a.f32"}));                                  // missing dec
    EXPECT_FALSE(parse({"--orig=a", "--dec=b", "--sz=c", "--dims=2x2x2"})); // both inputs
    EXPECT_FALSE(parse({"--orig=a", "--dec=b", "--dims=2x2"}));             // bad dims
    EXPECT_FALSE(parse({"--orig=a", "--dec=b", "--dims=2x2x0"}));           // zero extent
    EXPECT_FALSE(parse({"--orig=a", "--dec=b", "--dims=2x2x2", "--format=xml"}));
    EXPECT_FALSE(parse({"--bogus"}));
    EXPECT_TRUE(parse({"--help"}));
}

TEST_F(CliFixture, ParserRejectsAtoiLaxity) {
    // Regressions for the strict-parse sweep: these all parsed under the
    // old atoi/stoul plumbing ("2x" as 2, "4x4x4x" as 4x4x4, "nan" as a
    // timeout) and now fail loudly.
    EXPECT_FALSE(parse({"--orig=a", "--dec=b", "--dims=4x4x4", "--devices=2x"}));
    EXPECT_FALSE(parse({"--orig=a", "--dec=b", "--dims=4x4x4", "--threads=3y"}));
    EXPECT_FALSE(parse({"--orig=a", "--dec=b", "--dims=4x4x4x"}));
    EXPECT_FALSE(parse({"--orig=a", "--dec=b", "--dims=4x4x4", "--devices="}));
    EXPECT_FALSE(parse({"serve", "--replay=t.txt", "--timeout=nan"}));
    EXPECT_FALSE(parse({"serve", "--replay=t.txt", "--shard-threshold=inf"}));
    EXPECT_FALSE(parse({"assess", "--connect=h:1", "--orig=a", "--dec=b", "--dims=2x2x2",
                        "--stream-chunk=99999999999999999999"}));
    // ...while genuinely large-but-representable values stay legal.
    EXPECT_TRUE(parse({"trace", "--seed=4611686018427387904"}));
}

TEST_F(CliFixture, ParserHandlesFuzzSubcommand) {
    const auto opt = parse({"fuzz", "--target=wire-decode", "--seed=9", "--iters=50",
                            "--corpus=/tmp/c"});
    ASSERT_TRUE(opt);
    EXPECT_TRUE(opt->fuzz_mode);
    EXPECT_EQ(opt->fuzz_target, "wire-decode");
    EXPECT_EQ(opt->trace_seed, 9u);
    EXPECT_EQ(opt->fuzz_iters, 50u);
    EXPECT_EQ(opt->fuzz_corpus, "/tmp/c");

    const auto list = parse({"fuzz", "--list"});
    ASSERT_TRUE(list);
    EXPECT_TRUE(list->fuzz_list);

    // Fuzz-only flags are gated to the subcommand, and its numerics are
    // as strict as everyone else's.
    EXPECT_FALSE(parse({"--orig=a", "--dec=b", "--dims=2x2x2", "--target=session"}));
    EXPECT_FALSE(parse({"fuzz", "--iters=10x"}));
}

TEST_F(CliFixture, FuzzSubcommandRunsABoundedCampaign) {
    // End-to-end through run_cli: a tiny campaign over one cheap target
    // must exit 0 and emit the JSON summary schema.
    const auto opt = parse({"fuzz", "--target=wire-decode", "--seed=3", "--iters=3"});
    ASSERT_TRUE(opt);
    std::ostringstream out, err;
    const int rc = cli::run_cli(*opt, out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("\"schema\": \"cuzc-fuzz-v1\""), std::string::npos) << out.str();
    EXPECT_NE(out.str().find("\"findings\": 0"), std::string::npos) << out.str();

    const auto bad = parse({"fuzz", "--target=no-such-target"});
    ASSERT_TRUE(bad);  // the name is validated at run time, not parse time
    std::ostringstream out2, err2;
    EXPECT_NE(cli::run_cli(*bad, out2, err2), 0);
    EXPECT_FALSE(err2.str().empty());
}

TEST_F(CliFixture, ParserHandlesServeAndThreads) {
    EXPECT_FALSE(parse({"serve"}));                       // serve needs --replay
    EXPECT_FALSE(parse({"--replay=t.trace"}));            // --replay needs serve
    EXPECT_FALSE(parse({"serve", "--replay=t", "--threads=0"}));
    EXPECT_FALSE(parse({"serve", "--replay=t", "--batch=0"}));
    const auto opt = parse({"serve", "--replay=t.trace", "--devices=3", "--cache=7",
                            "--batch=5", "--no-coalesce", "--threads=2"});
    ASSERT_TRUE(opt);
    EXPECT_TRUE(opt->serve_mode);
    EXPECT_EQ(opt->replay_path, "t.trace");
    EXPECT_EQ(opt->devices, 3u);
    EXPECT_EQ(opt->cache_capacity, 7u);
    EXPECT_EQ(opt->max_batch, 5u);
    EXPECT_FALSE(opt->coalesce);
    EXPECT_EQ(opt->threads, 2u);
}

TEST_F(CliFixture, ParserHandlesFaultAndTimeoutFlags) {
    EXPECT_FALSE(parse({"serve", "--replay=t", "--timeout=-1"}));
    EXPECT_FALSE(parse({"serve", "--replay=t", "--timeout=abc"}));
    EXPECT_FALSE(parse({"serve", "--replay=t", "--faults=bogus=1"}));
    EXPECT_FALSE(parse({"serve", "--replay=t", "--faults=seed=7,kernel=2.0"}));
    // Serve-only flags are rejected on the assess command line.
    EXPECT_FALSE(parse({"--orig=a", "--dec=b", "--dims=2x2x2", "--timeout=1"}));
    EXPECT_FALSE(parse({"--orig=a", "--dec=b", "--dims=2x2x2", "--faults=seed=1,kernel=0.1"}));
    const auto opt =
        parse({"serve", "--replay=t.trace", "--timeout=0.25", "--faults=seed=9,kernel=0.5,max=4"});
    ASSERT_TRUE(opt);
    EXPECT_DOUBLE_EQ(opt->request_timeout_s, 0.25);
    EXPECT_TRUE(opt->faults_from_flag);
    EXPECT_EQ(opt->faults.seed, 9u);
    EXPECT_DOUBLE_EQ(opt->faults.kernel_throw, 0.5);
    EXPECT_EQ(opt->faults.max_faults, 4u);
}

TEST_F(CliFixture, ParserHandlesShardThreshold) {
    EXPECT_FALSE(parse({"serve", "--replay=t", "--shard-threshold=abc"}));
    EXPECT_FALSE(parse({"serve", "--replay=t", "--shard-threshold=-1"}));
    // Serve-only flag: rejected on the assess command line.
    EXPECT_FALSE(parse({"--orig=a", "--dec=b", "--dims=2x2x2", "--shard-threshold=0.1"}));
    const auto opt = parse({"serve", "--replay=t.trace", "--devices=4", "--shard-threshold=0.002"});
    ASSERT_TRUE(opt);
    EXPECT_DOUBLE_EQ(opt->shard_threshold_s, 0.002);
    const auto off = parse({"serve", "--replay=t.trace"});
    ASSERT_TRUE(off);
    EXPECT_DOUBLE_EQ(off->shard_threshold_s, 0.0);  // default: sharding off
}

TEST_F(CliFixture, ServeReplayShardsAndCountsShardedRequests) {
    const auto trace_path = dir / "shard.trace";
    {
        std::ofstream t(trace_path);
        t << "# cuzc-trace-v1\n";
        for (int i = 0; i < 4; ++i) {
            t << "req dims=10x12x14 seed=" << (300 + i) << " noise=0.01\n";
        }
    }
    std::string out;
    const int rc = run({"serve", "--replay=" + trace_path.string(), "--devices=4",
                        "--shard-threshold=1e-12"},
                       &out);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("\"requests\": 4"), std::string::npos);
    // With a ~0 threshold at least one request fans out, and the telemetry
    // block carries the shard counters.
    EXPECT_EQ(out.find("\"sharded\": 0,"), std::string::npos) << out;
    EXPECT_NE(out.find("\"sharded\": "), std::string::npos);
    EXPECT_NE(out.find("\"shards\": "), std::string::npos);
    EXPECT_NE(out.find("\"exchange_bytes\": "), std::string::npos);
    EXPECT_NE(out.find("\"shard_retries\": "), std::string::npos);
}

TEST_F(CliFixture, ServeReplayWithInjectedFaultsStillCompletes) {
    const auto trace_path = dir / "faults.trace";
    {
        std::ofstream t(trace_path);
        t << "# cuzc-trace-v1\n";
        for (int i = 0; i < 8; ++i) {
            t << "req dims=8x8x8 seed=" << (100 + i) << " noise=0.01\n";
        }
    }
    std::string out;
    // Every launch aborts and retries are exhausted fast: all requests come
    // back rejected, none hang, and the replay still exits 0 with telemetry.
    const int rc = run({"serve", "--replay=" + trace_path.string(),
                        "--faults=seed=3,kernel=1.0", "--timeout=30"},
                       &out);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("\"rejected\": 8"), std::string::npos);
    EXPECT_NE(out.find("\"faults_injected\""), std::string::npos);
    EXPECT_NE(out.find("\"breaker_opens\""), std::string::npos);
}

TEST_F(CliFixture, ThreadsFlagOverridesEnv) {
    namespace vgpu = ::cuzc::vgpu;
    // Env alone: the scheduler resolves CUZC_VGPU_THREADS.
    ::setenv("CUZC_VGPU_THREADS", "3", 1);
    vgpu::BlockScheduler::instance().set_num_threads(0);  // drop any override
    EXPECT_EQ(vgpu::BlockScheduler::instance().max_workers(), 3u);
    // Flag wins over env (env < flag precedence).
    std::string out;
    EXPECT_EQ(run({"--orig=" + (dir / "orig.f32").string(),
                   "--dec=" + (dir / "dec.f32").string(), "--dims=10x12x14",
                   "--threads=2"},
                  &out),
              0);
    EXPECT_EQ(vgpu::BlockScheduler::instance().max_workers(), 2u);
    EXPECT_NE(out.find("psnr_db"), std::string::npos);
    // Restore default resolution for later tests.
    ::unsetenv("CUZC_VGPU_THREADS");
    vgpu::BlockScheduler::instance().set_num_threads(0);
}

TEST_F(CliFixture, ServeReplayEmitsTelemetryJson) {
    // A quote and a backslash in the trace name must reach the JSON
    // escaped, or the artifact no longer parses.
    const auto trace_path = dir / "smoke \"q\" \\b.trace";
    {
        std::ofstream t(trace_path);
        t << "# cuzc-trace-v1\n"
          << "req dims=8x8x8 seed=5 noise=0.01 p1=1 p2=1 p3=1 win=4 lag=6 deadline_us=0 prio=0\n"
          << "req dims=8x8x8 seed=5 noise=0.01 p1=1 p2=1 p3=1 win=4 lag=6 deadline_us=0 prio=0\n"
          << "req dims=8x8x8 seed=7 noise=0.02 p1=1 p2=1 p3=1 win=4 lag=6 deadline_us=0.0001 prio=1\n";
    }
    std::string out;
    // One device: the duplicate request always processes after its twin,
    // so exactly one cache hit regardless of worker wake timing (with two
    // devices a worker waking mid-submission can steal the first twin onto
    // its own batch and race the lookup).
    const int rc = run({"serve", "--replay=" + trace_path.string(), "--devices=1"}, &out);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("\"schema\": \"cuzc-serve-replay-v2\""), std::string::npos);
    EXPECT_NE(out.find("\"requests\": 3"), std::string::npos);
    EXPECT_NE(out.find("\"cache_hits\": 1"), std::string::npos);
    EXPECT_NE(out.find("\"degraded\": 1"), std::string::npos);
    EXPECT_NE(out.find("cuzc-serve-telemetry-v2"), std::string::npos);
    // v2 additions: reproducibility context for the replay artifact.
    EXPECT_NE(out.find("\"simd\": \""), std::string::npos);
    EXPECT_NE(out.find("\"devices\": 1"), std::string::npos);
    EXPECT_NE(out.find("\"threads\": "), std::string::npos);
    EXPECT_NE(out.find("\"results_fnv\": \"0x"), std::string::npos);
    EXPECT_NE(out.find("/smoke \\\"q\\\" \\\\b.trace\",\n"), std::string::npos) << out;
    EXPECT_EQ(out.find("smoke \"q\""), std::string::npos);
}

TEST_F(CliFixture, ServeReplayMissingTraceFails) {
    std::ostringstream out, err;
    cli::CliOptions opt;
    opt.serve_mode = true;
    opt.replay_path = (dir / "nonexistent.trace").string();
    EXPECT_EQ(cli::run_cli(opt, out, err), 2);
    EXPECT_NE(err.str().find("cannot open trace"), std::string::npos);
}

TEST_F(CliFixture, MissingFileGivesCleanError) {
    std::ostringstream out, err;
    cli::CliOptions opt;
    opt.orig_path = "/nonexistent.f32";
    opt.dec_path = "/nonexistent2.f32";
    opt.dims = {2, 2, 2};
    EXPECT_EQ(cli::run_cli(opt, out, err), 2);
    EXPECT_NE(err.str().find("cuzc:"), std::string::npos);
}

TEST_F(CliFixture, HelpShowsUsage) {
    std::string out;
    EXPECT_EQ(run({"--help"}, &out), 0);
    EXPECT_NE(out.find("usage:"), std::string::npos);
}

TEST_F(CliFixture, VersionPrintsSchemasAndSimdBanner) {
    std::string out;
    EXPECT_EQ(run({"--version"}, &out), 0);
    EXPECT_NE(out.find("cuzc "), std::string::npos);
    EXPECT_NE(out.find("cuzc-trace-v1"), std::string::npos);
    EXPECT_NE(out.find("cuzc-serve-telemetry-v2"), std::string::npos);
    EXPECT_NE(out.find("cuzc-serve-replay-v2"), std::string::npos);
    EXPECT_NE(out.find("cuzc-wire-v2"), std::string::npos);
    EXPECT_EQ(out.find("cuzc-wire-v1"), std::string::npos);
    // Third line is the SIMD dispatch banner — non-empty, whatever the host.
    std::istringstream lines(out);
    std::string l1, l2, l3;
    std::getline(lines, l1);
    std::getline(lines, l2);
    std::getline(lines, l3);
    EXPECT_FALSE(l3.empty());
}

TEST_F(CliFixture, ParserValidatesListenConnectAndTrace) {
    EXPECT_FALSE(parse({"serve"}));                               // needs one mode
    EXPECT_FALSE(parse({"serve", "--replay=t", "--listen=0"}));   // not both
    EXPECT_FALSE(parse({"serve", "--listen=abc"}));
    EXPECT_FALSE(parse({"serve", "--listen=99999"}));
    EXPECT_FALSE(parse({"serve", "--replay=t", "--port-file=p"}));  // listen-only flag
    EXPECT_FALSE(parse({"replay", "--replay=t"}));                  // needs --connect
    EXPECT_FALSE(parse({"replay", "--connect=localhost"}));         // needs :PORT
    EXPECT_FALSE(parse({"replay", "--connect=localhost:0x", "--replay=t"}));
    EXPECT_FALSE(parse({"--orig=a", "--dec=b", "--dims=2x2x2", "--connect=h:1"}));

    const auto listen = parse({"serve", "--listen=0", "--port-file=pf", "--devices=2"});
    ASSERT_TRUE(listen);
    EXPECT_TRUE(listen->serve_mode);
    EXPECT_TRUE(listen->listen_mode);
    EXPECT_EQ(listen->listen_port, 0);
    EXPECT_EQ(listen->port_file, "pf");

    const auto replay = parse({"replay", "--connect=127.0.0.1:4242", "--replay=t.trace"});
    ASSERT_TRUE(replay);
    EXPECT_TRUE(replay->replay_mode);
    EXPECT_EQ(replay->connect_host, "127.0.0.1");
    EXPECT_EQ(replay->connect_port, 4242);

    const auto trace = parse({"trace", "--requests=9", "--seed=5", "--distinct=3"});
    ASSERT_TRUE(trace);
    EXPECT_TRUE(trace->trace_mode);
    EXPECT_EQ(trace->trace_requests, 9u);
    EXPECT_EQ(trace->trace_seed, 5u);
    EXPECT_EQ(trace->trace_distinct, 3u);
}

TEST_F(CliFixture, ServeReplayEscapesTheSimdBanner) {
    // The SIMD banner embeds CUZC_SIMD verbatim; a quote and a backslash in
    // it must reach the replay document escaped, or the document no longer
    // parses.
    const auto trace_path = dir / "simd.trace";
    {
        std::ofstream t(trace_path);
        t << "# cuzc-trace-v1\nreq dims=4x4x4 seed=1 noise=0.01\n";
    }
    const char* before = std::getenv("CUZC_SIMD");
    const std::string saved = before != nullptr ? before : "";
    ::setenv("CUZC_SIMD", "x\"y\\z", 1);
    std::string out;
    const int rc = run({"serve", "--replay=" + trace_path.string()}, &out);
    if (before != nullptr) {
        ::setenv("CUZC_SIMD", saved.c_str(), 1);
    } else {
        ::unsetenv("CUZC_SIMD");
    }
    EXPECT_EQ(rc, 0);
    EXPECT_NE(out.find("CUZC_SIMD=x\\\"y\\\\z)\",\n"), std::string::npos) << out;
    EXPECT_EQ(out.find("x\"y"), std::string::npos) << out;
}

// Each subcommand's flag table holds exactly the flags it reads: a flag of
// another subcommand is refused instead of silently ignored.
TEST_F(CliFixture, LocalAssessmentRefusesServiceAndTraceFlags) {
    EXPECT_FALSE(parse({"--orig=o.f32", "--dec=d.f32", "--dims=16x12x10", "--cache=4"}));
    EXPECT_FALSE(parse({"--orig=o.f32", "--dec=d.f32", "--dims=16x12x10", "--requests=3"}));
    EXPECT_FALSE(
        parse({"--orig=o.f32", "--dec=d.f32", "--dims=16x12x10", "--cache=4", "--requests=3"}));
    EXPECT_TRUE(parse({"--orig=o.f32", "--dec=d.f32", "--dims=16x12x10"}));
}

TEST_F(CliFixture, TraceRefusesAssessmentFlags) {
    EXPECT_FALSE(parse({"trace", "--devices=2"}));
    EXPECT_FALSE(parse({"trace", "--orig=x"}));
    EXPECT_FALSE(parse({"trace", "--devices=2", "--orig=x"}));
    EXPECT_TRUE(parse({"trace", "--requests=3"}));
}

TEST_F(CliFixture, FuzzRefusesAssessmentAndServiceFlags) {
    EXPECT_FALSE(parse({"fuzz", "--list", "--dims=2x2x2"}));
    EXPECT_FALSE(parse({"fuzz", "--list", "--cache=3"}));
    EXPECT_FALSE(parse({"fuzz", "--list", "--dims=2x2x2", "--cache=3"}));
    EXPECT_TRUE(parse({"fuzz", "--list"}));
}

TEST_F(CliFixture, ServeRefusesAssessmentFlags) {
    EXPECT_FALSE(parse({"serve", "--replay=t.trace", "--orig=o.f32"}));
    EXPECT_FALSE(parse({"serve", "--replay=t.trace", "--profile"}));
    EXPECT_TRUE(parse({"serve", "--replay=t.trace"}));
}

TEST_F(CliFixture, RemoteAssessRefusesLocalDeviceFlags) {
    EXPECT_FALSE(parse({"assess", "--connect=h:1", "--orig=o", "--dec=d", "--dims=2x2x2",
                        "--devices=2"}));
    EXPECT_FALSE(parse({"assess", "--connect=h:1", "--orig=o", "--dec=d", "--dims=2x2x2",
                        "--profile"}));
    EXPECT_TRUE(parse({"assess", "--connect=h:1", "--orig=o", "--dec=d", "--dims=2x2x2"}));
}

TEST_F(CliFixture, RemoteReplayRefusesServiceFlags) {
    EXPECT_FALSE(parse({"replay", "--connect=h:1", "--replay=t", "--cache=3"}));
    EXPECT_FALSE(parse({"replay", "--connect=h:1", "--replay=t", "--format=json"}));
    EXPECT_TRUE(parse({"replay", "--connect=h:1", "--replay=t"}));
}

TEST_F(CliFixture, NetLoopbackReplayMatchesInProcessServe) {
    // End-to-end through the CLI entry points only: generate a trace,
    // serve it over a loopback socket, replay it remotely, and check the
    // result digest equals the in-process replay of the same trace.
    const auto trace_path = (dir / "t.trace").string();
    EXPECT_EQ(run({"trace", "--requests=10", "--distinct=4",
                   "--out=" + trace_path}),
              0);

    const auto port_path = (dir / "port").string();
    std::string listen_out;
    std::thread listener([&] {
        // run_listen blocks until shutdown_active_servers() below.
        (void)run({"serve", "--listen=0", "--port-file=" + port_path}, &listen_out);
    });
    std::string port;
    for (int i = 0; i < 500 && port.empty(); ++i) {  // up to ~5 s
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        std::ifstream pf(port_path);
        std::getline(pf, port);
    }
    ASSERT_FALSE(port.empty()) << "listener never wrote its port file";

    std::string remote_json;
    const int rc = run({"replay", "--connect=127.0.0.1:" + port,
                        "--replay=" + trace_path},
                       &remote_json);
    cli::shutdown_active_servers();
    listener.join();
    ASSERT_EQ(rc, 0);

    std::string local_json;
    EXPECT_EQ(run({"serve", "--replay=" + trace_path}, &local_json), 0);

    const auto digest_of = [](const std::string& json) {
        const auto pos = json.find("\"results_fnv\": \"");
        return pos == std::string::npos ? std::string()
                                        : json.substr(pos + 16, 18);  // "0x" + 16 digits
    };
    const std::string remote = digest_of(remote_json), local = digest_of(local_json);
    ASSERT_FALSE(remote.empty());
    EXPECT_EQ(remote, local) << "remote replay diverged from in-process replay";
    EXPECT_NE(remote_json.find("\"schema\": \"cuzc-serve-replay-v2\""), std::string::npos);
    EXPECT_NE(remote_json.find("\"simd\": \""), std::string::npos);
    // The listener's own exit artifact carries net telemetry.
    EXPECT_NE(listen_out.find("\"schema\": \"cuzc-serve-listen-v1\""), std::string::npos);
}

}  // namespace

// The one JSON writer (io::Json) and every document written through it.
// The writer's rules are unit-tested here; each document kind is compared
// with a reference under tests/golden/, written by the kind's emitter
// before the emitters shared one writer. The comparison ignores layout
// whitespace and masks values that differ between runs, so it checks the
// same keys, in the same order, with the same values.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "harness.hpp"
#include "io/json.hpp"
#include "io/report_writer.hpp"
#include "serve/telemetry.hpp"
#include "test_helpers.hpp"

#ifndef CUZC_GOLDEN_DIR
#error "test_json needs -DCUZC_GOLDEN_DIR=<path to tests/golden>"
#endif

namespace {

namespace io = ::cuzc::io;
namespace cli = ::cuzc::cli;
namespace serve = ::cuzc::serve;
namespace vgpu = ::cuzc::vgpu;
namespace zc = ::cuzc::zc;
namespace bench = ::cuzc::bench;
namespace tst = ::cuzc::testing;
namespace fs = std::filesystem;

std::string text(const io::Json& j) {
    std::ostringstream os;
    os << j;
    return os.str();
}

std::string golden(const std::string& name) {
    std::ifstream in(fs::path(CUZC_GOLDEN_DIR) / name);
    EXPECT_TRUE(in) << name;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// `json` with the values that differ between runs of one command line
/// masked: paths, ports, the SIMD banner, worker counts, timings, batching
/// and the process-wide data-plane ledger.
std::string masked(std::string_view json) {
    return tst::mask_json(json, {"trace", "simd", "threads", "wall_seconds", "port", "server",
                                 "spans_s", "mean_us", "max_us", "bucket_counts", "data_plane",
                                 "batches", "coalesced", "uploads", "buffer_allocs",
                                 "max_queue_depth"});
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
    EXPECT_EQ(text("a\"b\\c"), R"("a\"b\\c")");
    EXPECT_EQ(text(std::string("t\tn\nz\x01") + '\0' + "e"), R"("t\u0009n\u000az\u0001\u0000e")");
    EXPECT_EQ(text(io::Json::Object{{"k\"ey", "v"}}), R"({"k\"ey": "v"})");
    EXPECT_EQ(io::json_string("simd=x\"y\\z"), R"("simd=x\"y\\z")");
}

TEST(JsonWriter, WritesIntegersExactly) {
    EXPECT_EQ(text(std::numeric_limits<std::uint64_t>::max()), "18446744073709551615");
    EXPECT_EQ(text(std::numeric_limits<std::int64_t>::min()), "-9223372036854775808");
    EXPECT_EQ(text(std::uint64_t{9007199254740993}), "9007199254740993");  // 2^53 + 1
    EXPECT_EQ(text(-3), "-3");
    EXPECT_EQ(text(true), "true");
    EXPECT_EQ(text(io::Json{}), "null");
}

TEST(JsonWriter, WritesDoublesInTheStreamFormatAndNonFiniteAsNull) {
    EXPECT_EQ(text(0.1), "0.1");
    EXPECT_EQ(text(1234567.0), "1.23457e+06");  // the stream's default precision
    std::ostringstream precise;
    precise.precision(12);
    precise << io::Json(1.0 / 3.0);
    EXPECT_EQ(precise.str(), "0.333333333333");
    EXPECT_EQ(text(std::numeric_limits<double>::quiet_NaN()), "null");
    EXPECT_EQ(text(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(text(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, NestsObjectsAndArraysInOneLayout) {
    io::Json doc = io::Json::Object{{"a", 1}, {"list", io::Json::Array{1, 2.5, "x"}}};
    doc.set("rows", io::Json::Array{io::Json::Object{{"k", 1}}, io::Json::Object{}});
    doc.set("empty", io::Json::Array{});
    // A container holding a container puts one element per line; any other
    // stays on one line.
    EXPECT_EQ(text(doc),
              "{\n"
              "  \"a\": 1,\n"
              "  \"list\": [1, 2.5, \"x\"],\n"
              "  \"rows\": [\n"
              "    {\"k\": 1},\n"
              "    {}\n"
              "  ],\n"
              "  \"empty\": []\n"
              "}");
    EXPECT_EQ(text(io::Json::Array{io::Json::Object{{"n", io::Json{}}}}), "[\n  {\"n\": null}\n]");
}

zc::DataPlaneStats fixed_data_plane() {
    return zc::DataPlaneStats{11, 12, 13, 14, std::numeric_limits<std::uint64_t>::max()};
}

TEST(JsonDocuments, ServiceTelemetry) {
    serve::ServiceTelemetry t;
    std::uint64_t v = 100;
    for (std::uint64_t* c : {&t.queued, &t.served, &t.cache_hits, &t.cache_misses, &t.shed,
                             &t.rejected, &t.batches, &t.coalesced, &t.uploads, &t.buffer_allocs,
                             &t.max_queue_depth, &t.cache_evictions, &t.cache_size, &t.shards,
                             &t.exchange_bytes, &t.shard_retries, &t.faults_injected, &t.retries,
                             &t.timeouts, &t.breaker_opens, &t.breaker_open, &t.queue_depth,
                             &t.inflight}) {
        *c = ++v;
    }
    t.exchange_bytes = 9007199254740993ull;  // 2^53 + 1: exact only as an integer
    t.modeled_backlog_s = 0.125;
    t.queue_s = 1.0 / 3.0;
    t.upload_s = 0.25;
    t.kernel_s = 1234567.5;
    t.report_s = 2e-7;
    for (const double s : {0.5e-6, 3e-6, 0.002, 0.0021, 12.0}) t.latency.record(s);
    t.data_plane = fixed_data_plane();
    EXPECT_EQ(tst::strip_json_ws(text(t.json())),
              tst::strip_json_ws(golden("service_telemetry.json")));
}

TEST(JsonDocuments, NetTelemetry) {
    serve::NetTelemetry t;
    std::uint64_t v = 200;
    for (std::uint64_t* c : {&t.connections_accepted, &t.connections_closed, &t.connections_active,
                             &t.requests_accepted, &t.requests_completed, &t.requests_failed,
                             &t.requests_in_flight, &t.frames_rx, &t.frames_tx, &t.frames_rejected,
                             &t.bytes_rx, &t.bytes_tx, &t.streams_opened, &t.stream_chunks,
                             &t.stream_bytes, &t.streams_aborted}) {
        *c = ++v;
    }
    t.data_plane = fixed_data_plane();
    EXPECT_EQ(tst::strip_json_ws(text(t.json())),
              tst::strip_json_ws(golden("net_telemetry.json")));
}

TEST(JsonDocuments, ReportKeepsItsNonFiniteMapping) {
    zc::AssessmentReport r;
    auto& a = r.reduction;
    auto& s = r.stencil;
    double v = 1.5;
    for (double* slot : {&a.min_val, &a.max_val, &a.value_range, &a.mean_val, &a.var_val,
                         &a.std_val, &a.entropy, &a.min_err, &a.max_err, &a.avg_err,
                         &a.avg_abs_err, &a.max_abs_err, &a.min_pwr_err, &a.max_pwr_err,
                         &a.avg_pwr_err, &a.mse, &a.rmse, &a.nrmse, &a.snr_db, &a.psnr_db,
                         &a.pearson_r, &s.deriv1_avg_orig, &s.deriv1_max_orig, &s.deriv1_avg_dec,
                         &s.deriv1_max_dec, &s.deriv1_mse, &s.deriv2_avg_orig, &s.deriv2_max_orig,
                         &s.deriv2_avg_dec, &s.deriv2_max_dec, &s.deriv2_mse,
                         &s.divergence_avg_orig, &s.divergence_avg_dec, &s.laplacian_avg_orig,
                         &s.laplacian_avg_dec, &r.ssim.ssim}) {
        *slot = (v += 0.375);
    }
    a.mean_val = 1.0 / 3.0;
    a.mse = 1.25e-9;
    a.psnr_db = std::numeric_limits<double>::infinity();
    a.snr_db = -std::numeric_limits<double>::infinity();
    a.nrmse = std::numeric_limits<double>::quiet_NaN();
    a.err_pdf = {0.25, 0.5, 0.25};
    s.autocorr = {0.9, -0.1, std::numeric_limits<double>::quiet_NaN(), 1e-300};
    // The report's layout was already the writer's: byte for byte.
    EXPECT_EQ(io::to_json(r), golden("report.json"));
}

TEST(JsonDocuments, BenchRecord) {
    vgpu::KernelStats s;
    s.blocks = 48;
    s.threads_per_block = 256;
    s.regs_per_thread = 40;
    s.smem_per_block = 49152;
    s.global_bytes_read = 4520056;
    s.global_bytes_written = 768;
    s.shared_bytes_read = 1ull << 40;
    s.shared_bytes_written = 3;
    s.shuffle_ops = 9007199254740993ull;
    s.thread_iters = 12415008;
    s.lane_ops = std::numeric_limits<std::uint64_t>::max();
    bench::Record rec("bench_doc");
    rec.set("requests", 32)
        .set("relative_throughput", 0.75)
        .set("dims", "4x\"4\"\\x4")
        .set("big", std::uint64_t{1234567890123})
        .set("results", io::Json::Array{io::Json::Object{{"kernel", "fixed"},
                                                         {"seconds", 0.0123456789},
                                                         {"stats", bench::stats_json(s)}}})
        .set("flag", true);
    (void)rec.check("identical", 32, bench::Op::kEqual, 32);
    (void)rec.check("relative_throughput", 0.75, bench::Op::kAtLeast, 0.8, false);
    (void)rec.check("nan_gate", std::numeric_limits<double>::quiet_NaN(), bench::Op::kAtMost,
                    1.5, false);
    EXPECT_EQ(tst::mask_json(text(rec.json()), {"simd", "block_workers", "nproc", "peak_rss_kib"}),
              tst::mask_json(golden("bench_record.json"),
                             {"simd", "block_workers", "nproc", "peak_rss_kib"}));
}

struct CliDocuments : public ::testing::Test {
    fs::path dir;
    std::string trace;

    void SetUp() override {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir = fs::temp_directory_path() / (std::string("cuzc_json_test_") + info->name() + "_" +
                                           std::to_string(static_cast<unsigned long>(::getpid())));
        fs::create_directories(dir);
        trace = (dir / "t.trace").string();
        std::ofstream t(trace);
        t << "# cuzc-trace-v1\n"
          << "req dims=8x8x8 seed=5 noise=0.01 p1=1 p2=1 p3=1 win=4 lag=6 deadline_us=0 prio=0\n"
          << "req dims=8x8x8 seed=5 noise=0.01 p1=1 p2=1 p3=1 win=4 lag=6 deadline_us=0 prio=0\n"
          << "req dims=8x8x8 seed=7 noise=0.02 p1=1 p2=1 p3=1 win=4 lag=6 "
             "deadline_us=0.0001 prio=1\n";
    }
    void TearDown() override { fs::remove_all(dir); }

    std::string run(std::vector<std::string> args) {
        args.insert(args.begin(), "cuzc");
        std::vector<const char*> argv;
        for (const auto& a : args) argv.push_back(a.c_str());
        std::ostringstream out, err;
        const auto opt = cli::parse_cli(static_cast<int>(argv.size()), argv.data(), err);
        EXPECT_TRUE(opt) << err.str();
        if (opt) {
            EXPECT_EQ(cli::run_cli(*opt, out, err), 0) << err.str();
        }
        return out.str();
    }
};

TEST_F(CliDocuments, Fuzz) {
    EXPECT_EQ(tst::strip_json_ws(run({"fuzz", "--target=wire-decode", "--seed=3", "--iters=3"})),
              tst::strip_json_ws(golden("cli_fuzz.json")));
}

TEST_F(CliDocuments, Replay) {
    EXPECT_EQ(masked(run({"serve", "--replay=" + trace, "--devices=1"})),
              masked(golden("cli_replay.json")));
}

TEST_F(CliDocuments, ListenAndRemoteReplay) {
    const std::string port_path = (dir / "port").string();
    std::string listen;
    std::thread listener(
        [&] { listen = run({"serve", "--listen=0", "--port-file=" + port_path}); });
    std::string port;
    for (int i = 0; i < 500 && port.empty(); ++i) {  // up to ~5 s
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        std::ifstream pf(port_path);
        std::getline(pf, port);
    }
    std::string remote;
    if (!port.empty()) remote = run({"replay", "--connect=127.0.0.1:" + port, "--replay=" + trace});
    cli::shutdown_active_servers();
    listener.join();
    ASSERT_FALSE(port.empty()) << "listener never wrote its port file";
    EXPECT_EQ(masked(remote), masked(golden("cli_remote_replay.json")));
    EXPECT_EQ(masked(listen), masked(golden("cli_listen.json")));
}

}  // namespace

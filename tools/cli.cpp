#include "cli.hpp"

#include <atomic>
#include <thread>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <string_view>
#include <vector>

#include "cuzc/cuzc.hpp"
#include "data/raw_io.hpp"
#include "fuzz/fuzz.hpp"
#include "io/config.hpp"
#include "io/strict_parse.hpp"
#include "io/html_report.hpp"
#include "io/report_writer.hpp"
#include "net/net.hpp"
#include "serve/serve.hpp"
#include "sz/sz.hpp"
#include "vgpu/scheduler.hpp"
#include "vgpu/simd.hpp"

#ifndef CUZC_VERSION
#define CUZC_VERSION "0.0.0-dev"
#endif

namespace cuzc::cli {

namespace {

[[nodiscard]] std::vector<std::uint8_t> read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) throw std::runtime_error("cannot open " + path);
    const auto size = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    std::vector<std::uint8_t> bytes(size);
    in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size));
    return bytes;
}

}  // namespace

std::string usage() {
    return "usage: cuzc --orig=orig.f32 (--dec=dec.f32 | --sz=stream.sz) --dims=HxWxL\n"
           "            [--config=zc.cfg] [--format=text|csv|json|html] [--out=report]\n"
           "            [--devices=N] [--threads=N] [--profile]\n"
           "       cuzc serve --replay=TRACE [--devices=N] [--cache=N] [--batch=N]\n"
           "            [--no-coalesce] [--threads=N] [--out=report.json]\n"
           "            [--timeout=SECONDS] [--shard-threshold=SECONDS] [--faults=SPEC]\n"
           "       cuzc serve --listen=PORT [--port-file=PATH] [service flags as above]\n"
           "       cuzc replay --connect=HOST:PORT --replay=TRACE [--stream-chunk=N]\n"
           "            [--out=report.json]\n"
           "       cuzc assess --connect=HOST:PORT --orig=orig.f32 --dec=dec.f32\n"
           "            --dims=HxWxL [--stream-chunk=N] [--config=zc.cfg]\n"
           "            [--format=...] [--out=report]\n"
           "       cuzc trace [--requests=N] [--seed=N] [--distinct=N]\n"
           "            [--tight-fraction=F] [--out=trace.txt]\n"
           "       cuzc fuzz [--target=NAME|all] [--seed=N] [--iters=N]\n"
           "            [--corpus=DIR] [--list] [--write-corpus=DIR] [--out=summary.json]\n"
           "       cuzc --version\n"
           "\n"
           "Assess the quality of lossy-compressed scientific data with the\n"
           "pattern-oriented GPU assessment system (cuZ-Checker reproduction).\n"
           "`cuzc serve --replay` replays a cuzc-trace-v1 workload through the\n"
           "in-process assessment service; `cuzc serve --listen` exposes the same\n"
           "service over TCP speaking cuzc-wire-v2 (drains gracefully on SIGTERM/\n"
           "SIGINT); `cuzc replay --connect` replays a trace against such a server;\n"
           "`cuzc assess --connect` assesses a file pair remotely (--stream-chunk=N\n"
           "uploads it as a streaming session of N-element chunks, which also\n"
           "handles datasets larger than the server's frame-payload limit);\n"
           "`cuzc trace` writes a deterministic mixed workload trace;\n"
           "`cuzc fuzz` runs the seed-deterministic differential fuzzing and\n"
           "invariant harness (--list names the targets; --corpus=DIR replays the\n"
           "checked-in regressions first and saves minimized crashers there).\n";
}

std::optional<CliOptions> parse_cli(int argc, const char* const* argv, std::ostream& err) {
    CliOptions opt;
    const auto value_of = [](const char* arg, const char* flag) -> const char* {
        const std::size_t n = std::strlen(flag);
        return std::strncmp(arg, flag, n) == 0 ? arg + n : nullptr;
    };
    int first = 1;
    if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
        opt.serve_mode = true;
        first = 2;
    } else if (argc > 1 && std::strcmp(argv[1], "replay") == 0) {
        opt.replay_mode = true;
        first = 2;
    } else if (argc > 1 && std::strcmp(argv[1], "trace") == 0) {
        opt.trace_mode = true;
        first = 2;
    } else if (argc > 1 && std::strcmp(argv[1], "assess") == 0) {
        opt.assess_mode = true;
        first = 2;
    } else if (argc > 1 && std::strcmp(argv[1], "fuzz") == 0) {
        opt.fuzz_mode = true;
        first = 2;
    }
    for (int i = first; i < argc; ++i) {
        const char* a = argv[i];
        if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
            opt.help = true;
            return opt;
        } else if (std::strcmp(a, "--version") == 0) {
            opt.version = true;
            return opt;
        } else if (std::strcmp(a, "--profile") == 0) {
            opt.show_profile = true;
        } else if (const char* v = value_of(a, "--orig=")) {
            opt.orig_path = v;
        } else if (const char* v2 = value_of(a, "--dec=")) {
            opt.dec_path = v2;
        } else if (const char* v3 = value_of(a, "--sz=")) {
            opt.sz_stream_path = v3;
        } else if (const char* v4 = value_of(a, "--dims=")) {
            if (!io::parse_dims(v4, opt.dims)) {
                err << "cuzc: bad --dims, expected HxWxL with positive extents\n";
                return std::nullopt;
            }
        } else if (const char* v5 = value_of(a, "--config=")) {
            opt.config_path = v5;
        } else if (const char* v6 = value_of(a, "--format=")) {
            opt.format = v6;
        } else if (const char* v7 = value_of(a, "--out=")) {
            opt.out_path = v7;
        } else if (const char* v8 = value_of(a, "--devices=")) {
            // Strict full-consumption parse (io::parse_num): "--devices=2x"
            // and "--devices=junk" are errors, not 2 and 0 as with atoi.
            if (!io::parse_num(std::string_view(v8), opt.devices) || opt.devices == 0) {
                err << "cuzc: --devices must be a positive integer\n";
                return std::nullopt;
            }
        } else if (const char* v9 = value_of(a, "--threads=")) {
            if (!io::parse_num(std::string_view(v9), opt.threads) || opt.threads == 0) {
                err << "cuzc: --threads must be a positive integer\n";
                return std::nullopt;
            }
        } else if (const char* v10 = value_of(a, "--replay=")) {
            opt.replay_path = v10;
        } else if (const char* v11 = value_of(a, "--cache=")) {
            if (!io::parse_num(std::string_view(v11), opt.cache_capacity)) {
                err << "cuzc: --cache must be an integer >= 0\n";
                return std::nullopt;
            }
        } else if (const char* v12 = value_of(a, "--batch=")) {
            if (!io::parse_num(std::string_view(v12), opt.max_batch) || opt.max_batch == 0) {
                err << "cuzc: --batch must be a positive integer\n";
                return std::nullopt;
            }
        } else if (std::strcmp(a, "--no-coalesce") == 0) {
            opt.coalesce = false;
        } else if (const char* v13 = value_of(a, "--timeout=")) {
            if (!io::parse_num(std::string_view(v13), opt.request_timeout_s) ||
                opt.request_timeout_s < 0) {
                err << "cuzc: --timeout must be a number of seconds >= 0\n";
                return std::nullopt;
            }
        } else if (const char* v15 = value_of(a, "--shard-threshold=")) {
            if (!io::parse_num(std::string_view(v15), opt.shard_threshold_s) ||
                opt.shard_threshold_s < 0) {
                err << "cuzc: --shard-threshold must be a number of modeled seconds >= 0\n";
                return std::nullopt;
            }
        } else if (const char* v14 = value_of(a, "--faults=")) {
            try {
                opt.faults = vgpu::FaultPlan::parse(v14);
                opt.faults_from_flag = true;
            } catch (const std::exception& e) {
                err << "cuzc: " << e.what() << "\n";
                return std::nullopt;
            }
        } else if (const char* v16 = value_of(a, "--listen=")) {
            unsigned port = 0;
            if (!io::parse_num(std::string_view(v16), port) || port > 65535) {
                err << "cuzc: --listen must be a port number (0 = ephemeral)\n";
                return std::nullopt;
            }
            opt.listen_mode = true;
            opt.listen_port = static_cast<std::uint16_t>(port);
        } else if (const char* v17 = value_of(a, "--port-file=")) {
            opt.port_file = v17;
        } else if (const char* v18 = value_of(a, "--connect=")) {
            const std::string_view sv(v18);
            const auto colon = sv.rfind(':');
            unsigned port = 0;
            if (colon == std::string_view::npos || colon == 0) {
                err << "cuzc: --connect must be HOST:PORT\n";
                return std::nullopt;
            }
            if (!io::parse_num(sv.substr(colon + 1), port) || port == 0 || port > 65535) {
                err << "cuzc: --connect must be HOST:PORT\n";
                return std::nullopt;
            }
            opt.connect_host = std::string(sv.substr(0, colon));
            opt.connect_port = static_cast<std::uint16_t>(port);
        } else if (const char* v19 = value_of(a, "--requests=")) {
            if (!io::parse_num(std::string_view(v19), opt.trace_requests) ||
                opt.trace_requests == 0) {
                err << "cuzc: --requests must be a positive integer\n";
                return std::nullopt;
            }
        } else if (const char* v20 = value_of(a, "--seed=")) {
            if (!io::parse_num(std::string_view(v20), opt.trace_seed)) {
                err << "cuzc: --seed must be an unsigned integer\n";
                return std::nullopt;
            }
        } else if (const char* v21 = value_of(a, "--distinct=")) {
            if (!io::parse_num(std::string_view(v21), opt.trace_distinct) ||
                opt.trace_distinct == 0) {
                err << "cuzc: --distinct must be a positive integer\n";
                return std::nullopt;
            }
        } else if (const char* v23 = value_of(a, "--stream-chunk=")) {
            if (!io::parse_num(std::string_view(v23), opt.stream_chunk) ||
                opt.stream_chunk == 0) {
                err << "cuzc: --stream-chunk must be a positive element count\n";
                return std::nullopt;
            }
        } else if (const char* v22 = value_of(a, "--tight-fraction=")) {
            if (!io::parse_num(std::string_view(v22), opt.trace_tight_fraction) ||
                opt.trace_tight_fraction < 0 || opt.trace_tight_fraction > 1) {
                err << "cuzc: --tight-fraction must be in [0, 1]\n";
                return std::nullopt;
            }
        } else if (const char* v24 = value_of(a, "--target=")) {
            opt.fuzz_target = v24;
        } else if (const char* v25 = value_of(a, "--iters=")) {
            if (!io::parse_num(std::string_view(v25), opt.fuzz_iters)) {
                err << "cuzc: --iters must be an integer >= 0\n";
                return std::nullopt;
            }
        } else if (const char* v26 = value_of(a, "--corpus=")) {
            opt.fuzz_corpus = v26;
        } else if (const char* v27 = value_of(a, "--write-corpus=")) {
            opt.fuzz_write_corpus = v27;
        } else if (std::strcmp(a, "--list") == 0) {
            opt.fuzz_list = true;
        } else {
            err << "cuzc: unknown argument '" << a << "'\n";
            return std::nullopt;
        }
    }
    if (!opt.fuzz_mode && (opt.fuzz_target != "all" || opt.fuzz_list ||
                           !opt.fuzz_corpus.empty() || !opt.fuzz_write_corpus.empty())) {
        err << "cuzc: --target/--corpus/--write-corpus/--list belong to the fuzz "
               "subcommand\n";
        return std::nullopt;
    }
    if (opt.fuzz_mode) return opt;
    if (opt.serve_mode) {
        if (opt.listen_mode == !opt.replay_path.empty()) {
            err << "cuzc: serve needs exactly one of --replay=TRACE / --listen=PORT\n";
            return std::nullopt;
        }
        if (!opt.port_file.empty() && !opt.listen_mode) {
            err << "cuzc: --port-file is only valid with --listen\n";
            return std::nullopt;
        }
        if (!opt.connect_host.empty()) {
            err << "cuzc: --connect belongs to the replay/assess subcommands\n";
            return std::nullopt;
        }
        if (opt.stream_chunk > 0) {
            err << "cuzc: --stream-chunk belongs to the replay/assess subcommands\n";
            return std::nullopt;
        }
        return opt;
    }
    if (opt.replay_mode) {
        if (opt.connect_host.empty() || opt.replay_path.empty()) {
            err << "cuzc: replay needs --connect=HOST:PORT and --replay=TRACE\n";
            return std::nullopt;
        }
        return opt;
    }
    if (opt.assess_mode) {
        if (opt.connect_host.empty()) {
            err << "cuzc: assess needs --connect=HOST:PORT\n";
            return std::nullopt;
        }
        if (opt.orig_path.empty() || (opt.dec_path.empty() == opt.sz_stream_path.empty())) {
            err << "cuzc: assess needs --orig and exactly one of --dec / --sz\n";
            return std::nullopt;
        }
        if (opt.dims.volume() == 0) {
            err << "cuzc: --dims is required\n";
            return std::nullopt;
        }
        if (opt.stream_chunk > 0 && opt.dec_path.empty()) {
            err << "cuzc: --stream-chunk streams a decompressed field; it needs --dec\n";
            return std::nullopt;
        }
        if (opt.format != "text" && opt.format != "csv" && opt.format != "json" &&
            opt.format != "html") {
            err << "cuzc: unknown --format '" << opt.format << "'\n";
            return std::nullopt;
        }
        return opt;
    }
    if (opt.trace_mode) return opt;
    if (!opt.replay_path.empty()) {
        err << "cuzc: --replay is only valid with the serve/replay subcommands\n";
        return std::nullopt;
    }
    if (opt.listen_mode || !opt.port_file.empty() || !opt.connect_host.empty()) {
        err << "cuzc: --listen/--port-file/--connect need the serve/replay/assess "
               "subcommands\n";
        return std::nullopt;
    }
    if (opt.stream_chunk > 0) {
        err << "cuzc: --stream-chunk needs the replay/assess subcommands\n";
        return std::nullopt;
    }
    if (opt.faults_from_flag || opt.request_timeout_s > 0 || opt.shard_threshold_s > 0) {
        err << "cuzc: --faults/--timeout/--shard-threshold are only valid with the serve "
               "subcommand\n";
        return std::nullopt;
    }
    if (opt.orig_path.empty() || (opt.dec_path.empty() == opt.sz_stream_path.empty())) {
        err << "cuzc: need --orig and exactly one of --dec / --sz\n";
        return std::nullopt;
    }
    if (opt.dims.volume() == 0) {
        err << "cuzc: --dims is required\n";
        return std::nullopt;
    }
    if (opt.format != "text" && opt.format != "csv" && opt.format != "json" &&
        opt.format != "html") {
        err << "cuzc: unknown --format '" << opt.format << "'\n";
        return std::nullopt;
    }
    return opt;
}

namespace {

/// The `serve --listen` server currently run by this process, for the
/// signal handler. One listener at a time (the CLI runs one per process).
std::atomic<net::NetServer*> g_active_server{nullptr};
/// shutdown_active_servers() calls currently executing. run_listen drains
/// this to zero after unpublishing the server and before destroying it, so
/// a signal/test thread mid-shutdown() can never touch a dying server
/// (the drain can finish via the poll quantum before the wake-pipe write
/// lands — without the guard that write races the pipe's close).
std::atomic<int> g_shutdown_in_flight{0};

extern "C" void cuzc_cli_on_signal(int) { shutdown_active_servers(); }

[[nodiscard]] std::string fnv_hex(std::uint64_t h) {
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(h));
    return buf;
}

/// Counters shared by the in-process and networked replay paths.
struct ReplaySummary {
    std::size_t requests = 0, degraded = 0, rejected = 0, hits = 0, timed_out = 0, sharded = 0;
    double wall_s = 0;
    /// FNV-1a-64 over the canonical report encodings in submission order —
    /// equal digests mean bit-identical results.
    std::uint64_t results_fnv = 14695981039346656037ull;

    void absorb(const serve::AssessResponse& resp) {
        degraded += resp.degraded;
        rejected += resp.rejected;
        hits += resp.cache_hit;
        timed_out += resp.timed_out;
        sharded += resp.shards > 1;
        results_fnv = net::digest_report(results_fnv, resp.result.report);
    }
};

[[nodiscard]] int open_sink(const CliOptions& opt, std::ostream& out, std::ostream& err,
                            std::ofstream& file, std::ostream*& sink) {
    sink = &out;
    if (!opt.out_path.empty()) {
        file.open(opt.out_path);
        if (!file) {
            err << "cuzc: cannot open output " << opt.out_path << "\n";
            return 2;
        }
        sink = &file;
    }
    return 0;
}

void write_replay_json(std::ostream& os, const CliOptions& opt, const ReplaySummary& sum) {
    os << "{\n"
       << "  \"schema\": \"cuzc-serve-replay-v2\",\n"
       << "  \"trace\": " << io::json_string(opt.replay_path) << ",\n"
       << "  \"simd\": \"" << vgpu::simd::banner() << "\",\n"
       << "  \"devices\": " << opt.devices << ",\n"
       << "  \"threads\": " << vgpu::BlockScheduler::instance().max_workers() << ",\n"
       << "  \"requests\": " << sum.requests << ",\n"
       << "  \"degraded\": " << sum.degraded << ",\n"
       << "  \"rejected\": " << sum.rejected << ",\n"
       << "  \"timed_out\": " << sum.timed_out << ",\n"
       << "  \"sharded\": " << sum.sharded << ",\n"
       << "  \"cache_hits\": " << sum.hits << ",\n"
       << "  \"results_fnv\": \"" << fnv_hex(sum.results_fnv) << "\",\n"
       << "  \"wall_seconds\": " << sum.wall_s << ",\n";
}

[[nodiscard]] serve::ServiceConfig service_config_of(const CliOptions& opt) {
    serve::ServiceConfig scfg;
    scfg.devices = opt.devices;
    scfg.cache_capacity = opt.cache_capacity;
    scfg.max_batch = opt.max_batch;
    scfg.coalesce = opt.coalesce;
    scfg.request_timeout_s = opt.request_timeout_s;
    scfg.shard_threshold_s = opt.shard_threshold_s;
    // Fault injection: explicit --faults wins, otherwise CUZC_FAULTS.
    scfg.faults = opt.faults_from_flag ? opt.faults : vgpu::FaultPlan::from_env();
    return scfg;
}

[[nodiscard]] std::vector<serve::TraceEntry> load_trace(const CliOptions& opt,
                                                        std::ostream& err) {
    std::ifstream trace_file(opt.replay_path);
    if (!trace_file) {
        err << "cuzc: cannot open trace " << opt.replay_path << "\n";
        return {};
    }
    return serve::read_trace(trace_file);
}

/// Replay a workload trace through the in-process assessment service and
/// emit a JSON summary (request outcomes + full service telemetry).
int run_serve(const CliOptions& opt, std::ostream& out, std::ostream& err) {
    const auto trace = load_trace(opt, err);
    if (trace.empty()) return 2;

    serve::AssessService service(service_config_of(opt));

    std::vector<std::future<serve::AssessResponse>> futures;
    futures.reserve(trace.size());
    const zc::Stopwatch watch;
    for (const auto& entry : trace) {
        futures.push_back(service.submit(serve::to_request(entry)));
    }
    ReplaySummary sum;
    sum.requests = trace.size();
    for (auto& f : futures) sum.absorb(f.get());
    sum.wall_s = watch.seconds();
    const serve::ServiceTelemetry tele = service.telemetry();

    std::ofstream file;
    std::ostream* sink = nullptr;
    if (const int rc = open_sink(opt, out, err, file, sink)) return rc;
    write_replay_json(*sink, opt, sum);
    *sink << "  \"telemetry\": ";
    tele.write_json(*sink, 2);
    *sink << "\n}\n";
    return 0;
}

/// Upload one materialized request as a streaming session: begin, feed
/// `chunk_elems`-sized slices, finish. The settling response arrives via
/// wait(id) like any submitted request, so replay pipelining is unchanged.
/// Chunks of one entry are queued back-to-back, so the server holds at
/// most one open stream per entry even when many ids are outstanding.
[[nodiscard]] std::uint64_t stream_entry(net::NetClient& client,
                                         const serve::AssessRequest& req,
                                         std::size_t chunk_elems) {
    const std::span<const float> orig = req.orig.data();
    const std::span<const float> dec = req.dec.data();
    const std::size_t n = orig.size();
    const std::uint64_t chunks =
        (n + chunk_elems - 1) / std::max<std::size_t>(1, chunk_elems);
    const std::uint64_t id = client.stream_begin(req.orig.dims(), req.cfg, chunks);
    for (std::size_t off = 0; off < n; off += chunk_elems) {
        const std::size_t len = std::min(chunk_elems, n - off);
        client.stream_feed(id, orig.subspan(off, len), dec.subspan(off, len));
    }
    client.stream_finish(id);
    return id;
}

/// Replay a workload trace against a remote cuzc-wire server, pipelining
/// up to the server's advertised in-flight window.
int run_replay_connect(const CliOptions& opt, std::ostream& out, std::ostream& err) {
    const auto trace = load_trace(opt, err);
    if (trace.empty()) return 2;

    net::NetClientConfig ccfg;
    ccfg.host = opt.connect_host;
    ccfg.port = opt.connect_port;
    net::NetClient client(ccfg);
    const std::size_t window = std::max<std::size_t>(1, client.server_max_inflight());

    const zc::Stopwatch watch;
    std::vector<std::uint64_t> ids;
    ids.reserve(trace.size());
    for (const auto& entry : trace) {
        while (client.outstanding() >= window) client.pump(0.05);
        if (opt.stream_chunk > 0) {
            ids.push_back(stream_entry(client, serve::to_request(entry), opt.stream_chunk));
        } else {
            ids.push_back(client.submit(serve::to_request(entry)));
        }
    }
    ReplaySummary sum;
    sum.requests = trace.size();
    for (const std::uint64_t id : ids) sum.absorb(client.wait(id));
    sum.wall_s = watch.seconds();

    std::ofstream file;
    std::ostream* sink = nullptr;
    if (const int rc = open_sink(opt, out, err, file, sink)) return rc;
    write_replay_json(*sink, opt, sum);
    *sink << "  \"client\": {\n"
          << "    \"server\": "
          << io::json_string(opt.connect_host + ":" + std::to_string(opt.connect_port)) << ",\n"
          << "    \"frames_tx\": " << client.frames_tx() << ",\n"
          << "    \"frames_rx\": " << client.frames_rx() << ",\n"
          << "    \"bytes_tx\": " << client.bytes_tx() << ",\n"
          << "    \"bytes_rx\": " << client.bytes_rx() << "\n"
          << "  }\n}\n";
    client.close();
    return 0;
}

/// Assess one file pair on a remote server (`cuzc assess --connect`),
/// either as a single whole-frame request or — with --stream-chunk — as a
/// streaming session that never needs the dataset to fit one frame.
int run_assess_connect(const CliOptions& opt, std::ostream& out, std::ostream& err) {
    zc::MetricsConfig cfg;
    if (!opt.config_path.empty()) {
        cfg = io::metrics_from_config(io::Config::load(opt.config_path));
    }
    zc::FieldRef orig = data::read_f32(opt.orig_path, opt.dims);

    net::NetClientConfig ccfg;
    ccfg.host = opt.connect_host;
    ccfg.port = opt.connect_port;
    net::NetClient client(ccfg);

    serve::AssessResponse resp;
    if (opt.stream_chunk > 0) {
        const zc::FieldRef dec = data::read_f32(opt.dec_path, opt.dims);
        resp = client.stream_assess(opt.dims, orig.data(), dec.data(), cfg, opt.stream_chunk);
    } else {
        serve::AssessRequest req;
        req.cfg = cfg;
        if (!opt.sz_stream_path.empty()) {
            req.sz_stream = read_bytes(opt.sz_stream_path);
        } else {
            req.dec = data::read_f32(opt.dec_path, opt.dims);
        }
        req.orig = std::move(orig);
        resp = client.assess(req);
    }
    client.close();
    if (resp.rejected || resp.timed_out) {
        err << "cuzc: remote assessment failed: "
            << (resp.error.empty() ? "request rejected" : resp.error) << "\n";
        return 2;
    }

    std::ofstream file;
    std::ostream* sink = nullptr;
    if (const int rc = open_sink(opt, out, err, file, sink)) return rc;
    if (opt.format == "csv") {
        io::write_csv(*sink, resp.result.report);
    } else if (opt.format == "json") {
        io::write_json(*sink, resp.result.report);
    } else if (opt.format == "html") {
        io::HtmlReportOptions hopt;
        hopt.field_name = opt.orig_path;
        io::write_html(*sink, resp.result.report, hopt);
    } else {
        io::write_text(*sink, resp.result.report);
    }
    return 0;
}

/// Run the socket front-end until SIGINT/SIGTERM (or a test calling
/// shutdown_active_servers) drains it, then emit net + service telemetry.
int run_listen(const CliOptions& opt, std::ostream& out, std::ostream& err) {
    net::NetServerConfig ncfg;
    ncfg.port = opt.listen_port;
    ncfg.service = service_config_of(opt);
    net::NetServer server(ncfg);

    if (!opt.port_file.empty()) {
        std::ofstream pf(opt.port_file);
        pf << server.port() << "\n";
        pf.close();
        if (!pf) {
            err << "cuzc: cannot write port file " << opt.port_file << "\n";
            return 2;
        }
    }
    err << "cuzc: listening on " << ncfg.bind_address << ":" << server.port() << "\n";

    g_active_server.store(&server, std::memory_order_release);
    const auto prev_int = std::signal(SIGINT, cuzc_cli_on_signal);
    const auto prev_term = std::signal(SIGTERM, cuzc_cli_on_signal);
    server.run();
    std::signal(SIGINT, prev_int);
    std::signal(SIGTERM, prev_term);
    g_active_server.store(nullptr, std::memory_order_release);
    // Wait out any shutdown_active_servers() call that loaded the pointer
    // before it was unpublished: `server` (and its wake pipe) must outlive
    // that call. A handler interrupting this very thread completes its
    // nested call before the spin resumes, so this cannot deadlock.
    while (g_shutdown_in_flight.load(std::memory_order_acquire) != 0) {
        std::this_thread::yield();
    }

    const serve::NetTelemetry net_tele = server.telemetry();
    const serve::ServiceTelemetry svc_tele = server.service_telemetry();
    std::ofstream file;
    std::ostream* sink = nullptr;
    if (const int rc = open_sink(opt, out, err, file, sink)) return rc;
    *sink << "{\n"
          << "  \"schema\": \"cuzc-serve-listen-v1\",\n"
          << "  \"port\": " << server.port() << ",\n"
          << "  \"net\": ";
    net_tele.write_json(*sink, 2);
    *sink << ",\n  \"service\": ";
    svc_tele.write_json(*sink, 2);
    *sink << "\n}\n";
    return 0;
}

/// Run the differential fuzzing / invariant harness (`cuzc fuzz`).
/// Deterministic per (target, seed, iters); exit 0 = no findings, 1 =
/// findings, 2 = usage error. --corpus=DIR replays every checked-in entry
/// before iterating and saves minimized crashers back into DIR.
int run_fuzz(const CliOptions& opt, std::ostream& out, std::ostream& err) {
    register_cli_fuzz_target();
    if (opt.fuzz_list) {
        for (const auto& t : fuzz::targets()) {
            out << t.name << "\n    " << t.description << "\n";
        }
        return 0;
    }
    if (!opt.fuzz_write_corpus.empty()) {
        const std::size_t n = fuzz::write_regression_corpus(opt.fuzz_write_corpus);
        err << "cuzc: wrote " << n << " corpus entries under " << opt.fuzz_write_corpus
            << "\n";
        return 0;
    }
    std::vector<const fuzz::Target*> picked;
    if (opt.fuzz_target == "all") {
        for (const auto& t : fuzz::targets()) picked.push_back(&t);
    } else {
        const fuzz::Target* t = fuzz::find_target(opt.fuzz_target);
        if (t == nullptr) {
            err << "cuzc: unknown fuzz target '" << opt.fuzz_target
                << "' (cuzc fuzz --list)\n";
            return 2;
        }
        picked.push_back(t);
    }

    fuzz::FuzzOptions fopt;
    fopt.seed = opt.trace_seed;
    fopt.iters = opt.fuzz_iters;
    fopt.corpus_dir = opt.fuzz_corpus;
    fopt.log = &err;

    std::ofstream file;
    std::ostream* sink = nullptr;
    if (const int rc = open_sink(opt, out, err, file, sink)) return rc;
    std::size_t findings = 0;
    *sink << "{\n  \"schema\": \"cuzc-fuzz-v1\",\n  \"seed\": " << opt.trace_seed
          << ",\n  \"iters\": " << opt.fuzz_iters << ",\n  \"targets\": [";
    bool first_target = true;
    for (const fuzz::Target* t : picked) {
        const fuzz::FuzzResult res = fuzz::run_target(*t, fopt);
        findings += res.findings.size();
        *sink << (first_target ? "\n" : ",\n") << "    {\"name\": \"" << t->name
              << "\", \"iterations\": " << res.iterations
              << ", \"corpus_entries\": " << res.corpus_entries
              << ", \"findings\": " << res.findings.size() << "}";
        first_target = false;
        for (const fuzz::Finding& f : res.findings) {
            err << "cuzc: FUZZ FINDING [" << t->name << "] " << f.what
                << (f.corpus_file.empty() ? "" : " (saved: " + f.corpus_file + ")") << "\n";
        }
    }
    *sink << "\n  ],\n  \"findings\": " << findings << "\n}\n";
    return findings == 0 ? 0 : 1;
}

/// Write a deterministic mixed-workload trace (the generator behind the
/// serve bench and CI smokes) as cuzc-trace-v1 text.
int run_trace(const CliOptions& opt, std::ostream& out, std::ostream& err) {
    serve::TraceGenConfig gcfg;
    gcfg.requests = opt.trace_requests;
    gcfg.seed = opt.trace_seed;
    gcfg.distinct = opt.trace_distinct;
    gcfg.tight_deadline_fraction = opt.trace_tight_fraction;
    const auto trace = serve::generate_trace(gcfg);

    std::ofstream file;
    std::ostream* sink = nullptr;
    if (const int rc = open_sink(opt, out, err, file, sink)) return rc;
    serve::write_trace(*sink, trace);
    return 0;
}

}  // namespace

void shutdown_active_servers() noexcept {
    // Async-signal-safe: lock-free atomics plus NetServer::shutdown()
    // (itself only a store + pipe write). The in-flight count keeps the
    // server alive in run_listen until this call returns.
    g_shutdown_in_flight.fetch_add(1, std::memory_order_acq_rel);
    if (auto* server = g_active_server.load(std::memory_order_acquire)) server->shutdown();
    g_shutdown_in_flight.fetch_sub(1, std::memory_order_acq_rel);
}

int run_cli(const CliOptions& opt, std::ostream& out, std::ostream& err) {
    if (opt.help) {
        out << usage();
        return 0;
    }
    if (opt.version) {
        out << "cuzc " << CUZC_VERSION << "\n"
            << "schemas: cuzc-trace-v1 cuzc-serve-telemetry-v2 cuzc-serve-replay-v2 "
            << net::kProtocolName << "\n"
            << vgpu::simd::banner() << "\n";
        return 0;
    }
    if (opt.threads > 0) {
        vgpu::BlockScheduler::instance().set_num_threads(opt.threads);
    }
    try {
        if (opt.fuzz_mode) return run_fuzz(opt, out, err);
        if (opt.trace_mode) return run_trace(opt, out, err);
        if (opt.replay_mode) return run_replay_connect(opt, out, err);
        if (opt.assess_mode) return run_assess_connect(opt, out, err);
        if (opt.serve_mode) {
            return opt.listen_mode ? run_listen(opt, out, err) : run_serve(opt, out, err);
        }
        zc::MetricsConfig cfg;
        if (!opt.config_path.empty()) {
            cfg = io::metrics_from_config(io::Config::load(opt.config_path));
        }
        const zc::FieldRef orig = data::read_f32(opt.orig_path, opt.dims);
        zc::FieldRef dec;
        std::optional<zc::CompressionStats> comp_stats;
        if (!opt.sz_stream_path.empty()) {
            const auto stream = read_bytes(opt.sz_stream_path);
            zc::CompressionStats cs;
            cs.raw_bytes = opt.dims.volume() * sizeof(float);
            cs.compressed_bytes = stream.size();
            if (sz::stream_dims(stream) != opt.dims) {
                err << "cuzc: SZ stream shape disagrees with --dims\n";
                return 2;
            }
            const zc::Stopwatch watch;
            dec = sz::decompress(stream);
            cs.decompress_seconds = watch.seconds();
            comp_stats = cs;
        } else {
            dec = data::read_f32(opt.dec_path, opt.dims);
        }

        zc::AssessmentReport report;
        std::vector<vgpu::KernelStats> profiles;
        if (opt.devices > 1) {
            std::vector<vgpu::Device> devices(opt.devices);
            const auto r = ::cuzc::cuzc::assess_multigpu(devices, orig.view(), dec.view(), cfg);
            report = r.report;
            profiles = r.per_device;
        } else {
            vgpu::Device device;
            // FieldRef overload: device buffers adopt the payloads in place.
            const auto r = ::cuzc::cuzc::assess(device, orig, dec, cfg);
            report = r.report;
            profiles = {r.pattern1, r.pattern2, r.pattern3};
        }

        std::ofstream file;
        std::ostream* sink = &out;
        if (!opt.out_path.empty()) {
            file.open(opt.out_path);
            if (!file) {
                err << "cuzc: cannot open output " << opt.out_path << "\n";
                return 2;
            }
            sink = &file;
        }
        if (opt.format == "csv") {
            io::write_csv(*sink, report);
        } else if (opt.format == "json") {
            io::write_json(*sink, report);
        } else if (opt.format == "html") {
            io::HtmlReportOptions hopt;
            hopt.field_name = opt.orig_path;
            hopt.compression = comp_stats;
            io::write_html(*sink, report, hopt);
        } else {
            io::write_text(*sink, report);
        }

        if (opt.show_profile) {
            err << vgpu::simd::banner() << "\n";
            for (const auto& p : profiles) {
                err << p.name << ": launches=" << p.launches << " global=" << p.global_bytes()
                    << "B shared=" << p.shared_bytes() << "B shuffles=" << p.shuffle_ops
                    << "\n";
            }
            const zc::DataPlaneStats dp = zc::data_plane_stats();
            err << "data-plane: bytes_copied=" << dp.bytes_copied
                << " slab_reuses=" << dp.slab_reuses << " adoptions=" << dp.adoptions
                << " pool_high_water=" << dp.pool_high_water_bytes << "B\n";
        }
        return 0;
    } catch (const std::exception& e) {
        err << "cuzc: " << e.what() << "\n";
        return 2;
    }
}

}  // namespace cuzc::cli

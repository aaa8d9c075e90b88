#include "cli.hpp"

#include <atomic>
#include <thread>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <span>
#include <string_view>
#include <vector>

#include "cuzc/cuzc.hpp"
#include "data/raw_io.hpp"
#include "fuzz/fuzz.hpp"
#include "io/config.hpp"
#include "io/flags.hpp"
#include "io/html_report.hpp"
#include "io/json.hpp"
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

std::string usage() {
    return "usage: cuzc --orig=orig.f32 (--dec=dec.f32 | --sz=stream.sz) --dims=HxWxL\n"
           "            [--config=zc.cfg] [--format=text|csv|json|html] [--out=report]\n"
           "            [--devices=N] [--threads=N] [--profile]\n"
           "       cuzc serve --replay=TRACE [--devices=N] [--cache=N] [--batch=N]\n"
           "            [--no-coalesce] [--threads=N] [--out=report.json]\n"
           "            [--timeout=SECONDS] [--shard-threshold=SECONDS] [--faults=SPEC]\n"
           "       cuzc serve --listen=PORT [--port-file=PATH] [service flags as above]\n"
           "       cuzc replay --connect=HOST:PORT --replay=TRACE [--stream-chunk=N]\n"
           "            [--devices=N] [--threads=N] [--out=report.json]\n"
           "       cuzc assess --connect=HOST:PORT --orig=orig.f32 --dec=dec.f32\n"
           "            --dims=HxWxL [--stream-chunk=N] [--config=zc.cfg]\n"
           "            [--format=...] [--out=report]\n"
           "       cuzc trace [--requests=N] [--seed=N] [--distinct=N]\n"
           "            [--tight-fraction=F] [--out=trace.txt]\n"
           "       cuzc fuzz [--target=NAME|all] [--seed=N] [--iters=N]\n"
           "            [--corpus=DIR] [--list] [--write-corpus=DIR] [--threads=N]\n"
           "            [--out=summary.json]\n"
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

namespace {

/// `--connect=HOST:PORT` with a non-empty host and a port in 1..65535.
bool parse_connect(std::string_view v, CliOptions& opt) {
    const std::size_t colon = v.rfind(':');
    unsigned port = 0;
    if (colon == std::string_view::npos || colon == 0 ||
        !io::parse_num(v.substr(colon + 1), port) || port == 0 || port > 65535) {
        return false;
    }
    opt.connect_host = std::string(v.substr(0, colon));
    opt.connect_port = static_cast<std::uint16_t>(port);
    return true;
}

/// The flag table of the subcommand `opt` selects: exactly the flags that
/// subcommand reads, each setting its field of `opt`.
io::Flags flag_table(CliOptions& opt) {
    io::Flags f("cuzc");
    f.text("--out", opt.out_path);
    const auto field_pair = [&] {
        f.text("--orig", opt.orig_path)
            .text("--dec", opt.dec_path)
            .text("--sz", opt.sz_stream_path)
            .dims("--dims", opt.dims)
            .text("--config", opt.config_path)
            .text("--format", opt.format);
    };
    const auto connect = [&] {
        f.value("--connect", [&opt](std::string_view v) { return parse_connect(v, opt); })
            .num("--stream-chunk", opt.stream_chunk, std::size_t{1});
    };
    if (opt.serve_mode) {
        f.text("--replay", opt.replay_path)
            .value("--listen",
                   [&opt](std::string_view v) {
                       opt.listen_mode = io::parse_num(v, opt.listen_port);
                       return opt.listen_mode;
                   })
            .text("--port-file", opt.port_file)
            .num("--devices", opt.devices, 1u)
            .num("--threads", opt.threads, 1u)
            .num("--cache", opt.cache_capacity, std::size_t{0})
            .num("--batch", opt.max_batch, std::size_t{1})
            .flag("--no-coalesce", opt.coalesce, false)
            .num("--timeout", opt.request_timeout_s, 0.0)
            .num("--shard-threshold", opt.shard_threshold_s, 0.0)
            .value("--faults", [&opt](std::string_view v) {
                opt.faults = vgpu::FaultPlan::parse(v);
                opt.faults_from_flag = true;
                return true;
            });
    } else if (opt.replay_mode) {
        connect();
        // --devices and --threads are recorded in the replay document.
        f.text("--replay", opt.replay_path)
            .num("--devices", opt.devices, 1u)
            .num("--threads", opt.threads, 1u);
    } else if (opt.assess_mode) {
        connect();
        field_pair();
    } else if (opt.trace_mode) {
        f.num("--requests", opt.trace_requests, std::size_t{1})
            .num("--seed", opt.trace_seed, std::uint64_t{0})
            .num("--distinct", opt.trace_distinct, std::size_t{1})
            .num("--tight-fraction", opt.trace_tight_fraction, 0.0, 1.0);
    } else if (opt.fuzz_mode) {
        f.text("--target", opt.fuzz_target)
            .num("--seed", opt.trace_seed, std::uint64_t{0})
            .num("--iters", opt.fuzz_iters, std::uint64_t{0})
            .text("--corpus", opt.fuzz_corpus)
            .text("--write-corpus", opt.fuzz_write_corpus)
            .flag("--list", opt.fuzz_list)
            .num("--threads", opt.threads, 1u);
    } else {
        field_pair();
        f.num("--devices", opt.devices, 1u)
            .num("--threads", opt.threads, 1u)
            .flag("--profile", opt.show_profile);
    }
    return f;
}

/// What a flag table cannot express: the inputs a subcommand needs and the
/// flags valid only together. "" when the command line is complete.
std::string incomplete(const CliOptions& opt) {
    if (opt.serve_mode) {
        if (opt.listen_mode == !opt.replay_path.empty()) {
            return "serve needs exactly one of --replay=TRACE / --listen=PORT";
        }
        if (!opt.port_file.empty() && !opt.listen_mode) {
            return "--port-file is only valid with --listen";
        }
        return "";
    }
    if (opt.replay_mode) {
        return opt.connect_host.empty() || opt.replay_path.empty()
                   ? "replay needs --connect=HOST:PORT and --replay=TRACE"
                   : "";
    }
    if (opt.trace_mode || opt.fuzz_mode) return "";
    if (opt.assess_mode && opt.connect_host.empty()) return "assess needs --connect=HOST:PORT";
    if (opt.orig_path.empty() || opt.dec_path.empty() == opt.sz_stream_path.empty()) {
        return "need --orig and exactly one of --dec / --sz";
    }
    if (opt.dims.volume() == 0) return "--dims is required";
    if (opt.stream_chunk > 0 && opt.dec_path.empty()) {
        return "--stream-chunk streams a decompressed field; it needs --dec";
    }
    if (opt.format != "text" && opt.format != "csv" && opt.format != "json" &&
        opt.format != "html") {
        return "unknown --format '" + opt.format + "'";
    }
    return "";
}

}  // namespace

std::optional<CliOptions> parse_cli(int argc, const char* const* argv, std::ostream& err) {
    CliOptions opt;
    const std::string_view sub = argc > 1 ? argv[1] : "";
    bool* mode = sub == "serve"    ? &opt.serve_mode
                 : sub == "replay" ? &opt.replay_mode
                 : sub == "assess" ? &opt.assess_mode
                 : sub == "trace"  ? &opt.trace_mode
                 : sub == "fuzz"   ? &opt.fuzz_mode
                                   : nullptr;
    if (mode != nullptr) *mode = true;
    const int first = mode != nullptr ? 2 : 1;
    // --help, -h and --version end the command line of every subcommand.
    int last = first;
    const auto ends_line = [](std::string_view a) {
        return a == "--help" || a == "-h" || a == "--version";
    };
    while (last < argc && !ends_line(argv[last])) ++last;

    // argv[first - 1], the program or subcommand name, is not a flag.
    std::string problem = flag_table(opt).parse(last - first + 1, argv + first - 1);
    if (problem.empty() && last < argc) {
        (std::string_view(argv[last]) == "--version" ? opt.version : opt.help) = true;
        return opt;
    }
    if (problem.empty()) problem = incomplete(opt);
    if (!problem.empty()) {
        err << "cuzc: " << problem << "\n";
        return std::nullopt;
    }
    return opt;
}

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

/// Write one output to --out, or to `out` when it is not set. Returns 0,
/// or 2 when the output file cannot be opened.
template <class Write>
[[nodiscard]] int emit(const CliOptions& opt, std::ostream& out, std::ostream& err,
                       const Write& write) {
    if (opt.out_path.empty()) {
        write(out);
        return 0;
    }
    std::ofstream file(opt.out_path);
    if (!file) {
        err << "cuzc: cannot open output " << opt.out_path << "\n";
        return 2;
    }
    write(file);
    return 0;
}

[[nodiscard]] int emit_json(const CliOptions& opt, std::ostream& out, std::ostream& err,
                            const io::Json& doc) {
    return emit(opt, out, err, [&doc](std::ostream& os) { os << doc << '\n'; });
}

/// The report in --format, the one sink of local and remote assessment.
[[nodiscard]] int emit_report(const CliOptions& opt, std::ostream& out, std::ostream& err,
                              const zc::AssessmentReport& report,
                              const std::optional<zc::CompressionStats>& compression = {}) {
    return emit(opt, out, err, [&](std::ostream& os) {
        if (opt.format == "csv") {
            io::write_csv(os, report);
        } else if (opt.format == "json") {
            io::write_json(os, report);
        } else if (opt.format == "html") {
            io::HtmlReportOptions hopt;
            hopt.field_name = opt.orig_path;
            hopt.compression = compression;
            io::write_html(os, report, hopt);
        } else {
            io::write_text(os, report);
        }
    });
}

/// The `cuzc-serve-replay-v2` document of both replay paths, before the
/// tail each adds ("telemetry" in process, "client" over the wire).
[[nodiscard]] io::Json replay_json(const CliOptions& opt, const ReplaySummary& sum) {
    return io::Json::Object{
        {"schema", "cuzc-serve-replay-v2"}, {"trace", opt.replay_path},
        {"simd", vgpu::simd::banner()}, {"devices", opt.devices},
        {"threads", vgpu::BlockScheduler::instance().max_workers()},
        {"requests", sum.requests}, {"degraded", sum.degraded}, {"rejected", sum.rejected},
        {"timed_out", sum.timed_out}, {"sharded", sum.sharded}, {"cache_hits", sum.hits},
        {"results_fnv", fnv_hex(sum.results_fnv)}, {"wall_seconds", sum.wall_s}};
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
    io::Json doc = replay_json(opt, sum);
    doc.set("telemetry", service.telemetry().json());
    return emit_json(opt, out, err, doc);
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
    io::Json doc = replay_json(opt, sum);
    doc.set("client", io::Json::Object{
                          {"server", opt.connect_host + ":" + std::to_string(opt.connect_port)},
                          {"frames_tx", client.frames_tx()}, {"frames_rx", client.frames_rx()},
                          {"bytes_tx", client.bytes_tx()}, {"bytes_rx", client.bytes_rx()}});
    client.close();
    return emit_json(opt, out, err, doc);
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
    return emit_report(opt, out, err, resp.result.report);
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

    return emit_json(opt, out, err,
                     io::Json::Object{{"schema", "cuzc-serve-listen-v1"},
                                      {"port", server.port()},
                                      {"net", server.telemetry().json()},
                                      {"service", server.service_telemetry().json()}});
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

    std::size_t findings = 0;
    io::Json::Array rows;
    for (const fuzz::Target* t : picked) {
        const fuzz::FuzzResult res = fuzz::run_target(*t, fopt);
        findings += res.findings.size();
        rows.emplace_back(io::Json::Object{{"name", t->name},
                                           {"iterations", res.iterations},
                                           {"corpus_entries", res.corpus_entries},
                                           {"findings", res.findings.size()}});
        for (const fuzz::Finding& f : res.findings) {
            err << "cuzc: FUZZ FINDING [" << t->name << "] " << f.what
                << (f.corpus_file.empty() ? "" : " (saved: " + f.corpus_file + ")") << "\n";
        }
    }
    const int rc = emit_json(
        opt, out, err,
        io::Json::Object{{"schema", "cuzc-fuzz-v1"}, {"seed", opt.trace_seed},
                         {"iters", opt.fuzz_iters}, {"targets", std::move(rows)},
                         {"findings", findings}});
    return rc != 0 ? rc : findings == 0 ? 0 : 1;
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
    return emit(opt, out, err, [&trace](std::ostream& os) { serve::write_trace(os, trace); });
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

        if (const int rc = emit_report(opt, out, err, report, comp_stats)) return rc;

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

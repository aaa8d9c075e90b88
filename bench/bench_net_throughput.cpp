// Loopback cuzc-wire-v2 serving versus the in-process assessment service
// on the same mixed workload trace.
//
// The in-process run replays the trace straight through `AssessService`
// (the ceiling: no sockets, no serialization). The loopback run starts a
// `NetServer` on 127.0.0.1, replays the identical trace through a
// `NetClient` pipelined up to the server's advertised in-flight window, and
// pays the full wire cost: request/response framing, checksums, TCP.
//
// Two gates make the number honest:
//   - bit-identity: every loopback response's report must encode to exactly
//     the same bytes as the in-process response for the same trace entry
//     (the wire protocol must not perturb results);
//   - telemetry reconciliation: after the run the server's wire counters
//     must balance (accepted == completed + failed + in_flight) and agree
//     with the trace size.
//
// Usage: bench_net_throughput [--requests=200] [--distinct=32] [--tight=0.1]
//                             [--devices=1] [--trials=5] [--check]
//                             [--out=BENCH_net_throughput.json]
//
// Each side runs --trials times (fresh service/server per trial, so cache
// state is identical) and the best time is kept — scheduler noise on a
// small box would otherwise dominate a single-shot ratio. Every loopback
// trial is bit-identity-checked and telemetry-reconciled in full.
//
// --check additionally fails (exit 1) when loopback throughput drops below
// 0.8x of in-process — the acceptance floor for the socket front-end.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "net/net.hpp"
#include "serve/serve.hpp"
#include "zc/zc.hpp"

namespace {

namespace serve = cuzc::serve;
namespace net = cuzc::net;
namespace zc = cuzc::zc;

double now_seconds() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

}  // namespace

int main(int argc, char** argv) {
    serve::TraceGenConfig gen;
    std::size_t devices = 1;
    std::size_t trials = 5;
    bool check = false;
    std::string out_path = "BENCH_net_throughput.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--requests=", 11) == 0) {
            gen.requests = static_cast<std::size_t>(std::atoll(argv[i] + 11));
        } else if (std::strncmp(argv[i], "--distinct=", 11) == 0) {
            gen.distinct = static_cast<std::size_t>(std::atoll(argv[i] + 11));
        } else if (std::strncmp(argv[i], "--tight=", 8) == 0) {
            gen.tight_deadline_fraction = std::atof(argv[i] + 8);
        } else if (std::strncmp(argv[i], "--devices=", 10) == 0) {
            devices = static_cast<std::size_t>(std::atoll(argv[i] + 10));
        } else if (std::strncmp(argv[i], "--trials=", 9) == 0) {
            trials = static_cast<std::size_t>(std::atoll(argv[i] + 9));
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
            out_path = argv[i] + 6;
        } else {
            std::fprintf(stderr, "bench_net_throughput: unknown argument '%s'\n", argv[i]);
            return 2;
        }
    }
    if (gen.requests == 0 || devices == 0 || trials == 0) {
        std::fprintf(stderr,
                     "bench_net_throughput: --requests, --devices, --trials must be >= 1\n");
        return 2;
    }

    const auto trace = serve::generate_trace(gen);

    // Materialize every request up front; neither run pays field synthesis.
    std::vector<serve::AssessRequest> requests;
    requests.reserve(trace.size());
    for (const auto& e : trace) requests.push_back(serve::to_request(e));

    serve::ServiceConfig scfg;
    scfg.devices = devices;

    // In-process ceiling: straight through the service, all queued at once.
    // Fresh service per trial (identical cache state); the first trial
    // records the reference report bytes.
    std::vector<std::vector<std::uint8_t>> direct_reports;
    direct_reports.reserve(trace.size());
    double inproc_seconds = 0;
    auto run_inproc = [&](std::size_t trial) {
        serve::AssessService service(scfg);
        std::vector<std::future<serve::AssessResponse>> futures;
        futures.reserve(trace.size());
        const double t0 = now_seconds();
        for (const auto& req : requests) futures.push_back(service.submit(req));
        for (std::size_t i = 0; i < futures.size(); ++i) {
            std::vector<std::uint8_t> bytes = net::encode_report(futures[i].get().result.report);
            if (trial == 0) direct_reports.push_back(std::move(bytes));
        }
        const double dt = now_seconds() - t0;
        if (trial == 0 || dt < inproc_seconds) inproc_seconds = dt;
    };

    // Loopback run: same trace over the wire, pipelined to the server's
    // advertised window. Every trial is fully checked; the best time wins.
    std::size_t identical = 0, divergent = 0;
    double net_seconds = 0;
    std::uint64_t bytes_tx = 0, bytes_rx = 0;
    serve::NetTelemetry tele;
    // Returns false when the trial's gates failed.
    auto run_net = [&](std::size_t trial) -> bool {
        net::NetServerConfig ncfg;
        ncfg.service = scfg;
        // The in-process ceiling queues the whole trace at once; give the
        // server an in-flight window sized for the same admission so the
        // comparison measures wire cost, not window stalls.
        ncfg.max_inflight_per_connection =
            std::max<std::size_t>(ncfg.max_inflight_per_connection, trace.size());
        net::NetServer server(ncfg);
        server.start();

        identical = 0;
        net::NetClientConfig ccfg;
        ccfg.port = server.port();
        net::NetClient client(ccfg);
        const std::size_t window = std::max<std::size_t>(1, client.server_max_inflight());

        std::vector<std::uint64_t> ids;
        ids.reserve(trace.size());
        const double t0 = now_seconds();
        for (const auto& req : requests) {
            while (client.outstanding() >= window) client.pump(0.05);
            ids.push_back(client.submit(req));
        }
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const serve::AssessResponse resp = client.wait(ids[i]);
            if (net::encode_report(resp.result.report) == direct_reports[i]) {
                ++identical;
            } else {
                ++divergent;
                std::fprintf(stderr, "bench_net_throughput: request %zu diverged over the wire\n",
                             i);
            }
        }
        const double dt = now_seconds() - t0;
        const std::uint64_t trial_tx = client.bytes_tx();
        const std::uint64_t trial_rx = client.bytes_rx();
        client.close();
        server.shutdown();

        const serve::NetTelemetry trial_tele = server.telemetry();
        if (trial_tele.requests_accepted != trial_tele.requests_completed +
                                                trial_tele.requests_failed +
                                                trial_tele.requests_in_flight ||
            trial_tele.requests_accepted != trace.size() ||
            trial_tele.connections_accepted !=
                trial_tele.connections_active + trial_tele.connections_closed) {
            std::fprintf(stderr, "bench_net_throughput: wire telemetry does not reconcile\n");
            return false;
        }
        if (trial == 0 || dt < net_seconds) {
            net_seconds = dt;
            bytes_tx = trial_tx;
            bytes_rx = trial_rx;
            tele = trial_tele;
        }
        return true;
    };

    // Interleave the sides so machine-load drift during the run biases the
    // two measurements equally instead of whichever side happens to go last.
    for (std::size_t trial = 0; trial < trials; ++trial) {
        run_inproc(trial);
        if (!run_net(trial)) return 1;
    }
    if (divergent != 0) {
        std::fprintf(stderr, "bench_net_throughput: %zu responses diverged\n", divergent);
        return 1;
    }

    const double inproc_rps = inproc_seconds > 0 ? trace.size() / inproc_seconds : 0;
    const double net_rps = net_seconds > 0 ? trace.size() / net_seconds : 0;
    const double relative = inproc_rps > 0 ? net_rps / inproc_rps : 0;

    std::ostringstream os;
    os << "{\n  \"schema\": \"cuzc-net-throughput-v1\",\n"
       << "  \"requests\": " << trace.size() << ",\n"
       << "  \"distinct\": " << gen.distinct << ",\n"
       << "  \"devices\": " << devices << ",\n"
       << "  \"trials\": " << trials << ",\n"
       << "  \"identical\": " << identical << ",\n"
       << "  \"inproc_seconds\": " << inproc_seconds << ",\n"
       << "  \"net_seconds\": " << net_seconds << ",\n"
       << "  \"inproc_rps\": " << inproc_rps << ",\n"
       << "  \"net_rps\": " << net_rps << ",\n"
       << "  \"relative_throughput\": " << relative << ",\n"
       << "  \"wire_bytes_tx\": " << bytes_tx << ",\n"
       << "  \"wire_bytes_rx\": " << bytes_rx << ",\n"
       << "  \"telemetry\": ";
    tele.write_json(os, 2);
    os << "\n}\n";

    std::fputs(os.str().c_str(), stdout);
    if (!out_path.empty()) {
        std::ofstream f(out_path);
        f << os.str();
        if (!f) {
            std::fprintf(stderr, "bench_net_throughput: cannot write '%s'\n", out_path.c_str());
            return 1;
        }
    }
    std::fprintf(stderr,
                 "bench_net_throughput: in-process %.3fs (%.0f rps), loopback %.3fs (%.0f rps), "
                 "relative %.2fx, %zu/%zu bit-identical\n",
                 inproc_seconds, inproc_rps, net_seconds, net_rps, relative, identical,
                 trace.size());
    if (check && relative < 0.8) {
        std::fprintf(stderr, "bench_net_throughput: FAIL relative throughput %.2fx < 0.8x\n",
                     relative);
        return 1;
    }
    return 0;
}

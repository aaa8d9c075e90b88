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
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

namespace bench = cuzc::bench;
namespace serve = cuzc::serve;
namespace net = cuzc::net;

}  // namespace

int main(int argc, char** argv) {
    serve::TraceGenConfig gen;
    std::size_t devices = 1;
    std::size_t trials = 5;
    bool check = false;
    std::string out_path = "BENCH_net_throughput.json";
    cuzc::io::Flags("bench_net_throughput")
        .num("--requests", gen.requests, std::size_t{1})
        .num("--distinct", gen.distinct, std::size_t{1})
        .num("--tight", gen.tight_deadline_fraction, 0.0)
        .num("--devices", devices, std::size_t{1})
        .num("--trials", trials, std::size_t{1})
        .flag("--check", check)
        .text("--out", out_path)
        .parse_or_exit(argc, argv);

    // Materialize every request up front; neither run pays field synthesis.
    std::vector<serve::AssessRequest> requests;
    for (const auto& e : serve::generate_trace(gen)) requests.push_back(serve::to_request(e));
    const std::size_t n = requests.size();

    serve::ServiceConfig scfg;
    scfg.devices = devices;
    net::NetServerConfig ncfg;
    ncfg.service = scfg;
    // The in-process ceiling queues the whole trace at once; give the
    // server an in-flight window sized for the same admission so the
    // comparison measures wire cost, not window stalls.
    ncfg.max_inflight_per_connection = std::max(ncfg.max_inflight_per_connection, n);

    // Each trial runs a fresh service and a fresh server (identical cache
    // state) and keeps the best time per side. The sides interleave so
    // machine-load drift biases both measurements equally instead of
    // whichever side happens to go last. The first in-process trial
    // records the reference reports; every loopback trial is checked
    // against them in full.
    std::vector<serve::AssessResponse> direct;
    double inproc_seconds = 0, net_seconds = 0;
    std::size_t identical = 0, divergent = 0, reconciled = 0;
    std::uint64_t bytes_tx = 0, bytes_rx = 0;
    serve::NetTelemetry tele;
    for (std::size_t trial = 0; trial < trials; ++trial) {
        {
            serve::AssessService service(scfg);
            bench::Replay run = bench::replay(service, requests);
            if (trial == 0) direct = std::move(run.responses);
            if (trial == 0 || run.seconds < inproc_seconds) inproc_seconds = run.seconds;
        }

        bench::Loopback lb(ncfg);
        const bench::Replay run =
            bench::replay(lb.client(), requests, lb.client().server_max_inflight());
        const std::uint64_t trial_tx = lb.client().bytes_tx();
        const std::uint64_t trial_rx = lb.client().bytes_rx();
        const serve::NetTelemetry trial_tele = lb.close();

        identical = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (bench::reports_identical(run.responses[i].result.report,
                                         direct[i].result.report)) {
                ++identical;
            } else {
                ++divergent;
                std::fprintf(stderr, "bench_net_throughput: request %zu diverged over the wire\n",
                             i);
            }
        }
        if (trial_tele.reconciles() && trial_tele.requests_accepted == n) {
            ++reconciled;
        } else {
            std::fprintf(stderr, "bench_net_throughput: wire telemetry does not reconcile\n");
        }
        if (trial == 0 || run.seconds < net_seconds) {
            net_seconds = run.seconds;
            bytes_tx = trial_tx;
            bytes_rx = trial_rx;
            tele = trial_tele;
        }
    }

    const double inproc_rps = inproc_seconds > 0 ? static_cast<double>(n) / inproc_seconds : 0;
    const double net_rps = net_seconds > 0 ? static_cast<double>(n) / net_seconds : 0;
    const double relative = inproc_rps > 0 ? net_rps / inproc_rps : 0;
    bench::Record rec("bench_net_throughput");
    rec.set("requests", n)
        .set("distinct", gen.distinct)
        .set("devices", devices)
        .set("trials", trials)
        .set("identical", identical)
        .set("inproc_seconds", inproc_seconds)
        .set("net_seconds", net_seconds)
        .set("inproc_rps", inproc_rps)
        .set("net_rps", net_rps)
        .set("relative_throughput", relative)
        .set("wire_bytes_tx", bytes_tx)
        .set("wire_bytes_rx", bytes_rx)
        .set("telemetry", tele.json());
    rec.check("diverged_over_the_wire", divergent, bench::Op::kEqual, 0);
    rec.check("trials_reconciled", reconciled, bench::Op::kEqual, trials);
    rec.check("relative_throughput", relative, bench::Op::kAtLeast, 0.8, check);
    std::fprintf(stderr,
                 "bench_net_throughput: in-process %.3fs (%.0f rps), loopback %.3fs (%.0f rps), "
                 "relative %.2fx, %zu/%zu bit-identical\n",
                 inproc_seconds, inproc_rps, net_seconds, net_rps, relative, identical, n);
    return rec.finish(out_path);
}

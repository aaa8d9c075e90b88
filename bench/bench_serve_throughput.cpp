// Throughput of the cuzc::serve assessment service against a naive
// one-request-at-a-time client on the same mixed workload trace.
//
// The naive baseline is what an in-situ consumer without the service would
// write: one `cuzc::assess` call per request, paying fresh device buffers
// and full kernels every time. The service run replays the identical trace
// through `AssessService` with request coalescing and the content-addressed
// result cache enabled. Both runs see pre-materialized fields, so the
// measured interval is pure assessment work.
//
// Every non-degraded service response is cross-checked against the naive
// result for the same trace entry (every report byte — same kernels, same
// order), so the speedup is never bought with wrong answers.
//
// Usage: bench_serve_throughput [--requests=200] [--distinct=32]
//                               [--tight=0.1] [--devices=1] [--faults=SPEC]
//                               [--out=BENCH_serve_throughput.json]
//
// Writes a cuzc-bench-v1 record (stdout, and --out=PATH) with
// naive_seconds, serve_seconds, speedup, and the full service telemetry
// block.
//
// Fault mode (--faults=SPEC, or the CUZC_FAULTS environment variable):
// the service run injects deterministic device faults. Rejections are then
// tolerated (the containment contract is that every future still resolves),
// a response that observed an injection is exempt from the equality check
// (an injected upload corruption is *supposed* to perturb that result), and
// every fault-free response must still match the naive run bit for bit.
// The telemetry reconciliation gate below holds in both modes.

#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

namespace bench = cuzc::bench;
namespace serve = cuzc::serve;
namespace zc = cuzc::zc;
namespace vgpu = cuzc::vgpu;

}  // namespace

int main(int argc, char** argv) {
    serve::TraceGenConfig gen;
    std::size_t devices = 1;
    std::string out_path = "BENCH_serve_throughput.json";
    std::string faults_spec;
    cuzc::io::Flags("bench_serve_throughput")
        .num("--requests", gen.requests, std::size_t{1})
        .num("--distinct", gen.distinct, std::size_t{1})
        .num("--tight", gen.tight_deadline_fraction, 0.0)
        .num("--devices", devices, std::size_t{1})
        .text("--out", out_path)
        .text("--faults", faults_spec)
        .parse_or_exit(argc, argv);

    // Materialize everything up front; neither run pays for field synthesis.
    std::vector<serve::AssessRequest> reqs;
    for (const auto& e : serve::generate_trace(gen)) reqs.push_back(serve::to_request(e));

    // Naive baseline: one assess per request, no reuse of any kind.
    std::vector<zc::AssessmentReport> naive_reports;
    naive_reports.reserve(reqs.size());
    const zc::Stopwatch naive_watch;
    {
        vgpu::Device dev;
        for (const auto& req : reqs) {
            naive_reports.push_back(
                ::cuzc::cuzc::assess(dev, req.orig.view(), req.dec.view(), req.cfg).report);
        }
    }
    const double naive_seconds = naive_watch.seconds();

    // Service run: batching + caching on, same trace.
    serve::ServiceConfig scfg;
    scfg.devices = devices;
    try {
        scfg.faults = faults_spec.empty() ? vgpu::FaultPlan::from_env()
                                          : vgpu::FaultPlan::parse(faults_spec);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_serve_throughput: %s\n", e.what());
        return 2;
    }
    const bool fault_mode = scfg.faults.enabled();
    serve::AssessService service(scfg);
    const bench::Replay run = bench::replay(service, reqs);

    // Correctness gate: non-degraded, fault-free responses must match the
    // naive run exactly. Under injection, rejections are tolerated and a
    // response that observed a fault is exempt (a corrupted upload is meant
    // to perturb that result) — everything else still has to be identical.
    std::size_t checked = 0, diverged = 0, degraded = 0, rejected = 0, faulted = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const auto& resp = run.responses[i];
        if (resp.rejected) {
            ++rejected;
            if (!fault_mode) {
                std::fprintf(stderr, "bench_serve_throughput: request %zu rejected: %s\n", i,
                             resp.error.c_str());
            }
        } else if (resp.degraded) {
            ++degraded;
        } else if (resp.faults > 0) {
            ++faulted;
        } else if (bench::reports_identical(resp.result.report, naive_reports[i])) {
            ++checked;
        } else {
            ++diverged;
            std::fprintf(stderr,
                         "bench_serve_throughput: request %zu diverged from direct assess\n", i);
        }
    }

    const serve::ServiceTelemetry tele = service.telemetry();
    const double speedup = run.seconds > 0 ? naive_seconds / run.seconds : 0;
    bench::Record rec("bench_serve_throughput");
    rec.set("requests", reqs.size())
        .set("distinct", gen.distinct)
        .set("devices", devices)
        .set("tight_deadline_fraction", gen.tight_deadline_fraction)
        .set("checked_against_direct", checked)
        .set("degraded", degraded)
        .set("rejected", rejected)
        .set("faulted", faulted)
        .set("naive_seconds", naive_seconds)
        .set("serve_seconds", run.seconds)
        .set("speedup", speedup)
        .set("telemetry", tele.json());
    rec.check("diverged_from_direct", diverged, bench::Op::kEqual, 0);
    rec.check("rejected", rejected, bench::Op::kEqual, 0, !fault_mode);
    // Reconciliation gate: after every future resolved, the counters must
    // balance exactly — fault mode included.
    rec.check("telemetry_reconciles", tele.reconciles(), bench::Op::kEqual, 1);
    std::fprintf(stderr, "bench_serve_throughput: naive %.3fs, serve %.3fs, speedup %.2fx\n",
                 naive_seconds, run.seconds, speedup);
    return rec.finish(out_path);
}

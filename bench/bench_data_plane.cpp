// The zero-copy data plane's copy ledger over a loopback serve run.
//
// The trace replays through a fresh `NetServer` on 127.0.0.1, one request
// at a time (each sent after the previous response arrived, so every frame
// lands at the assembler's aligned parking offset and the decode can
// alias). Socket decode should alias each payload in place and
// `DeviceBuffer::adopt` should alias it again at upload: zero payload
// copies end to end, and two device adoptions (orig and dec) for every
// request the result cache does not answer.
//
// Gates:
//   - bit-identity: every response's report must encode to exactly the
//     bytes the in-process service produces for the same trace entry
//     (aliasing must not perturb results);
//   - copies (with --check): the ledger shows 0 payload bytes copied and
//     exactly 2 adoptions per cache miss. One copy at decode or at upload,
//     on any request, fails the run.
//
// Usage: bench_data_plane [--requests=32] [--devices=1] [--trials=3]
//                         [--check] [--out=BENCH_data_plane.json]
//
// The trace uses distinct == requests (cache hits only where the trace
// generator's combo hash collides) and no tight deadlines (nothing sheds).
// Counters are taken from the first trial — they are deterministic under
// serial submission — and the best wall time across trials is kept.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

namespace bench = cuzc::bench;
namespace serve = cuzc::serve;
namespace net = cuzc::net;
namespace zc = cuzc::zc;

}  // namespace

int main(int argc, char** argv) {
    std::size_t requests = 32;
    std::size_t devices = 1;
    std::size_t trials = 3;
    bool check = false;
    std::string out_path = "BENCH_data_plane.json";
    cuzc::io::Flags("bench_data_plane")
        .num("--requests", requests, std::size_t{1})
        .num("--devices", devices, std::size_t{1})
        .num("--trials", trials, std::size_t{1})
        .flag("--check", check)
        .text("--out", out_path)
        .parse_or_exit(argc, argv);

    serve::TraceGenConfig gen;
    gen.requests = requests;
    gen.distinct = requests;          // cache hits only on combo-hash collisions
    gen.tight_deadline_fraction = 0;  // nothing sheds
    std::vector<serve::AssessRequest> reqs;
    std::uint64_t payload_bytes = 0;  // orig + dec, summed over the trace
    for (const auto& e : serve::generate_trace(gen)) {
        reqs.push_back(serve::to_request(e));
        payload_bytes += 2ull * reqs.back().orig.size() * sizeof(float);
    }
    const std::size_t n = reqs.size();

    net::NetServerConfig ncfg;
    ncfg.service.devices = devices;

    std::vector<serve::AssessResponse> direct;
    {
        serve::AssessService service(ncfg.service);
        direct = bench::replay(service, reqs).responses;
    }

    // Fresh server per trial; the counters are reset first so only this
    // trial's traffic lands in the ledger.
    zc::DataPlaneStats stats;
    serve::ServiceTelemetry service_tele;
    std::size_t identical = 0, reconciled = 0;
    double seconds = 0;
    for (std::size_t trial = 0; trial < trials; ++trial) {
        zc::reset_data_plane_stats();
        bench::Loopback lb(ncfg);
        const bench::Replay run = bench::replay(lb.client(), reqs, 1);
        const serve::NetTelemetry tele = lb.close();
        if (tele.requests_accepted == n && tele.requests_completed == n) {
            ++reconciled;
        } else {
            std::fprintf(stderr,
                         "bench_data_plane: wire telemetry does not reconcile "
                         "(accepted %llu, completed %llu, expected %zu)\n",
                         static_cast<unsigned long long>(tele.requests_accepted),
                         static_cast<unsigned long long>(tele.requests_completed), n);
        }
        if (trial == 0) {
            stats = zc::data_plane_stats();
            service_tele = lb.server().service_telemetry();
            for (std::size_t i = 0; i < n; ++i) {
                if (bench::reports_identical(run.responses[i].result.report,
                                             direct[i].result.report)) {
                    ++identical;
                } else {
                    std::fprintf(stderr,
                                 "bench_data_plane: request %zu diverged from in-process\n", i);
                }
            }
        }
        seconds = trial == 0 ? run.seconds : std::min(seconds, run.seconds);
    }

    const double per_req = static_cast<double>(stats.bytes_copied) / static_cast<double>(n);
    bench::Record rec("bench_data_plane");
    rec.set("requests", n)
        .set("devices", devices)
        .set("trials", trials)
        .set("identical", identical)
        .set("payload_bytes", payload_bytes)
        .set("cache_misses", service_tele.cache_misses)
        .set("zero_copy", cuzc::io::Json::Object{{"bytes_copied", stats.bytes_copied},
                                                 {"bytes_copied_per_request", per_req},
                                                 {"adoptions", stats.adoptions},
                                                 {"slab_reuses", stats.slab_reuses},
                                                 {"seconds", seconds}});
    rec.check("identical_to_inprocess", identical, bench::Op::kEqual, n);
    rec.check("trials_reconciled", reconciled, bench::Op::kEqual, trials);
    rec.check("bytes_copied", stats.bytes_copied, bench::Op::kEqual, 0, check);
    rec.check("adoptions", stats.adoptions, bench::Op::kEqual, 2 * service_tele.cache_misses,
              check);
    std::fprintf(stderr,
                 "bench_data_plane: %.0fB/req copied, %llu adoptions for %llu cache misses, "
                 "%zu/%zu bit-identical\n",
                 per_req, static_cast<unsigned long long>(stats.adoptions),
                 static_cast<unsigned long long>(service_tele.cache_misses), identical, n);
    return rec.finish(out_path);
}

// Streaming assessment sessions (cuzc-wire-v2) over loopback: correctness
// gate plus streamed-versus-whole-frame throughput.
//
// The correctness trial runs against a server whose max_frame_payload is
// deliberately smaller than one field, so the whole-frame path physically
// cannot carry the dataset — only a streaming session can. Its gates:
//   - every reduction moment of the streamed report is bit-identical to the
//     serial in-process batch computation (zc::reduction_metrics);
//   - the final PDF ranges are exact, PDF mass is conserved, and entropy is
//     within the documented chunk-rebinning tolerance;
//   - the server's wire telemetry reconciles (accepted == completed +
//     failed + in_flight, streams_opened == sessions run, no aborts).
//
// The throughput phase then serves the same dataset both ways on a
// default-limit server — whole-frame kRequest round trips versus streaming
// sessions of --chunk elements — and reports both rates. Streaming pays a
// per-chunk framing + checksum + feed cost, so it is expected to trail the
// single-frame path on datasets that fit in one frame; --check enforces a
// 0.4x floor so a regression that makes chunking pathological fails loudly.
//
// Usage: bench_net_streaming [--dims=40x40x40] [--chunk=8192] [--trials=3]
//                            [--repeat=4] [--check]
//                            [--out=BENCH_net_streaming.json]
//
// Writes a cuzc-bench-v1 record (stdout, and --out=PATH).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

namespace bench = cuzc::bench;
namespace serve = cuzc::serve;
namespace net = cuzc::net;
namespace zc = cuzc::zc;

zc::MetricsConfig reduction_cfg() {
    zc::MetricsConfig cfg;
    cfg.pattern2 = false;
    cfg.pattern3 = false;
    return cfg;
}

}  // namespace

int main(int argc, char** argv) {
    zc::Dims3 dims{40, 40, 40};
    std::size_t chunk = 8192;
    std::size_t trials = 3;
    std::size_t repeat = 4;  // sessions / requests per timed trial
    bool check = false;
    std::string out_path = "BENCH_net_streaming.json";
    cuzc::io::Flags("bench_net_streaming")
        .dims("--dims", dims)
        .num("--chunk", chunk, std::size_t{1})
        .num("--trials", trials, std::size_t{1})
        .num("--repeat", repeat, std::size_t{1})
        .flag("--check", check)
        .text("--out", out_path)
        .parse_or_exit(argc, argv);
    if (chunk > dims.volume()) {
        std::fprintf(stderr, "bench_net_streaming: --chunk must be in [1, volume]\n");
        return 2;
    }

    serve::TraceEntry entry;  // a smooth field and a perturbed copy
    entry.dims = dims;
    const auto [orig, dec] = serve::materialize(entry);
    const auto mcfg = reduction_cfg();
    const zc::ReductionReport ref = zc::reduction_metrics(orig.view(), dec.view(), mcfg);
    const std::size_t field_bytes = dims.volume() * sizeof(float);

    bench::Record rec("bench_net_streaming");

    // --- Correctness gate: dataset strictly larger than one frame --------
    {
        net::NetServerConfig ncfg;
        ncfg.max_frame_payload = std::max<std::size_t>(64 * 1024, field_bytes / 2);
        bench::Loopback lb(ncfg);
        const auto resp = lb.client().stream_assess(dims, orig.data(), dec.data(), mcfg, chunk);
        const serve::NetTelemetry tele = lb.close();
        if (resp.rejected) {
            std::fprintf(stderr, "bench_net_streaming: streamed session rejected: %s\n",
                         resp.error.c_str());
        }
        const auto& got = resp.result.report.reduction;
        const bool moments_identical =
            !resp.rejected && got.min_err == ref.min_err && got.max_err == ref.max_err &&
            got.avg_err == ref.avg_err && got.avg_abs_err == ref.avg_abs_err &&
            got.max_abs_err == ref.max_abs_err && got.min_pwr_err == ref.min_pwr_err &&
            got.max_pwr_err == ref.max_pwr_err && got.avg_pwr_err == ref.avg_pwr_err &&
            got.mse == ref.mse && got.rmse == ref.rmse && got.nrmse == ref.nrmse &&
            got.snr_db == ref.snr_db && got.psnr_db == ref.psnr_db &&
            got.pearson_r == ref.pearson_r && got.min_val == ref.min_val &&
            got.max_val == ref.max_val && got.mean_val == ref.mean_val &&
            got.std_val == ref.std_val;
        double mass = 0, l1 = 0;
        for (std::size_t b = 0; b < got.err_pdf.size(); ++b) {
            mass += got.err_pdf[b];
            l1 += std::fabs(got.err_pdf[b] -
                            (b < ref.err_pdf.size() ? ref.err_pdf[b] : 0.0));
        }
        const bool pdf_range_exact = got.err_pdf.size() == ref.err_pdf.size() &&
                                     got.err_pdf_min == ref.err_pdf_min &&
                                     got.err_pdf_max == ref.err_pdf_max;
        rec.set("moments_bit_identical", moments_identical);
        rec.check("moments_identical_to_batch", moments_identical, bench::Op::kEqual, 1);
        // The PDFs agree within the documented chunk-rebinning tolerance.
        rec.check("pdf_range_exact", pdf_range_exact, bench::Op::kEqual, 1);
        rec.check("pdf_mass_error", std::fabs(mass - 1.0), bench::Op::kAtMost, 1e-9);
        rec.check("entropy_error", std::fabs(got.entropy - ref.entropy), bench::Op::kAtMost,
                  0.05 * std::max(std::fabs(ref.entropy), 1.0));
        rec.check("pdf_l1", l1, bench::Op::kAtMost, 0.5);
        const bool reconciles = tele.streams_opened == 1 && tele.streams_aborted == 0 &&
                                tele.reconciles() && tele.requests_in_flight == 0;
        rec.check("stream_telemetry_reconciles", reconciles, bench::Op::kEqual, 1);
    }

    // --- Throughput: whole-frame versus streamed, default limits ---------
    serve::AssessRequest whole;
    whole.orig = orig;
    whole.dec = dec;
    whole.cfg = mcfg;

    double frame_seconds = 0, stream_seconds = 0;
    std::uint64_t stream_chunks = 0, stream_bytes = 0;
    std::size_t rejected = 0;
    for (std::size_t trial = 0; trial < trials; ++trial) {
        bench::Loopback lb;
        const zc::Stopwatch frame_watch;
        for (std::size_t r = 0; r < repeat; ++r) {
            rejected += lb.client().assess(whole).rejected ? 1 : 0;
        }
        const double t_frame = frame_watch.seconds();
        const zc::Stopwatch stream_watch;
        for (std::size_t r = 0; r < repeat; ++r) {
            const auto resp =
                lb.client().stream_assess(dims, orig.data(), dec.data(), mcfg, chunk);
            rejected += resp.rejected ? 1 : 0;
        }
        const double t_stream = stream_watch.seconds();
        const serve::NetTelemetry tele = lb.close();
        if (trial == 0 || t_frame < frame_seconds) frame_seconds = t_frame;
        if (trial == 0 || t_stream < stream_seconds) {
            stream_seconds = t_stream;
            stream_chunks = tele.stream_chunks;
            stream_bytes = tele.stream_bytes;
        }
    }

    const double data_mb =
        static_cast<double>(2 * field_bytes * repeat) / (1024.0 * 1024.0);
    const double frame_mbps = frame_seconds > 0 ? data_mb / frame_seconds : 0;
    const double stream_mbps = stream_seconds > 0 ? data_mb / stream_seconds : 0;
    const double relative = frame_mbps > 0 ? stream_mbps / frame_mbps : 0;

    rec.set("dims", std::to_string(dims.h) + "x" + std::to_string(dims.w) + "x" +
                        std::to_string(dims.l))
        .set("chunk_elements", chunk)
        .set("trials", trials)
        .set("repeat", repeat)
        .set("whole_frame_seconds", frame_seconds)
        .set("streamed_seconds", stream_seconds)
        .set("whole_frame_mbps", frame_mbps)
        .set("streamed_mbps", stream_mbps)
        .set("relative_throughput", relative)
        .set("stream_chunks", stream_chunks)
        .set("stream_bytes", stream_bytes);
    rec.check("rejected", rejected, bench::Op::kEqual, 0);
    rec.check("relative_throughput", relative, bench::Op::kAtLeast, 0.4, check);
    std::fprintf(stderr,
                 "bench_net_streaming: whole-frame %.3fs (%.1f MB/s), streamed %.3fs "
                 "(%.1f MB/s), relative %.2fx\n",
                 frame_seconds, frame_mbps, stream_seconds, stream_mbps, relative);
    return rec.finish(out_path);
}

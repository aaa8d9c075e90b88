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

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
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

bool parse_dims(const char* s, zc::Dims3& dims) {
    unsigned long long h = 0, w = 0, l = 0;
    if (std::sscanf(s, "%llux%llux%llu", &h, &w, &l) != 3 || h == 0 || w == 0 || l == 0) {
        return false;
    }
    dims = zc::Dims3{static_cast<std::size_t>(h), static_cast<std::size_t>(w),
                     static_cast<std::size_t>(l)};
    return true;
}

/// Smooth structured field plus a perturbed copy (same recipe as the test
/// helpers: superposed waves, deterministic hash noise).
void make_dataset(const zc::Dims3& dims, zc::Field& orig, zc::Field& dec) {
    orig = zc::Field(dims);
    dec = zc::Field(dims);
    std::size_t i = 0;
    for (std::size_t x = 0; x < dims.h; ++x) {
        for (std::size_t y = 0; y < dims.w; ++y) {
            for (std::size_t z = 0; z < dims.l; ++z, ++i) {
                const double v = std::sin(0.11 * static_cast<double>(x)) +
                                 std::cos(0.07 * static_cast<double>(y)) *
                                     std::sin(0.05 * static_cast<double>(z));
                orig.data()[i] = static_cast<float>(v);
                std::uint64_t r = (i + 1) * 0x9E3779B97F4A7C15ull;
                r ^= r >> 29;
                r *= 0xBF58476D1CE4E5B9ull;
                r ^= r >> 32;
                const double e =
                    (static_cast<double>(r >> 11) * 0x1.0p-53 * 2.0 - 1.0) * 0.01;
                dec.data()[i] = static_cast<float>(v + e);
            }
        }
    }
}

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
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--dims=", 7) == 0) {
            if (!parse_dims(argv[i] + 7, dims)) {
                std::fprintf(stderr, "bench_net_streaming: bad --dims '%s'\n", argv[i] + 7);
                return 2;
            }
        } else if (std::strncmp(argv[i], "--chunk=", 8) == 0) {
            chunk = static_cast<std::size_t>(std::atoll(argv[i] + 8));
        } else if (std::strncmp(argv[i], "--trials=", 9) == 0) {
            trials = static_cast<std::size_t>(std::atoll(argv[i] + 9));
        } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
            repeat = static_cast<std::size_t>(std::atoll(argv[i] + 9));
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
            out_path = argv[i] + 6;
        } else {
            std::fprintf(stderr, "bench_net_streaming: unknown argument '%s'\n", argv[i]);
            return 2;
        }
    }
    if (chunk == 0 || trials == 0 || repeat == 0 || chunk > dims.volume()) {
        std::fprintf(stderr,
                     "bench_net_streaming: --chunk must be in [1, volume], "
                     "--trials/--repeat >= 1\n");
        return 2;
    }

    zc::Field orig, dec;
    make_dataset(dims, orig, dec);
    const auto mcfg = reduction_cfg();
    const zc::ReductionReport ref = zc::reduction_metrics(orig.view(), dec.view(), mcfg);
    const std::size_t field_bytes = dims.volume() * sizeof(float);

    // --- Correctness gate: dataset strictly larger than one frame --------
    {
        net::NetServerConfig ncfg;
        ncfg.max_frame_payload = std::max<std::size_t>(64 * 1024, field_bytes / 2);
        net::NetServer server(ncfg);
        server.start();
        net::NetClientConfig ccfg;
        ccfg.port = server.port();
        net::NetClient client(ccfg);

        const auto resp = client.stream_assess(dims, orig.data(), dec.data(), mcfg, chunk);
        if (resp.rejected) {
            std::fprintf(stderr, "bench_net_streaming: streamed session rejected: %s\n",
                         resp.error.c_str());
            return 1;
        }
        const auto& got = resp.result.report.reduction;
        const bool moments_identical =
            got.min_err == ref.min_err && got.max_err == ref.max_err &&
            got.avg_err == ref.avg_err && got.avg_abs_err == ref.avg_abs_err &&
            got.max_abs_err == ref.max_abs_err && got.min_pwr_err == ref.min_pwr_err &&
            got.max_pwr_err == ref.max_pwr_err && got.avg_pwr_err == ref.avg_pwr_err &&
            got.mse == ref.mse && got.rmse == ref.rmse && got.nrmse == ref.nrmse &&
            got.snr_db == ref.snr_db && got.psnr_db == ref.psnr_db &&
            got.pearson_r == ref.pearson_r && got.min_val == ref.min_val &&
            got.max_val == ref.max_val && got.mean_val == ref.mean_val &&
            got.std_val == ref.std_val;
        if (!moments_identical) {
            std::fprintf(stderr,
                         "bench_net_streaming: FAIL streamed moments diverge from batch\n");
            return 1;
        }
        double mass = 0, l1 = 0;
        for (std::size_t b = 0; b < got.err_pdf.size(); ++b) {
            mass += got.err_pdf[b];
            l1 += std::fabs(got.err_pdf[b] -
                            (b < ref.err_pdf.size() ? ref.err_pdf[b] : 0.0));
        }
        const double entropy_tol = 0.05 * std::max(std::fabs(ref.entropy), 1.0);
        if (got.err_pdf.size() != ref.err_pdf.size() ||
            got.err_pdf_min != ref.err_pdf_min || got.err_pdf_max != ref.err_pdf_max ||
            std::fabs(mass - 1.0) > 1e-9 ||
            std::fabs(got.entropy - ref.entropy) > entropy_tol || l1 > 0.5) {
            std::fprintf(stderr,
                         "bench_net_streaming: FAIL streamed PDF outside rebin tolerance "
                         "(mass %.12f, entropy %.6f vs %.6f, L1 %.6f)\n",
                         mass, got.entropy, ref.entropy, l1);
            return 1;
        }
        client.close();
        server.shutdown();
        const auto tele = server.telemetry();
        if (tele.streams_opened != 1 || tele.streams_aborted != 0 ||
            tele.requests_accepted !=
                tele.requests_completed + tele.requests_failed + tele.requests_in_flight ||
            tele.requests_in_flight != 0) {
            std::fprintf(stderr, "bench_net_streaming: FAIL stream telemetry does not "
                                 "reconcile\n");
            return 1;
        }
    }

    // --- Throughput: whole-frame versus streamed, default limits ---------
    serve::AssessRequest whole;
    whole.orig = orig;
    whole.dec = dec;
    whole.cfg = mcfg;

    double frame_seconds = 0, stream_seconds = 0;
    std::uint64_t stream_chunks = 0, stream_bytes = 0;
    for (std::size_t trial = 0; trial < trials; ++trial) {
        net::NetServerConfig ncfg;
        net::NetServer server(ncfg);
        server.start();
        net::NetClientConfig ccfg;
        ccfg.port = server.port();
        net::NetClient client(ccfg);

        const double t0 = now_seconds();
        for (std::size_t r = 0; r < repeat; ++r) {
            const auto resp = client.assess(whole);
            if (resp.rejected) {
                std::fprintf(stderr, "bench_net_streaming: whole-frame rejected: %s\n",
                             resp.error.c_str());
                return 1;
            }
        }
        const double t1 = now_seconds();
        for (std::size_t r = 0; r < repeat; ++r) {
            const auto resp =
                client.stream_assess(dims, orig.data(), dec.data(), mcfg, chunk);
            if (resp.rejected) {
                std::fprintf(stderr, "bench_net_streaming: streamed rejected: %s\n",
                             resp.error.c_str());
                return 1;
            }
        }
        const double t2 = now_seconds();
        client.close();
        server.shutdown();
        const auto tele = server.telemetry();
        if (trial == 0 || t1 - t0 < frame_seconds) frame_seconds = t1 - t0;
        if (trial == 0 || t2 - t1 < stream_seconds) {
            stream_seconds = t2 - t1;
            stream_chunks = tele.stream_chunks;
            stream_bytes = tele.stream_bytes;
        }
    }

    const double data_mb =
        static_cast<double>(2 * field_bytes * repeat) / (1024.0 * 1024.0);
    const double frame_mbps = frame_seconds > 0 ? data_mb / frame_seconds : 0;
    const double stream_mbps = stream_seconds > 0 ? data_mb / stream_seconds : 0;
    const double relative = frame_mbps > 0 ? stream_mbps / frame_mbps : 0;

    std::ostringstream os;
    os << "{\n  \"schema\": \"cuzc-net-streaming-v1\",\n"
       << "  \"dims\": \"" << dims.h << "x" << dims.w << "x" << dims.l << "\",\n"
       << "  \"chunk_elements\": " << chunk << ",\n"
       << "  \"trials\": " << trials << ",\n"
       << "  \"repeat\": " << repeat << ",\n"
       << "  \"moments_bit_identical\": true,\n"
       << "  \"whole_frame_seconds\": " << frame_seconds << ",\n"
       << "  \"streamed_seconds\": " << stream_seconds << ",\n"
       << "  \"whole_frame_mbps\": " << frame_mbps << ",\n"
       << "  \"streamed_mbps\": " << stream_mbps << ",\n"
       << "  \"relative_throughput\": " << relative << ",\n"
       << "  \"stream_chunks\": " << stream_chunks << ",\n"
       << "  \"stream_bytes\": " << stream_bytes << "\n}\n";

    std::fputs(os.str().c_str(), stdout);
    if (!out_path.empty()) {
        std::ofstream f(out_path);
        f << os.str();
        if (!f) {
            std::fprintf(stderr, "bench_net_streaming: cannot write '%s'\n",
                         out_path.c_str());
            return 1;
        }
    }
    std::fprintf(stderr,
                 "bench_net_streaming: whole-frame %.3fs (%.1f MB/s), streamed %.3fs "
                 "(%.1f MB/s), relative %.2fx, moments bit-identical\n",
                 frame_seconds, frame_mbps, stream_seconds, stream_mbps, relative);
    if (check && relative < 0.4) {
        std::fprintf(stderr, "bench_net_streaming: FAIL streamed throughput %.2fx < 0.4x\n",
                     relative);
        return 1;
    }
    return 0;
}

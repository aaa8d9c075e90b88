// The traced layer walk: a fixed sample of a workload's requests goes
// in-process through each module's public entry point, in the order a
// served request crosses them, and each call is timed from here. Spans
// inside the program are out of scope; this is the benchmark's own view.

#include <algorithm>
#include <cstring>
#include <map>

#include "cuzc/coordinator.hpp"
#include "serve/cost.hpp"
#include "suite.hpp"
#include "sz/sz_compressor.hpp"
#include "vgpu/cost_model.hpp"

namespace suite {

namespace {

namespace cz = cuzc::cuzc;
namespace vgpu = cuzc::vgpu;

constexpr std::uint64_t kWalkTag = std::uint64_t{0xff} << 56;
constexpr std::size_t kStreamChunksWalked = 16;

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// Per-sample numbers of one pattern kernel.
struct KernelSamples {
    std::vector<double> wall_s, model_s, lane_ops, global_bytes;

    void add(double wall, const vgpu::KernelStats& stats, const vgpu::GpuCostModel& model) {
        wall_s.push_back(wall);
        model_s.push_back(model.kernel_time(stats).total_s);
        lane_ops.push_back(static_cast<double>(stats.lane_ops));
        global_bytes.push_back(static_cast<double>(stats.global_bytes()));
    }
};

/// The little-endian checksum field of a frame header (bytes 20..23).
std::uint32_t header_checksum(const std::vector<std::uint8_t>& frame) {
    std::uint32_t sum = 0;
    for (int b = 3; b >= 0; --b) sum = (sum << 8) | frame[20 + static_cast<std::size_t>(b)];
    return sum;
}

}  // namespace

LayerMetrics walk_layers(const WalkInput& in, std::vector<Span>& spans) {
    const vgpu::GpuCostModel model(vgpu::DeviceProps{}, vgpu::GpuCostParams{});
    vgpu::Device dev;
    std::map<std::string, std::vector<double>> t;
    KernelSamples kernels[3];
    std::vector<std::pair<zc::FieldRef, zc::FieldRef>> assessed;

    std::uint64_t rid = 0;
    std::int64_t root = -1;
    const auto timed = [&](const char* name, auto&& call) {
        const double t0 = now_s();
        call();
        const double dur = now_s() - t0;
        spans.push_back({name, rid, t0, dur, root, kWalkTid, false});
        t[name].push_back(dur);
        return dur;
    };
    const auto open_root = [&](const char* name, std::uint64_t k) {
        rid = kWalkTag | k;
        root = static_cast<std::int64_t>(spans.size());
        spans.push_back({name, rid, now_s(), 0, -1, kWalkTid, false});
    };
    const auto close_root = [&] {
        spans[static_cast<std::size_t>(root)].dur_s =
            now_s() - spans[static_cast<std::size_t>(root)].ts_s;
    };

    for (std::size_t k = 0; k < in.requests.size(); ++k) {
        const serve::AssessRequest& req = in.requests[k];
        open_root("walk.request", k);

        std::vector<std::uint8_t> frame;
        timed("net.encode_request", [&] { frame = net::encode_request_frame(req, k + 1); });
        const std::span<const std::uint8_t> payload =
            std::span<const std::uint8_t>(frame).subspan(net::FrameHeader::kSize);
        std::uint32_t sum = 0;
        timed("net.checksum", [&] { sum = net::frame_checksum(payload); });
        if (sum != header_checksum(frame)) throw GateFailure("walk: frame checksum mismatch");

        // The server receives into the assembler's writable tail; the
        // memcpy stands in for recv() and is not timed.
        net::FrameAssembler assembler(net::NetServerConfig{}.max_frame_payload);
        const std::span<std::uint8_t> room = assembler.writable(frame.size());
        std::memcpy(room.data(), frame.data(), frame.size());
        assembler.commit(frame.size());
        serve::AssessRequest decoded;
        timed("net.decode_request", [&] {
            const net::FrameAssembler::Result res = assembler.next_view();
            if (res.status != net::FrameAssembler::Status::kFrame) {
                throw GateFailure("walk: assembler rejected a well-formed frame");
            }
            decoded = net::decode_request_view(res.view, res.slab);
        });

        // A request without a stream still has its decompressed field
        // round-tripped through SZ (untimed compress, timed decompress), so
        // the decoder is measured on every workload's shapes; only a
        // request that carried a stream assesses the decoded field.
        zc::FieldRef dec = decoded.dec;
        if (!decoded.sz_stream.empty()) {
            timed("sz.decompress", [&] { dec = sz::decompress(decoded.sz_stream); });
        } else {
            const std::vector<std::uint8_t> stream =
                sz::compress(dec.view(), sz_rel_config()).bytes;
            zc::Field roundtrip;
            timed("sz.decompress", [&] { roundtrip = sz::decompress(stream); });
        }
        assessed.emplace_back(decoded.orig, dec);
        const zc::Dims3 dims = decoded.orig.dims();
        zc::MetricsConfig cfg = decoded.cfg;
        if (decoded.deadline_model_s > 0) {
            cfg = serve::plan_degradation(dims, cfg, decoded.deadline_model_s, model).effective;
        }
        serve::CacheKey key;
        timed("serve.cache_key",
              [&] { key = serve::result_cache_key(decoded.orig.view(), dec.view(), cfg); });

        vgpu::DeviceBuffer<float> d_orig(dev, dims.volume());
        vgpu::DeviceBuffer<float> d_dec(dev, dims.volume());
        timed("vgpu.adopt", [&] {
            d_orig.adopt(decoded.orig);
            d_dec.adopt(dec);
        });

        // The coordinator's sequence (cuzc::assess_device), one kernel at a
        // time so each gets its own wall time.
        serve::AssessResponse resp;
        resp.effective_cfg = cfg;
        zc::ErrorMoments moments;
        bool have_moments = false;
        if (cfg.pattern1) {
            cz::Pattern1Result p1;
            const double wall = timed("cuzc.pattern1", [&] {
                p1 = cz::pattern1_fused_device(dev, d_orig, d_dec, dims, cfg);
            });
            kernels[0].add(wall, p1.stats, model);
            resp.result.report.reduction = p1.report;
            moments.mean = p1.report.avg_err;
            moments.var = std::max(0.0, p1.report.mse - p1.report.avg_err * p1.report.avg_err);
            have_moments = true;
        }
        if (cfg.pattern2) {
            cz::Pattern2Result p2;
            vgpu::KernelStats stats;
            const double wall = timed("cuzc.pattern2", [&] {
                if (!have_moments) {
                    moments = cz::error_moments_device(dev, d_orig, d_dec, dims);
                    stats = dev.profiler().records().back();
                }
                p2 = cz::pattern2_fused_device(dev, d_orig, d_dec, dims, cfg, moments);
            });
            if (stats.launches > 0) {
                stats.merge(p2.stats);
            } else {
                stats = p2.stats;
            }
            kernels[1].add(wall, stats, model);
            resp.result.report.stencil = p2.report;
        }
        if (cfg.pattern3) {
            cz::Pattern3Result p3;
            const double wall = timed("cuzc.pattern3", [&] {
                p3 = cz::pattern3_ssim_device(dev, d_orig, d_dec, dims, cfg);
            });
            kernels[2].add(wall, p3.stats, model);
            resp.result.report.ssim = p3.report;
        }
        dev.reset_counters();

        std::vector<std::uint8_t> rframe;
        timed("net.encode_response", [&] { rframe = net::encode_response_frame(resp, k + 1); });
        serve::AssessResponse back;
        timed("net.decode_response", [&] {
            back = net::decode_response(
                std::span<const std::uint8_t>(rframe).subspan(net::FrameHeader::kSize));
        });
        if (net::encode_report(back.result.report) != net::encode_report(resp.result.report)) {
            throw GateFailure("walk: the response codec changed the report");
        }
        close_root();
    }

    // The stream assessor: the first chunks of the streamed pair, or of the
    // sampled requests' fields in order when the workload streams nothing.
    std::vector<std::pair<std::span<const float>, std::span<const float>>> sources;
    if (!in.stream_orig.empty()) {
        sources.emplace_back(in.stream_orig, in.stream_dec);
    } else {
        for (const auto& [orig, dec] : assessed) sources.emplace_back(orig.data(), dec.data());
    }
    open_root("walk.stream", in.requests.size());
    std::size_t fed = 0;
    for (const auto& [orig, dec] : sources) {
        zc::StreamingAssessor assessor(zc::MetricsConfig::only(zc::Pattern::kGlobalReduction));
        for (std::size_t off = 0; off < orig.size() && fed < kStreamChunksWalked;
             off += kStreamChunk, ++fed) {
            const std::size_t n = std::min(kStreamChunk, orig.size() - off);
            timed("zc.stream_feed",
                  [&] { assessor.feed(orig.subspan(off, n), dec.subspan(off, n)); });
        }
    }
    close_root();

    const auto us = [&](const char* name) { return t.count(name) ? median(t[name]) * 1e6 : 0.0; };
    LayerMetrics out = {
        {"net.encode_request_us", us("net.encode_request")},
        {"net.checksum_us", us("net.checksum")},
        {"net.decode_request_us", us("net.decode_request")},
        {"net.encode_response_us", us("net.encode_response")},
        {"net.decode_response_us", us("net.decode_response")},
        {"serve.cache_key_us", us("serve.cache_key")},
        {"vgpu.adopt_us", us("vgpu.adopt")},
        {"sz.decompress_ms", us("sz.decompress") / 1e3},
        {"zc.stream_feed_us", us("zc.stream_feed")},
    };
    static const char* const kPattern[3] = {"cuzc.pattern1", "cuzc.pattern2", "cuzc.pattern3"};
    for (int p = 0; p < 3; ++p) {
        const KernelSamples& s = kernels[p];
        const std::string base = kPattern[p];
        out.emplace_back(base + "_ms", median(s.wall_s) * 1e3);
        out.emplace_back(base + "_model_us", median(s.model_s) * 1e6);
        out.emplace_back(base + "_lane_ops", median(s.lane_ops));
        out.emplace_back(base + "_global_bytes", median(s.global_bytes));
    }
    return out;
}

}  // namespace suite

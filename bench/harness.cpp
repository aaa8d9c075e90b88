#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include "sz/sz.hpp"
#include "vgpu/simd.hpp"

namespace cuzc::bench {

void Gates::record(std::string_view name, io::Json value, Op op, io::Json threshold, bool holds,
                   bool enforced) {
    const char* op_text = op == Op::kAtLeast ? ">=" : op == Op::kAtMost ? "<=" : "==";
    if (enforced && !holds) {
        failed_ = true;
        std::ostringstream msg;
        msg << bench_ << ": FAIL " << name << ": " << value << ' ' << op_text << ' ' << threshold
            << " does not hold\n";
        std::fputs(msg.str().c_str(), stderr);
    }
    const char* outcome = !enforced ? "skip" : holds ? "pass" : "fail";
    gates_.emplace_back(io::Json::Object{{"name", name},
                                         {"value", std::move(value)},
                                         {"op", op_text},
                                         {"threshold", std::move(threshold)},
                                         {"outcome", outcome}});
}

Record& Record::set(std::string key, io::Json value) {
    keys_.emplace_back(std::move(key), std::move(value));
    return *this;
}

io::Json Record::json() const {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    io::Json::Object doc{{"schema", "cuzc-bench-v1"},
                         {"bench", bench_},
                         {"simd", vgpu::simd::banner()},
                         {"block_workers", vgpu::BlockScheduler::instance().max_workers()},
                         {"nproc", std::thread::hardware_concurrency()},
                         {"peak_rss_kib", ru.ru_maxrss}};
    doc.insert(doc.end(), keys_.begin(), keys_.end());
    doc.emplace_back("gates", gates_);
    return doc;
}

int Record::finish(const std::string& out_path) const {
    std::ostringstream doc;
    doc << json() << '\n';
    std::fputs(doc.str().c_str(), stdout);
    if (!out_path.empty() && !(std::ofstream(out_path) << doc.str())) {
        std::fprintf(stderr, "%s: cannot write '%s'\n", bench_.c_str(), out_path.c_str());
        return 1;
    }
    return status();
}

io::Json stats_json(const vgpu::KernelStats& s) {
    return io::Json::Object{{"blocks", s.blocks},
                            {"threads_per_block", s.threads_per_block},
                            {"regs_per_thread", s.regs_per_thread},
                            {"smem_per_block", s.smem_per_block},
                            {"global_bytes_read", s.global_bytes_read},
                            {"global_bytes_written", s.global_bytes_written},
                            {"shared_bytes_read", s.shared_bytes_read},
                            {"shared_bytes_written", s.shared_bytes_written},
                            {"shuffle_ops", s.shuffle_ops},
                            {"thread_iters", s.thread_iters},
                            {"lane_ops", s.lane_ops}};
}

bool reports_identical(const zc::AssessmentReport& a, const zc::AssessmentReport& b) {
    return net::encode_report(a) == net::encode_report(b);
}

namespace {

/// Start `server`, so the client connects to a running event loop.
net::NetClientConfig started(net::NetServer& server) {
    server.start();
    net::NetClientConfig ccfg;
    ccfg.port = server.port();
    return ccfg;
}

}  // namespace

Loopback::Loopback(const net::NetServerConfig& cfg) : server_(cfg), client_(started(server_)) {}

serve::NetTelemetry Loopback::close() {
    client_.close();
    server_.shutdown();
    return server_.telemetry();
}

Replay replay(serve::AssessService& service, const std::vector<serve::AssessRequest>& reqs) {
    Replay out;
    std::vector<std::future<serve::AssessResponse>> futures;
    const zc::Stopwatch watch;
    for (const auto& req : reqs) futures.push_back(service.submit(req));
    for (auto& f : futures) out.responses.push_back(f.get());
    out.seconds = watch.seconds();
    return out;
}

Replay replay(net::NetClient& client, const std::vector<serve::AssessRequest>& reqs,
              std::size_t window) {
    Replay out;
    std::vector<std::uint64_t> ids;
    const zc::Stopwatch watch;
    for (const auto& req : reqs) {
        while (client.outstanding() >= std::max<std::size_t>(window, 1)) client.pump(0.05);
        ids.push_back(client.submit(req));
    }
    for (const std::uint64_t id : ids) out.responses.push_back(client.wait(id));
    out.seconds = watch.seconds();
    return out;
}

void BenchConfig::declare(io::Flags& flags) {
    flags.num("--scale", scale, 1u).from_env("CUZC_BENCH_SCALE");
}

BenchConfig BenchConfig::from_args(int argc, const char* const* argv) {
    BenchConfig cfg;
    const std::string_view path = argc > 0 ? argv[0] : "bench";
    io::Flags flags(std::string(path.substr(path.find_last_of('/') + 1)));
    cfg.declare(flags);
    flags.parse_or_exit(argc, argv);
    return cfg;
}

std::vector<PreparedDataset> prepare_datasets(const BenchConfig& cfg) {
    std::vector<PreparedDataset> out;
    for (const auto& full : data::paper_datasets()) {
        const data::DatasetSpec spec = data::scaled(full, cfg.scale);
        PreparedDataset ds;
        ds.name = full.name;
        ds.full_dims = full.dims;
        ds.run_dims = spec.dims;
        // One representative field: the kernels' cost profile depends on
        // shape, not values, so any field of the dataset models all of them.
        ds.orig = data::generate_field(spec.fields.front(), spec.dims);
        sz::SzConfig scfg;
        scfg.use_rel_bound = true;
        scfg.rel_error_bound = cfg.sz_rel_bound;
        const auto comp = sz::compress(ds.orig.view(), scfg);
        ds.compression_ratio = comp.compression_ratio();
        ds.dec = sz::decompress(comp.bytes);
        out.push_back(std::move(ds));
    }
    return out;
}

vgpu::KernelStats extrapolate(const vgpu::KernelStats& stats, const zc::Dims3& from,
                              const zc::Dims3& to, int pattern, const zc::MetricsConfig& mcfg) {
    vgpu::KernelStats out = stats;
    const double ratio =
        static_cast<double>(to.volume()) / static_cast<double>(from.volume());
    const auto scale_u64 = [ratio](std::uint64_t v) {
        return static_cast<std::uint64_t>(std::llround(static_cast<double>(v) * ratio));
    };
    out.global_bytes_read = scale_u64(stats.global_bytes_read);
    out.global_bytes_written = scale_u64(stats.global_bytes_written);
    out.shared_bytes_read = scale_u64(stats.shared_bytes_read);
    out.shared_bytes_written = scale_u64(stats.shared_bytes_written);
    out.shuffle_ops = scale_u64(stats.shuffle_ops);
    out.thread_iters = scale_u64(stats.thread_iters);
    out.lane_ops = scale_u64(stats.lane_ops);

    const auto blocks_for = [&](const zc::Dims3& d) -> std::uint64_t {
        switch (pattern) {
            case 1: return d.l;                         // one block per z-slice
            case 2: return (d.l + 5) / 6;               // one block per 6-deep z-chunk
            case 3: {                                   // one block per y-window row
                const std::size_t wy = zc::effective_window(
                    d.w, static_cast<std::size_t>(mcfg.ssim_window));
                return (d.w - wy) / static_cast<std::size_t>(mcfg.ssim_step) + 1;
            }
            default: return 0;  // grid-stride kernels: keep measured blocks
        }
    };
    if (pattern >= 1 && pattern <= 3) {
        const std::uint64_t per_launch = blocks_for(to);
        out.blocks = per_launch * std::max<std::uint64_t>(stats.launches, 1);
    }
    return out;
}

namespace {

vgpu::CpuWork cpu_work_for(const zc::Dims3& dims, zc::Pattern p, const zc::MetricsConfig& mcfg) {
    switch (p) {
        case zc::Pattern::kGlobalReduction: return zc::cpu_pattern1_work(dims, mcfg);
        case zc::Pattern::kStencil: return zc::cpu_pattern2_work(dims, mcfg);
        case zc::Pattern::kSlidingWindow: return zc::cpu_pattern3_work(dims, mcfg);
    }
    return {};
}

}  // namespace

PatternTimes pattern_times(const PreparedDataset& ds, zc::Pattern pattern,
                           const zc::MetricsConfig& mcfg) {
    PatternTimes t;
    const zc::MetricsConfig only = zc::MetricsConfig::only(pattern, mcfg);
    const int pat_num = static_cast<int>(pattern);

    const vgpu::GpuCostModel gpu(vgpu::DeviceProps::v100(), vgpu::GpuCostParams{});
    const vgpu::CpuCostModel cpu{vgpu::CpuCostParams{}};

    {
        vgpu::Device dev;
        const auto r = ::cuzc::cuzc::assess(dev, ds.orig.view(), ds.dec.view(), only);
        const auto s = extrapolate(pattern_stats(r, pattern), ds.run_dims, ds.full_dims, pat_num,
                                   mcfg);
        t.cuzc_s = gpu.kernel_time(s).total_s;
    }
    {
        vgpu::Device dev;
        const auto r = ::cuzc::mozc::assess(dev, ds.orig.view(), ds.dec.view(), only);
        // moZC's pattern-1 kernels are grid-stride (pattern 0 rule); its
        // pattern-2/3 kernels share cuZC's grid shapes.
        const int mo_pat = pattern == zc::Pattern::kGlobalReduction ? 0 : pat_num;
        const auto s = extrapolate(pattern_stats(r, pattern), ds.run_dims, ds.full_dims, mo_pat,
                                   mcfg);
        t.mozc_s = gpu.kernel_time(s).total_s;
    }
    t.ompzc_s = cpu.time(cpu_work_for(ds.full_dims, pattern, mcfg), cpu.params().cores);
    return t;
}

std::string fmt_time(double seconds) {
    char buf[64];
    if (seconds >= 1.0) {
        std::snprintf(buf, sizeof buf, "%8.3f s ", seconds);
    } else if (seconds >= 1e-3) {
        std::snprintf(buf, sizeof buf, "%8.3f ms", seconds * 1e3);
    } else {
        std::snprintf(buf, sizeof buf, "%8.3f us", seconds * 1e6);
    }
    return buf;
}

std::string fmt_rate(double bytes_per_s) {
    char buf[64];
    if (bytes_per_s >= 1e9) {
        std::snprintf(buf, sizeof buf, "%7.2f GB/s", bytes_per_s / 1e9);
    } else {
        std::snprintf(buf, sizeof buf, "%7.2f MB/s", bytes_per_s / 1e6);
    }
    return buf;
}

}  // namespace cuzc::bench

// Times the virtual-GPU interpreter itself: wall-clock seconds and blocks
// interpreted per second for the three cuZC pattern kernels, per dataset,
// at field scales 8 and 4. Unlike the other bench targets (which report
// *modeled* device time), this one measures how fast the host-side
// emulator chews through kernels — the number that decides whether future
// PRs can afford to run scale=2/scale=1 fields for real.
//
// Writes a cuzc-bench-v1 record (stdout, and --out=PATH) including every
// profiler counter, so two builds can be diffed both for speed and for
// bit-exact count preservation (`tools/bench_records.py check`).
//
// Usage: bench_vgpu_wallclock [--scales=8,4] [--repeats=3] [--out=PATH]
// Thread count of the block scheduler comes from CUZC_VGPU_THREADS.

#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using cuzc::bench::BenchConfig;
namespace bench = cuzc::bench;
namespace vgpu = cuzc::vgpu;
namespace zc = cuzc::zc;

struct Sample {
    std::string dataset;
    unsigned scale = 0;
    std::string kernel;
    double seconds = 0;
    vgpu::KernelStats stats;
};

}  // namespace

int main(int argc, char** argv) {
    std::vector<unsigned> scales{8, 4};
    int repeats = 3;
    std::string out_path;
    // A --scales typo must not silently select scale 1 (the full-size
    // 141M-element fields — a multi-minute run).
    cuzc::io::Flags("bench_vgpu_wallclock")
        .list("--scales", scales)
        .num("--repeats", repeats, 1)
        .text("--out", out_path)
        .parse_or_exit(argc, argv);

    const zc::MetricsConfig mcfg;
    std::vector<Sample> samples;

    for (const unsigned scale : scales) {
        BenchConfig bcfg;
        bcfg.scale = scale;
        const auto datasets = bench::prepare_datasets(bcfg);
        for (const auto& ds : datasets) {
            for (const zc::Pattern pattern :
                 {zc::Pattern::kGlobalReduction, zc::Pattern::kStencil,
                  zc::Pattern::kSlidingWindow}) {
                const zc::MetricsConfig only = zc::MetricsConfig::only(pattern, mcfg);
                Sample s;
                s.dataset = ds.name;
                s.scale = scale;
                s.seconds = 1e300;
                for (int r = 0; r < repeats; ++r) {
                    vgpu::Device dev;
                    const zc::Stopwatch watch;
                    const auto res =
                        ::cuzc::cuzc::assess(dev, ds.orig.view(), ds.dec.view(), only);
                    const double dt = watch.seconds();
                    const vgpu::KernelStats& st = bench::pattern_stats(res, pattern);
                    if (dt < s.seconds) s.seconds = dt;
                    s.kernel = st.name;
                    s.stats = st;
                }
                samples.push_back(std::move(s));
            }
        }
    }

    cuzc::io::Json::Array rows;
    double total_blocks = 0, total_seconds = 0;
    for (const Sample& s : samples) {
        const auto blocks = static_cast<double>(s.stats.blocks);
        total_blocks += blocks;
        total_seconds += s.seconds;
        rows.emplace_back(cuzc::io::Json::Object{
            {"dataset", s.dataset}, {"scale", s.scale}, {"kernel", s.kernel},
            {"seconds", s.seconds}, {"blocks_per_sec", s.seconds > 0 ? blocks / s.seconds : 0},
            {"stats", bench::stats_json(s.stats)}});
    }

    const char* env_threads = std::getenv("CUZC_VGPU_THREADS");
    bench::Record rec("bench_vgpu_wallclock");
    rec.set("threads", env_threads ? env_threads : "default")
        .set("results", std::move(rows))
        .set("total_seconds", total_seconds)
        .set("total_blocks_per_sec", total_seconds > 0 ? total_blocks / total_seconds : 0);
    return rec.finish(out_path);
}

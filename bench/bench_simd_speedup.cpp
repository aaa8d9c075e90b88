// Measures the SIMD lane engine's end-to-end effect on the virtual-GPU
// interpreter: for each dataset and pattern kernel, wall-clock with the
// scalar backend forced versus the best backend the host offers. Both runs
// must produce bit-identical reports and profiler counters (the lane
// engine's contract); any divergence fails the benchmark regardless of
// flags.
//
// Writes a cuzc-bench-v1 record (stdout, and --out=PATH) with the same
// per-(dataset, scale, kernel) "stats" row shape as bench_vgpu_wallclock,
// so tools/bench_records.py check can gate counter drift on this output too.
//
// Both backends run on one block worker (recorded as "block_workers" in
// the banner and the record): the ratio measures the lane engine, not how a
// grid spreads over host threads, which bench_vgpu_wallclock measures.
//
// Usage: bench_simd_speedup [--scales=8] [--repeats=3] [--out=PATH] [--check]
//   --check additionally requires the aggregate pattern-1 speedup to reach
//   1.4x (skipped when the host has no vector backend).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "vgpu/simd.hpp"

namespace {

using cuzc::bench::BenchConfig;
namespace bench = cuzc::bench;
namespace vgpu = cuzc::vgpu;
namespace simd = cuzc::vgpu::simd;
namespace zc = cuzc::zc;

struct Sample {
    std::string dataset;
    unsigned scale = 0;
    std::string kernel;
    double scalar_seconds = 0;
    double simd_seconds = 0;
    vgpu::KernelStats stats;
};

bool stats_equal(const vgpu::KernelStats& a, const vgpu::KernelStats& b) {
    return a.launches == b.launches && a.grid_syncs == b.grid_syncs && a.blocks == b.blocks &&
           a.global_bytes_read == b.global_bytes_read &&
           a.global_bytes_written == b.global_bytes_written &&
           a.shared_bytes_read == b.shared_bytes_read &&
           a.shared_bytes_written == b.shared_bytes_written && a.shuffle_ops == b.shuffle_ops &&
           a.thread_iters == b.thread_iters && a.lane_ops == b.lane_ops;
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<unsigned> scales{8};
    int repeats = 3;
    bool check = false;
    std::string out_path;
    cuzc::io::Flags("bench_simd_speedup")
        .list("--scales", scales)
        .num("--repeats", repeats, 1)
        .text("--out", out_path)
        .flag("--check", check)
        .parse_or_exit(argc, argv);

    const simd::Backend best = simd::available_backends().front();
    const bool has_vector = best != simd::Backend::kScalar;
    vgpu::BlockScheduler& sched = vgpu::BlockScheduler::instance();
    sched.set_num_threads(1);
    const std::size_t block_workers = sched.max_workers();
    std::fprintf(stderr, "bench_simd_speedup: %s; best=%s; block_workers=%zu\n",
                 simd::banner().c_str(), simd::backend_name(best), block_workers);

    const zc::MetricsConfig mcfg;
    std::vector<Sample> samples;
    std::size_t identical_reports = 0, identical_counters = 0;

    for (const unsigned scale : scales) {
        BenchConfig bcfg;
        bcfg.scale = scale;
        const auto datasets = bench::prepare_datasets(bcfg);
        for (const auto& ds : datasets) {
            for (const zc::Pattern pattern :
                 {zc::Pattern::kGlobalReduction, zc::Pattern::kStencil,
                  zc::Pattern::kSlidingWindow}) {
                const zc::MetricsConfig only = zc::MetricsConfig::only(pattern, mcfg);
                const auto run_once = [&](simd::Backend b, double& best_dt) {
                    simd::force_backend(b);
                    vgpu::Device dev;
                    const zc::Stopwatch watch;
                    auto res = ::cuzc::cuzc::assess(dev, ds.orig.view(), ds.dec.view(), only);
                    const double dt = watch.seconds();
                    if (dt < best_dt) best_dt = dt;
                    return res;
                };

                Sample s;
                s.dataset = ds.name;
                s.scale = scale;
                s.scalar_seconds = 1e300;
                s.simd_seconds = 1e300;
                // Alternate the backends within each repeat so slow drift on
                // a shared host (frequency scaling, noisy neighbours) hits
                // both sides of the ratio equally.
                ::cuzc::cuzc::CuzcResult r_scalar, r_simd;
                for (int r = 0; r < repeats; ++r) {
                    r_scalar = run_once(simd::Backend::kScalar, s.scalar_seconds);
                    r_simd = run_once(best, s.simd_seconds);
                }

                const vgpu::KernelStats& st = bench::pattern_stats(r_simd, pattern);
                const vgpu::KernelStats& st0 = bench::pattern_stats(r_scalar, pattern);
                s.kernel = st.name;
                s.stats = st;
                if (bench::reports_identical(r_scalar.report, r_simd.report)) {
                    ++identical_reports;
                } else {
                    std::fprintf(stderr,
                                 "bench_simd_speedup: %s/%s: %s report differs from scalar\n",
                                 ds.name.c_str(), st.name.c_str(), simd::backend_name(best));
                }
                if (stats_equal(st0, st)) {
                    ++identical_counters;
                } else {
                    std::fprintf(stderr,
                                 "bench_simd_speedup: %s/%s: %s counters differ from scalar\n",
                                 ds.name.c_str(), st.name.c_str(), simd::backend_name(best));
                }
                samples.push_back(std::move(s));
            }
        }
    }

    cuzc::io::Json::Array rows;
    // Aggregate speedups as the geometric mean of the per-dataset ratios —
    // the standard cross-benchmark aggregate; a ratio of summed times would
    // let the single largest dataset dominate the figure.
    double p1_log = 0, all_log = 0;
    std::size_t p1_n = 0, all_n = 0;
    for (const Sample& s : samples) {
        const double speedup = s.simd_seconds > 0 ? s.scalar_seconds / s.simd_seconds : 0;
        if (speedup > 0) {
            all_log += std::log(speedup);
            ++all_n;
            if (s.kernel.find("pattern1") != std::string::npos) {
                p1_log += std::log(speedup);
                ++p1_n;
            }
        }
        rows.emplace_back(cuzc::io::Json::Object{
            {"dataset", s.dataset}, {"scale", s.scale}, {"kernel", s.kernel},
            {"scalar_seconds", s.scalar_seconds}, {"simd_seconds", s.simd_seconds},
            {"speedup", speedup}, {"stats", bench::stats_json(s.stats)}});
    }
    const double p1_speedup = p1_n > 0 ? std::exp(p1_log / static_cast<double>(p1_n)) : 0;
    const double total_speedup = all_n > 0 ? std::exp(all_log / static_cast<double>(all_n)) : 0;

    bench::Record rec("bench_simd_speedup");
    rec.set("backend", simd::backend_name(best))
        .set("results", std::move(rows))
        .set("pattern1_speedup", p1_speedup)
        .set("total_speedup", total_speedup);
    rec.check("reports_identical_to_scalar", identical_reports, bench::Op::kEqual, samples.size());
    rec.check("counters_identical_to_scalar", identical_counters, bench::Op::kEqual,
              samples.size());
    rec.check("pattern1_speedup", p1_speedup, bench::Op::kAtLeast, 1.4, check && has_vector);
    std::fprintf(stderr, "bench_simd_speedup: pattern1 %.2fx, total %.2fx (%s)\n", p1_speedup,
                 total_speedup, simd::backend_name(best));
    return rec.finish(out_path);
}

// Measures the SIMD lane engine's end-to-end effect on the virtual-GPU
// interpreter: for each dataset and pattern kernel, wall-clock with the
// scalar backend forced versus the best backend the host offers. Both runs
// must produce bit-identical reports and profiler counters (the lane
// engine's contract); any divergence fails the benchmark regardless of
// flags.
//
// Emits JSON on stdout (and to a file via --out=PATH) in the same
// per-(dataset, scale, kernel) "stats" row shape as bench_vgpu_wallclock,
// so tools/check_bench_stats.py can gate counter drift on this output too.
//
// Both backends run on one block worker (recorded as "block_workers" in
// the banner and the JSON): the ratio measures the lane engine, not how a
// grid spreads over host threads, which bench_vgpu_wallclock measures.
//
// Usage: bench_simd_speedup [--scales=8] [--repeats=3] [--out=PATH] [--check]
//   --check additionally requires the aggregate pattern-1 speedup to reach
//   1.4x (skipped when the host has no vector backend).

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "vgpu/simd.hpp"

namespace {

using cuzc::bench::BenchConfig;
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

double now_seconds() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Bit-pattern double equality: NaNs and signed zeros must also match.
bool same(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same(const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!same(a[i], b[i])) return false;
    }
    return true;
}

bool reports_identical(const zc::AssessmentReport& a, const zc::AssessmentReport& b) {
    const auto& ra = a.reduction;
    const auto& rb = b.reduction;
    const auto& sa = a.stencil;
    const auto& sb = b.stencil;
    return same(ra.min_val, rb.min_val) && same(ra.max_val, rb.max_val) &&
           same(ra.mean_val, rb.mean_val) && same(ra.std_val, rb.std_val) &&
           same(ra.entropy, rb.entropy) && same(ra.min_err, rb.min_err) &&
           same(ra.max_err, rb.max_err) && same(ra.avg_err, rb.avg_err) &&
           same(ra.avg_abs_err, rb.avg_abs_err) && same(ra.min_pwr_err, rb.min_pwr_err) &&
           same(ra.max_pwr_err, rb.max_pwr_err) && same(ra.avg_pwr_err, rb.avg_pwr_err) &&
           same(ra.mse, rb.mse) && same(ra.rmse, rb.rmse) && same(ra.psnr_db, rb.psnr_db) &&
           same(ra.pearson_r, rb.pearson_r) && same(ra.err_pdf, rb.err_pdf) &&
           same(ra.pwr_err_pdf, rb.pwr_err_pdf) &&
           same(sa.deriv1_avg_orig, sb.deriv1_avg_orig) &&
           same(sa.deriv1_max_orig, sb.deriv1_max_orig) &&
           same(sa.deriv1_avg_dec, sb.deriv1_avg_dec) &&
           same(sa.deriv1_max_dec, sb.deriv1_max_dec) && same(sa.deriv1_mse, sb.deriv1_mse) &&
           same(sa.deriv2_avg_orig, sb.deriv2_avg_orig) &&
           same(sa.deriv2_max_orig, sb.deriv2_max_orig) &&
           same(sa.deriv2_avg_dec, sb.deriv2_avg_dec) &&
           same(sa.deriv2_max_dec, sb.deriv2_max_dec) && same(sa.deriv2_mse, sb.deriv2_mse) &&
           same(sa.divergence_avg_orig, sb.divergence_avg_orig) &&
           same(sa.divergence_avg_dec, sb.divergence_avg_dec) &&
           same(sa.laplacian_avg_orig, sb.laplacian_avg_orig) &&
           same(sa.laplacian_avg_dec, sb.laplacian_avg_dec) &&
           same(sa.autocorr, sb.autocorr) && a.ssim.windows == b.ssim.windows &&
           same(a.ssim.ssim, b.ssim.ssim);
}

bool stats_equal(const vgpu::KernelStats& a, const vgpu::KernelStats& b) {
    return a.launches == b.launches && a.grid_syncs == b.grid_syncs && a.blocks == b.blocks &&
           a.global_bytes_read == b.global_bytes_read &&
           a.global_bytes_written == b.global_bytes_written &&
           a.shared_bytes_read == b.shared_bytes_read &&
           a.shared_bytes_written == b.shared_bytes_written && a.shuffle_ops == b.shuffle_ops &&
           a.thread_iters == b.thread_iters && a.lane_ops == b.lane_ops;
}

void append_stats_json(std::ostringstream& os, const vgpu::KernelStats& s) {
    os << "{\"blocks\":" << s.blocks << ",\"threads_per_block\":" << s.threads_per_block
       << ",\"regs_per_thread\":" << s.regs_per_thread
       << ",\"smem_per_block\":" << s.smem_per_block
       << ",\"global_bytes_read\":" << s.global_bytes_read
       << ",\"global_bytes_written\":" << s.global_bytes_written
       << ",\"shared_bytes_read\":" << s.shared_bytes_read
       << ",\"shared_bytes_written\":" << s.shared_bytes_written
       << ",\"shuffle_ops\":" << s.shuffle_ops << ",\"thread_iters\":" << s.thread_iters
       << ",\"lane_ops\":" << s.lane_ops << "}";
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<unsigned> scales{8};
    int repeats = 3;
    bool check = false;
    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--scales=", 9) == 0) {
            scales.clear();
            const char* p = argv[i] + 9;
            while (*p) {
                const int v = std::atoi(p);
                if (v < 1) {
                    std::fprintf(stderr, "bench_simd_speedup: bad --scales value in '%s'\n",
                                 argv[i]);
                    return 2;
                }
                scales.push_back(static_cast<unsigned>(v));
                while (*p && *p != ',') ++p;
                if (*p == ',') ++p;
            }
        } else if (std::strncmp(argv[i], "--repeats=", 10) == 0) {
            repeats = std::max(1, std::atoi(argv[i] + 10));
        } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
            out_path = argv[i] + 6;
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        }
    }

    const simd::Backend best = simd::available_backends().front();
    const bool has_vector = best != simd::Backend::kScalar;
    vgpu::BlockScheduler& sched = vgpu::BlockScheduler::instance();
    sched.set_num_threads(1);
    const std::size_t block_workers = sched.max_workers();
    std::fprintf(stderr, "bench_simd_speedup: %s; best=%s; block_workers=%zu\n",
                 simd::banner().c_str(), simd::backend_name(best), block_workers);

    const zc::MetricsConfig mcfg;
    std::vector<Sample> samples;
    bool equal_ok = true;

    for (const unsigned scale : scales) {
        BenchConfig bcfg;
        bcfg.scale = scale;
        const auto datasets = cuzc::bench::prepare_datasets(bcfg);
        for (const auto& ds : datasets) {
            for (const zc::Pattern pattern :
                 {zc::Pattern::kGlobalReduction, zc::Pattern::kStencil,
                  zc::Pattern::kSlidingWindow}) {
                zc::MetricsConfig only = mcfg;
                only.pattern1 = pattern == zc::Pattern::kGlobalReduction;
                only.pattern2 = pattern == zc::Pattern::kStencil;
                only.pattern3 = pattern == zc::Pattern::kSlidingWindow;

                const auto run_once = [&](simd::Backend b, double& best_dt) {
                    simd::force_backend(b);
                    vgpu::Device dev;
                    const double t0 = now_seconds();
                    auto res = ::cuzc::cuzc::assess(dev, ds.orig.view(), ds.dec.view(), only);
                    const double dt = now_seconds() - t0;
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

                const vgpu::KernelStats& st =
                    pattern == zc::Pattern::kGlobalReduction ? r_simd.pattern1
                    : pattern == zc::Pattern::kStencil       ? r_simd.pattern2
                                                             : r_simd.pattern3;
                const vgpu::KernelStats& st0 =
                    pattern == zc::Pattern::kGlobalReduction ? r_scalar.pattern1
                    : pattern == zc::Pattern::kStencil       ? r_scalar.pattern2
                                                             : r_scalar.pattern3;
                s.kernel = st.name;
                s.stats = st;
                if (!reports_identical(r_scalar.report, r_simd.report)) {
                    std::fprintf(stderr,
                                 "bench_simd_speedup: %s/%s: %s report differs from scalar\n",
                                 ds.name.c_str(), st.name.c_str(), simd::backend_name(best));
                    equal_ok = false;
                }
                if (!stats_equal(st0, st)) {
                    std::fprintf(stderr,
                                 "bench_simd_speedup: %s/%s: %s counters differ from scalar\n",
                                 ds.name.c_str(), st.name.c_str(), simd::backend_name(best));
                    equal_ok = false;
                }
                samples.push_back(std::move(s));
            }
        }
    }

    std::ostringstream os;
    os << "{\n  \"schema\": \"cuzc-simd-speedup-v1\",\n";
    os << "  \"backend\": \"" << simd::backend_name(best) << "\",\n";
    os << "  \"block_workers\": " << block_workers << ",\n";
    os << "  \"results\": [\n";
    // Aggregate speedups as the geometric mean of the per-dataset ratios —
    // the standard cross-benchmark aggregate; a ratio of summed times would
    // let the single largest dataset dominate the figure.
    double p1_log = 0, all_log = 0;
    std::size_t p1_n = 0, all_n = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample& s = samples[i];
        const double speedup = s.simd_seconds > 0 ? s.scalar_seconds / s.simd_seconds : 0;
        if (speedup > 0) {
            all_log += std::log(speedup);
            ++all_n;
            if (s.kernel.find("pattern1") != std::string::npos) {
                p1_log += std::log(speedup);
                ++p1_n;
            }
        }
        os << "    {\"dataset\":\"" << s.dataset << "\",\"scale\":" << s.scale
           << ",\"kernel\":\"" << s.kernel << "\",\"scalar_seconds\":" << s.scalar_seconds
           << ",\"simd_seconds\":" << s.simd_seconds << ",\"speedup\":" << speedup
           << ",\"stats\":";
        append_stats_json(os, s.stats);
        os << "}" << (i + 1 < samples.size() ? "," : "") << "\n";
    }
    const double p1_speedup = p1_n > 0 ? std::exp(p1_log / static_cast<double>(p1_n)) : 0;
    const double total_speedup = all_n > 0 ? std::exp(all_log / static_cast<double>(all_n)) : 0;
    os << "  ],\n";
    os << "  \"pattern1_speedup\": " << p1_speedup << ",\n";
    os << "  \"total_speedup\": " << total_speedup << "\n}\n";

    std::fputs(os.str().c_str(), stdout);
    if (!out_path.empty()) {
        std::ofstream f(out_path);
        f << os.str();
        if (!f) {
            std::fprintf(stderr, "bench_simd_speedup: cannot write '%s'\n", out_path.c_str());
            return 1;
        }
    }

    if (!equal_ok) {
        std::fprintf(stderr, "bench_simd_speedup: FAIL: results not bit-identical to scalar\n");
        return 1;
    }
    if (check && has_vector && p1_speedup < 1.4) {
        std::fprintf(stderr,
                     "bench_simd_speedup: FAIL: pattern1 speedup %.2fx below the 1.4x gate\n",
                     p1_speedup);
        return 1;
    }
    std::fprintf(stderr, "bench_simd_speedup: pattern1 %.2fx, total %.2fx (%s)\n", p1_speedup,
                 total_speedup, simd::backend_name(best));
    return 0;
}

// Table II reproduction: cuZC runtime profile per pattern x dataset —
// registers per thread block (Regs/TB), shared memory per thread block
// (SMem/TB), per-thread loop iterations (Iters/thread), and thread blocks
// assigned/concurrent per SM (TB(cncr.)/SM).

#include <cstdio>

#include "harness.hpp"
#include "ompzc/ompzc.hpp"

namespace {

namespace zc = ::cuzc::zc;
namespace vgpu = ::cuzc::vgpu;
namespace czc = ::cuzc::cuzc;
namespace mozc = ::cuzc::mozc;
namespace ompzc = ::cuzc::ompzc;
using namespace ::cuzc::bench;

const char* fmt_k(double v, char* buf, std::size_t n) {
    if (v >= 1000) {
        std::snprintf(buf, n, "%.1fk", v / 1000.0);
    } else {
        std::snprintf(buf, n, "%.0f", v);
    }
    return buf;
}

void print_row(const char* name, const vgpu::KernelStats& s, const vgpu::DeviceProps& props) {
    const auto occ = vgpu::occupancy(props, s);
    const std::uint64_t per_launch = s.blocks / std::max<std::uint64_t>(s.launches, 1);
    const std::uint32_t assigned = vgpu::blocks_per_sm(props, per_launch);
    const std::uint32_t concurrent = std::min<std::uint32_t>(assigned, occ.max_blocks_per_sm);
    char b1[32], b2[32], b3[32];
    std::printf("%-12s %8s %9.1fKB %10s   %u(%u)   [limited by %s]\n", name,
                fmt_k(static_cast<double>(s.regs_per_block()), b1, sizeof b1),
                static_cast<double>(s.smem_per_block) / 1024.0,
                fmt_k(s.iters_per_thread(), b2, sizeof b2), assigned, concurrent,
                std::string(vgpu::to_string(occ.limiter)).c_str());
    (void)b3;
}

}  // namespace

int main(int argc, char** argv) {
    const BenchConfig cfg = BenchConfig::from_args(argc, argv);
    const auto mcfg = paper_metrics();
    const auto datasets = prepare_datasets(cfg);
    const auto props = vgpu::DeviceProps::v100();

    std::printf("=== Table II: cuZC runtime profiling ===\n");
    std::printf("Regs/TB and SMem/TB from kernel allocations; Iters/thread extrapolated to\n");
    std::printf("paper dims from 1/%u-scale runs; TB/SM as assigned(concurrent).\n", cfg.scale);
    std::printf("paper reference: P1 14k regs/0.4KB; P2 2.3k/17KB; P3 11k/16KB\n");

    const struct {
        zc::Pattern p;
        int num;
        const char* title;
        const char* paper_iters;
    } patterns[] = {
        {zc::Pattern::kGlobalReduction, 1, "Pattern-1",
         "paper Iters/thread: Hurricane 977, NYX 1k, SCALE 6.3k, Miranda 576"},
        {zc::Pattern::kStencil, 2, "Pattern-2",
         "paper Iters/thread: Hurricane 205, NYX 205, SCALE 1.1k, Miranda 89"},
        {zc::Pattern::kSlidingWindow, 3, "Pattern-3",
         "paper Iters/thread: Hurricane 1.8k, NYX 8.7k, SCALE 3.4k, Miranda 2.9k"},
    };

    for (const auto& pat : patterns) {
        std::printf("\n--- %s ---\n", pat.title);
        std::printf("%-12s %8s %11s %10s %8s\n", "dataset", "Regs/TB", "SMem/TB",
                    "Iters/thr", "TB/SM");
        for (const auto& ds : datasets) {
            vgpu::Device dev;
            const auto only = zc::MetricsConfig::only(pat.p, mcfg);
            vgpu::KernelStats s =
                pattern_stats(czc::assess(dev, ds.orig.view(), ds.dec.view(), only), pat.p);
            // Drop the auxiliary moments kernel from the pattern-2 profile
            // row (the paper profiles the main fused kernel).
            if (pat.p == zc::Pattern::kStencil) {
                s = dev.profiler().aggregate("cuzc/pattern2");
            }
            s = extrapolate(s, ds.run_dims, ds.full_dims, pat.num, mcfg);
            print_row(ds.name.c_str(), s, props);
        }
        std::printf("%s\n", pat.paper_iters);
    }
    return 0;
}

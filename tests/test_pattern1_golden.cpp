// Golden parity table for the pattern-1 cooperative kernel and the other
// cooperative grid, the error-moments kernel. The table in
// pattern1_golden.inc pins, for every configuration of the matrix below,
// the 15 reduction moments, a hash of the raw histogram counts, the PSNR and
// entropy bits, and every KernelStats field. Any change to the kernels or to
// how the runtime executes a cooperative grid must reproduce all of them
// exactly, at every block-worker count and on every available SIMD backend.
//
// Launch forms:
//  - full: reductions, grid sync, final fold, grid sync, histograms;
//  - hist: the histogram-only sub-range launch the multi-GPU path issues,
//    binning against fixed ranges over z-slices [l/3, l - l/4);
//  - reduce: the reduction-only sub-range launch of the same z-slices;
//  - moments: error_moments_device (up to 256 blocks, two phases).
// The shapes cover l = 1, l below the largest worker count, l divisible by
// no worker count, partial warp chunks (h = 33), idle warps (w = 5) and a
// grid wider than 256 blocks; bins 1, 7 and 100.
//
// Regenerate only when a kernel change is *meant* to move these numbers:
// run this test with CUZC_PATTERN1_GOLDEN_OUT=tests/pattern1_golden.inc set
// in the environment (it then writes the table and skips the check).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cuzc/cuzc.hpp"
#include "test_helpers.hpp"
#include "vgpu/simd.hpp"
#include "zc/zc.hpp"

namespace {

namespace zc = ::cuzc::zc;
namespace vgpu = ::cuzc::vgpu;
namespace simd = ::cuzc::vgpu::simd;
namespace czc = ::cuzc::cuzc;
namespace tst = ::cuzc::testing;

enum Form : int { kFull = 0, kHist = 1, kReduce = 2, kMoments = 3 };

constexpr std::size_t kMoments15 = 15;

struct Golden {
    std::uint32_t h, w, l;
    int bins;  // 0 for the forms that build no histogram
    int form;
    std::uint64_t moments[kMoments15];  // bits; `moments` form: mean, var
    std::uint64_t hist_size, hist_fnv;  // raw_hist length and FNV-1a of its bytes
    std::uint64_t psnr_bits, entropy_bits;
    std::uint64_t launches, grid_syncs, blocks;
    std::uint32_t threads_per_block, regs_per_thread;
    std::uint64_t smem_per_block;
    std::uint64_t global_bytes_read, global_bytes_written;
    std::uint64_t shared_bytes_read, shared_bytes_written;
    std::uint64_t shuffle_ops, thread_iters, lane_ops;
    std::uint64_t coalescing_bits, serialization_bits;
};

const Golden kTable[] = {
#include "pattern1_golden.inc"
};

const zc::Dims3 kShapes[] = {
    {7, 9, 1},      // one block
    {12, 10, 5},    // fewer blocks than the largest worker count
    {33, 5, 17},    // partial warp chunk, idle warps, prime l
    {40, 36, 24},   // the scheduler suite's shape
    {64, 64, 64},   // the benchmark's miss shape
    {31, 31, 257},  // more blocks than the moments grid's 256
};

constexpr int kBins[] = {1, 7, 100};

struct Fields {
    zc::Field orig, dec;
};

Fields make(const zc::Dims3& d) {
    Fields f{tst::random_field(d, 31 + d.l), {}};
    f.dec = tst::perturbed(f.orig, 0.03, 11 + d.h);
    return f;
}

std::uint64_t fnv1a(const std::vector<double>& v) {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const double x : v) {
        unsigned char bytes[sizeof(double)];
        std::memcpy(bytes, &x, sizeof(double));
        for (const unsigned char b : bytes) hash = (hash ^ b) * 0x100000001b3ull;
    }
    return hash;
}

Golden row_of(const zc::Dims3& d, int bins, Form form, const vgpu::KernelStats& s) {
    Golden g{};
    g.h = static_cast<std::uint32_t>(d.h);
    g.w = static_cast<std::uint32_t>(d.w);
    g.l = static_cast<std::uint32_t>(d.l);
    g.bins = bins;
    g.form = form;
    g.launches = s.launches;
    g.grid_syncs = s.grid_syncs;
    g.blocks = s.blocks;
    g.threads_per_block = s.threads_per_block;
    g.regs_per_thread = s.regs_per_thread;
    g.smem_per_block = s.smem_per_block;
    g.global_bytes_read = s.global_bytes_read;
    g.global_bytes_written = s.global_bytes_written;
    g.shared_bytes_read = s.shared_bytes_read;
    g.shared_bytes_written = s.shared_bytes_written;
    g.shuffle_ops = s.shuffle_ops;
    g.thread_iters = s.thread_iters;
    g.lane_ops = s.lane_ops;
    g.coalescing_bits = std::bit_cast<std::uint64_t>(s.coalescing);
    g.serialization_bits = std::bit_cast<std::uint64_t>(s.serialization);
    return g;
}

Golden run_pattern1(const Fields& f, int bins, Form form, const czc::Pattern1Ranges& ranges) {
    const zc::Dims3 d = f.orig.dims();
    zc::MetricsConfig cfg;
    cfg.pdf_bins = bins == 0 ? 1 : bins;
    czc::Pattern1Options opt;
    if (form != kFull) {
        opt.z_begin = d.l / 3;
        opt.z_end = d.l - d.l / 4;
        opt.reductions = form == kReduce;
        opt.histograms = form == kHist;
        if (form == kHist) opt.fixed_ranges = &ranges;
    }
    vgpu::Device dev;
    const vgpu::DeviceBuffer<float> d_orig(dev, f.orig.data());
    const vgpu::DeviceBuffer<float> d_dec(dev, f.dec.data());
    const czc::Pattern1Result r = czc::pattern1_fused_device(dev, d_orig, d_dec, d, cfg, opt);
    Golden g = row_of(d, bins, form, r.stats);
    const zc::ReductionMoments& m = r.moments;
    const double vals[kMoments15] = {
        m.min_val,    m.max_val, m.sum_val, m.sum_val_sq,  m.min_err,
        m.max_err,    m.sum_err, m.sum_abs_err, m.sum_err_sq, m.min_pwr,
        m.max_pwr,    m.sum_pwr_abs, m.sum_dec, m.sum_dec_sq,  m.sum_cross};
    for (std::size_t i = 0; i < kMoments15; ++i) {
        g.moments[i] = std::bit_cast<std::uint64_t>(vals[i]);
    }
    g.hist_size = r.raw_hist.size();
    g.hist_fnv = fnv1a(r.raw_hist);
    g.psnr_bits = std::bit_cast<std::uint64_t>(r.report.psnr_db);
    g.entropy_bits = std::bit_cast<std::uint64_t>(r.report.entropy);
    return g;
}

Golden run_moments(const Fields& f) {
    const zc::Dims3 d = f.orig.dims();
    vgpu::Device dev;
    const vgpu::DeviceBuffer<float> d_orig(dev, f.orig.data());
    const vgpu::DeviceBuffer<float> d_dec(dev, f.dec.data());
    const zc::ErrorMoments em = czc::error_moments_device(dev, d_orig, d_dec, d);
    Golden g = row_of(d, 0, kMoments, dev.profiler().records().back());
    g.moments[0] = std::bit_cast<std::uint64_t>(em.mean);
    g.moments[1] = std::bit_cast<std::uint64_t>(em.var);
    return g;
}

/// Every configuration of the matrix, in table order.
std::vector<Golden> run_matrix() {
    std::vector<Golden> rows;
    for (const zc::Dims3& d : kShapes) {
        const Fields f = make(d);
        czc::Pattern1Ranges ranges;
        for (const int bins : kBins) {
            rows.push_back(run_pattern1(f, bins, kFull, ranges));
            if (bins == kBins[0]) {
                // The histogram-only launch bins against the whole volume's
                // ranges, as the multi-GPU allreduce hands them over.
                const auto moment = [&](std::size_t i) {
                    return std::bit_cast<double>(rows.back().moments[i]);
                };
                ranges = czc::Pattern1Ranges{moment(4), moment(5),  moment(9),
                                             moment(10), moment(0), moment(1)};
            }
            rows.push_back(run_pattern1(f, bins, kHist, ranges));
        }
        rows.push_back(run_pattern1(f, 0, kReduce, ranges));
        rows.push_back(run_moments(f));
    }
    return rows;
}

unsigned long long ull(std::uint64_t v) { return static_cast<unsigned long long>(v); }

void write_table(const std::vector<Golden>& rows, const char* path) {
    std::FILE* out = std::fopen(path, "w");
    ASSERT_NE(out, nullptr) << path;
    std::fprintf(out,
                 "// Generated by test_pattern1_golden (CUZC_PATTERN1_GOLDEN_OUT); see that "
                 "file.\n"
                 "// h, w, l, bins, form, {15 moment bits}, hist size, hist fnv, psnr bits,\n"
                 "// entropy bits, launches, grid_syncs, blocks, threads/block, regs/thread,\n"
                 "// smem/block, global rd, global wr, shared rd, shared wr, shuffles,\n"
                 "// thread iters, lane ops, coalescing bits, serialization bits\n");
    for (const Golden& g : rows) {
        std::fprintf(out, "{%u, %u, %u, %d, %d, {", g.h, g.w, g.l, g.bins, g.form);
        for (std::size_t i = 0; i < kMoments15; ++i) {
            std::fprintf(out, "%s0x%016llxull", i == 0 ? "" : ", ", ull(g.moments[i]));
        }
        std::fprintf(out,
                     "}, %llu, 0x%016llxull, 0x%016llxull, 0x%016llxull, %llu, %llu, %llu, %u, "
                     "%u, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, 0x%016llxull, "
                     "0x%016llxull},\n",
                     ull(g.hist_size), ull(g.hist_fnv), ull(g.psnr_bits), ull(g.entropy_bits),
                     ull(g.launches), ull(g.grid_syncs), ull(g.blocks), g.threads_per_block,
                     g.regs_per_thread, ull(g.smem_per_block), ull(g.global_bytes_read),
                     ull(g.global_bytes_written), ull(g.shared_bytes_read),
                     ull(g.shared_bytes_written), ull(g.shuffle_ops), ull(g.thread_iters),
                     ull(g.lane_ops), ull(g.coalescing_bits), ull(g.serialization_bits));
    }
    std::fclose(out);
}

void expect_row(const Golden& want, const Golden& got) {
    static const char* const kForms[] = {"full", "hist", "reduce", "moments"};
    SCOPED_TRACE("shape " + std::to_string(want.h) + "x" + std::to_string(want.w) + "x" +
                 std::to_string(want.l) + " bins " + std::to_string(want.bins) + " form " +
                 kForms[want.form]);
    ASSERT_EQ(got.h, want.h);
    ASSERT_EQ(got.w, want.w);
    ASSERT_EQ(got.l, want.l);
    ASSERT_EQ(got.bins, want.bins);
    ASSERT_EQ(got.form, want.form);
    for (std::size_t i = 0; i < kMoments15; ++i) EXPECT_EQ(got.moments[i], want.moments[i]) << i;
    EXPECT_EQ(got.hist_size, want.hist_size);
    EXPECT_EQ(got.hist_fnv, want.hist_fnv);
    EXPECT_EQ(got.psnr_bits, want.psnr_bits);
    EXPECT_EQ(got.entropy_bits, want.entropy_bits);
    EXPECT_EQ(got.launches, want.launches);
    EXPECT_EQ(got.grid_syncs, want.grid_syncs);
    EXPECT_EQ(got.blocks, want.blocks);
    EXPECT_EQ(got.threads_per_block, want.threads_per_block);
    EXPECT_EQ(got.regs_per_thread, want.regs_per_thread);
    EXPECT_EQ(got.smem_per_block, want.smem_per_block);
    EXPECT_EQ(got.global_bytes_read, want.global_bytes_read);
    EXPECT_EQ(got.global_bytes_written, want.global_bytes_written);
    EXPECT_EQ(got.shared_bytes_read, want.shared_bytes_read);
    EXPECT_EQ(got.shared_bytes_written, want.shared_bytes_written);
    EXPECT_EQ(got.shuffle_ops, want.shuffle_ops);
    EXPECT_EQ(got.thread_iters, want.thread_iters);
    EXPECT_EQ(got.lane_ops, want.lane_ops);
    EXPECT_EQ(got.coalescing_bits, want.coalescing_bits);
    EXPECT_EQ(got.serialization_bits, want.serialization_bits);
}

struct BackendGuard {
    simd::Backend saved = simd::active_backend();
    ~BackendGuard() { simd::force_backend(saved); }
};

/// Pin the block scheduler to `n` workers; restores the default on exit.
struct ThreadGuard {
    explicit ThreadGuard(std::size_t n) { vgpu::BlockScheduler::instance().set_num_threads(n); }
    ~ThreadGuard() { vgpu::BlockScheduler::instance().set_num_threads(0); }
};

class Pattern1Golden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Pattern1Golden, Table) {
    ThreadGuard threads(GetParam());
    if (const char* path = std::getenv("CUZC_PATTERN1_GOLDEN_OUT")) {
        if (GetParam() == 1) write_table(run_matrix(), path);
        GTEST_SKIP() << "wrote the golden table to " << path;
    }
    BackendGuard guard;
    for (const simd::Backend b : simd::available_backends()) {
        ASSERT_TRUE(simd::force_backend(b));
        SCOPED_TRACE(simd::backend_name(b));
        const std::vector<Golden> rows = run_matrix();
        ASSERT_EQ(rows.size(), std::size(kTable));
        for (std::size_t i = 0; i < rows.size(); ++i) expect_row(kTable[i], rows[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(Workers, Pattern1Golden, ::testing::Values(1, 2, 3, 4, 7),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                             return std::to_string(info.param) + "workers";
                         });

}  // namespace

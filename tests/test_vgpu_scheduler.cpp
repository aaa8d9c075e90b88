// Tests of the multi-threaded block scheduler and the fast-path machinery
// around it: the determinism guarantee (results AND profiler counts are
// bit-identical for every worker count), sharded-counter merging, pooled
// arena/register reuse across launches, bulk-accessor charging, and the
// profiler's stable launch-record references.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cuzc/cuzc.hpp"
#include "test_helpers.hpp"
#include "vgpu/vgpu.hpp"

namespace {

namespace zc = ::cuzc::zc;
namespace vgpu = ::cuzc::vgpu;
namespace czc = ::cuzc::cuzc;
namespace tst = ::cuzc::testing;

/// Pin the scheduler to `n` workers for the lifetime of the guard; restores
/// the environment/hardware default on destruction.
struct ThreadGuard {
    explicit ThreadGuard(std::size_t n) { vgpu::BlockScheduler::instance().set_num_threads(n); }
    ~ThreadGuard() { vgpu::BlockScheduler::instance().set_num_threads(0); }
};

void expect_same_stats(const vgpu::KernelStats& a, const vgpu::KernelStats& b,
                       const char* what) {
    EXPECT_EQ(a.launches, b.launches) << what;
    EXPECT_EQ(a.grid_syncs, b.grid_syncs) << what;
    EXPECT_EQ(a.blocks, b.blocks) << what;
    EXPECT_EQ(a.threads_per_block, b.threads_per_block) << what;
    EXPECT_EQ(a.regs_per_thread, b.regs_per_thread) << what;
    EXPECT_EQ(a.smem_per_block, b.smem_per_block) << what;
    EXPECT_EQ(a.global_bytes_read, b.global_bytes_read) << what;
    EXPECT_EQ(a.global_bytes_written, b.global_bytes_written) << what;
    EXPECT_EQ(a.shared_bytes_read, b.shared_bytes_read) << what;
    EXPECT_EQ(a.shared_bytes_written, b.shared_bytes_written) << what;
    EXPECT_EQ(a.shuffle_ops, b.shuffle_ops) << what;
    EXPECT_EQ(a.thread_iters, b.thread_iters) << what;
    EXPECT_EQ(a.lane_ops, b.lane_ops) << what;
    EXPECT_EQ(a.coalescing, b.coalescing) << what;  // exact: set, not computed
    EXPECT_EQ(a.serialization, b.serialization) << what;
}

struct Fields {
    zc::Field orig;
    zc::Field dec;
};

Fields make(zc::Dims3 d, std::uint64_t seed = 1) {
    Fields f{tst::smooth_field(d, seed), {}};
    f.dec = tst::perturbed(f.orig, 0.01, seed + 100);
    return f;
}

// The worker counts the determinism claim is exercised at: serial, even
// split, and a count that does not divide typical grids.
constexpr std::size_t kWorkerCounts[] = {1, 2, 7};

TEST(VgpuScheduler, Pattern1BitIdenticalForAnyWorkerCount) {
    const auto f = make({40, 36, 24});
    zc::MetricsConfig cfg;
    std::vector<czc::Pattern1Result> runs;
    for (const std::size_t n : kWorkerCounts) {
        ThreadGuard guard(n);
        vgpu::Device dev;
        runs.push_back(czc::pattern1_fused(dev, f.orig.view(), f.dec.view(), cfg));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].raw_hist, runs[0].raw_hist);
        EXPECT_EQ(runs[i].report.mse, runs[0].report.mse);
        EXPECT_EQ(runs[i].report.psnr_db, runs[0].report.psnr_db);
        EXPECT_EQ(runs[i].report.entropy, runs[0].report.entropy);
        EXPECT_EQ(runs[i].moments.sum_err_sq, runs[0].moments.sum_err_sq);
        expect_same_stats(runs[i].stats, runs[0].stats, "pattern1");
    }
}

TEST(VgpuScheduler, Pattern2BitIdenticalForAnyWorkerCount) {
    const auto f = make({36, 40, 28});
    zc::MetricsConfig cfg;
    std::vector<czc::Pattern2Result> runs;
    for (const std::size_t n : kWorkerCounts) {
        ThreadGuard guard(n);
        vgpu::Device dev;
        runs.push_back(czc::pattern2_fused(dev, f.orig.view(), f.dec.view(), cfg));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].totals, runs[0].totals);  // bitwise: vector op==
        EXPECT_EQ(runs[i].report.deriv1_mse, runs[0].report.deriv1_mse);
        EXPECT_EQ(runs[i].report.autocorr, runs[0].report.autocorr);
        expect_same_stats(runs[i].stats, runs[0].stats, "pattern2");
    }
}

TEST(VgpuScheduler, Pattern3BitIdenticalForAnyWorkerCount) {
    const auto f = make({48, 40, 20});
    zc::MetricsConfig cfg;
    std::vector<czc::Pattern3Result> runs;
    for (const std::size_t n : kWorkerCounts) {
        ThreadGuard guard(n);
        vgpu::Device dev;
        runs.push_back(czc::pattern3_ssim(dev, f.orig.view(), f.dec.view(), cfg));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].report.ssim, runs[0].report.ssim);
        EXPECT_EQ(runs[i].report.windows, runs[0].report.windows);
        expect_same_stats(runs[i].stats, runs[0].stats, "pattern3");
    }
}

/// Outputs of the three-phase cooperative kernel below.
struct CoopRun {
    std::vector<double> sums;   // phase 2's per-block output
    std::vector<double> folds;  // phase 3's atomic_add target
    vgpu::KernelStats stats;
    std::size_t threads_used = 0;
};

/// A cooperative grid that exercises every cross-block hazard of a
/// resident launch: in each phase every block reads all blocks' writes of
/// the previous phase, keeps a shared-memory value across the grid syncs,
/// and the last phase folds into one global array with atomic_add. Every
/// value is integer-valued, so the sums are exact in any block order.
/// `order`, when set, records (phase, block) in execution order.
CoopRun run_coop_kernel(std::vector<std::pair<int, std::uint32_t>>* order = nullptr) {
    constexpr std::uint32_t kBlocks = 13;  // divisible by no tested worker count
    constexpr std::uint32_t kThreads = 64;
    constexpr std::size_t kFolds = 5;
    vgpu::Device dev;
    vgpu::DeviceBuffer<double> seeds(dev, kBlocks);
    vgpu::DeviceBuffer<double> sums(dev, kBlocks);
    vgpu::DeviceBuffer<double> folds(dev, kFolds);
    folds.fill(0.0);
    std::vector<std::thread::id> thread_of(kBlocks);
    const auto note = [&](int phase, vgpu::BlockCtx& blk) {
        if (order != nullptr) order->emplace_back(phase, blk.block_idx().x);
    };

    std::vector<vgpu::CoopPhase> phases;
    phases.push_back([&](vgpu::Launch& l, vgpu::BlockCtx& blk) {
        note(0, blk);
        thread_of[blk.block_idx().x] = std::this_thread::get_id();
        const double v = 3.0 * blk.block_idx().x + 1.0;
        auto keep = blk.shared().alloc<double>(1);
        keep.st(0, v);
        l.span(seeds).st(blk.block_idx().x, v);
        blk.add_iters(1);
    });
    phases.push_back([&](vgpu::Launch& l, vgpu::BlockCtx& blk) {
        note(1, blk);
        blk.shared().reset();  // the resident arena hands back phase 1's storage
        const double kept = blk.shared().alloc<double>(1).ld(0);
        auto regs = blk.make_regs<double>(1);
        const double* all = l.span(std::as_const(seeds)).ld_bulk(0, kBlocks);
        blk.for_each_thread([&](vgpu::ThreadCtx& t) {
            regs(t) = t.linear < kBlocks ? all[t.linear] : 0.0;
        });
        double total = 0;
        for (std::uint32_t t = 0; t < kThreads; ++t) total += regs.at(t);
        l.span(sums).st(blk.block_idx().x, total * kept);
        blk.add_ops(kBlocks);
    });
    phases.push_back([&](vgpu::Launch& l, vgpu::BlockCtx& blk) {
        note(2, blk);
        blk.shared().reset();
        const double kept = blk.shared().alloc<double>(1).ld(0);
        const double* all = l.span(std::as_const(sums)).ld_bulk(0, kBlocks);
        auto f = l.span(folds);
        for (std::size_t k = 0; k < kFolds; ++k) {
            f.atomic_add(k, all[(blk.block_idx().x + k) % kBlocks] + kept);
        }
    });
    CoopRun run;
    run.stats = vgpu::coop_launch(
        dev, vgpu::LaunchConfig{"coop", vgpu::Dim3{kBlocks, 1, 1}, vgpu::Dim3{kThreads, 1, 1}},
        phases);
    run.sums = sums.download();
    run.folds = folds.download();
    std::sort(thread_of.begin(), thread_of.end());
    run.threads_used = static_cast<std::size_t>(
        std::unique(thread_of.begin(), thread_of.end()) - thread_of.begin());
    return run;
}

TEST(VgpuScheduler, CooperativeGridRunsInParallelWithIdenticalResults) {
    CoopRun serial;
    {
        ThreadGuard guard(1);
        serial = run_coop_kernel();
    }
    // Hand check of the serial run: sum of seeds 1, 4, ..., 37 is 247.
    EXPECT_EQ(serial.sums[0], 247.0 * 1.0);
    EXPECT_EQ(serial.sums[12], 247.0 * 37.0);
    EXPECT_EQ(serial.stats.grid_syncs, 2u);
    EXPECT_EQ(serial.stats.smem_per_block, sizeof(double));
    EXPECT_EQ(serial.threads_used, 1u);
    for (const std::size_t n : kWorkerCounts) {
        ThreadGuard guard(n);
        const CoopRun run = run_coop_kernel();
        EXPECT_EQ(run.sums, serial.sums) << "workers=" << n;
        EXPECT_EQ(run.folds, serial.folds) << "workers=" << n;
        expect_same_stats(run.stats, serial.stats, "coop");
        // One dispatch: each worker's block range runs on its own thread.
        EXPECT_EQ(run.threads_used, n) << "workers=" << n;
    }
}

TEST(VgpuScheduler, CooperativeGridUnderSerialScopeRunsInBlockOrder) {
    ThreadGuard guard(7);
    CoopRun reference;
    {
        ThreadGuard serial(1);
        reference = run_coop_kernel();
    }
    std::vector<std::pair<int, std::uint32_t>> order;
    CoopRun run;
    {
        vgpu::BlockScheduler::SerialScope scope;
        run = run_coop_kernel(&order);
    }
    std::vector<std::pair<int, std::uint32_t>> expected;
    for (int phase = 0; phase < 3; ++phase) {
        for (std::uint32_t b = 0; b < 13; ++b) expected.emplace_back(phase, b);
    }
    EXPECT_EQ(order, expected);
    EXPECT_EQ(run.threads_used, 1u);
    EXPECT_EQ(run.sums, reference.sums);
    EXPECT_EQ(run.folds, reference.folds);
    expect_same_stats(run.stats, reference.stats, "coop serial scope");
}

TEST(VgpuScheduler, ThreadsEnvironmentVariableIsParsedStrictly) {
    // CUZC_VGPU_THREADS follows the shared numeric grammar: anything but a
    // plain count is reported and replaced by hardware concurrency (it must
    // never become 2^64 - 1 workers). CI runs this suite with the variable
    // set, so the test restores it.
    const char* prev = std::getenv("CUZC_VGPU_THREADS");
    const std::string saved = prev != nullptr ? prev : "";
    vgpu::BlockScheduler& sched = vgpu::BlockScheduler::instance();
    const unsigned hc = std::thread::hardware_concurrency();
    const std::size_t hardware = hc > 0 ? hc : 1;
    const auto workers_for = [&](const char* value) {
        ::setenv("CUZC_VGPU_THREADS", value, 1);
        sched.set_num_threads(0);
        return sched.max_workers();
    };
    EXPECT_EQ(workers_for("3"), 3u);
    EXPECT_EQ(workers_for("0"), hardware);
    EXPECT_EQ(workers_for(""), hardware);
    for (const char* bad : {"-1", "99999999999999999999999", " 3", "+2", "3x", "two"}) {
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(workers_for(bad), hardware) << '"' << bad << '"';
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("invalid CUZC_VGPU_THREADS"), std::string::npos) << err;
    }
    if (prev != nullptr) {
        ::setenv("CUZC_VGPU_THREADS", saved.c_str(), 1);
    } else {
        ::unsetenv("CUZC_VGPU_THREADS");
    }
    sched.set_num_threads(0);
}

TEST(VgpuScheduler, ShardedCountsMatchHandComputedCharges) {
    // A kernel with exactly known charges, swept over worker counts that do
    // and do not divide the grid: the merged record must always equal the
    // hand count (which is also what a serial sweep charges).
    for (const std::size_t n : kWorkerCounts) {
        ThreadGuard guard(n);
        vgpu::Device dev;
        constexpr std::size_t kBlocks = 13;
        constexpr std::size_t kThreads = 64;
        vgpu::DeviceBuffer<float> in(dev, kBlocks * kThreads);
        vgpu::DeviceBuffer<float> out(dev, kBlocks * kThreads);
        in.fill(1.5f);
        const vgpu::KernelStats& s = vgpu::launch(
            dev, vgpu::LaunchConfig{"charges", vgpu::Dim3{kBlocks, 1, 1},
                                    vgpu::Dim3{kThreads, 1, 1}},
            [&](vgpu::Launch& l, vgpu::BlockCtx& blk) {
                auto i = l.span(in);
                auto o = l.span(out);
                auto sh = blk.shared().alloc<float>(kThreads);
                const std::size_t base = std::size_t{blk.block_idx().x} * kThreads;
                blk.for_each_thread([&](vgpu::ThreadCtx& t) {
                    sh.st(t.linear, i.ld(base + t.linear));
                });
                blk.for_each_thread([&](vgpu::ThreadCtx& t) {
                    o.st(base + t.linear, sh.ld(t.linear) * 2.0f);
                });
                blk.add_iters(kThreads);
            });
        EXPECT_EQ(s.blocks, kBlocks);
        EXPECT_EQ(s.global_bytes_read, kBlocks * kThreads * sizeof(float)) << n;
        EXPECT_EQ(s.global_bytes_written, kBlocks * kThreads * sizeof(float)) << n;
        EXPECT_EQ(s.shared_bytes_read, kBlocks * kThreads * sizeof(float)) << n;
        EXPECT_EQ(s.shared_bytes_written, kBlocks * kThreads * sizeof(float)) << n;
        EXPECT_EQ(s.smem_per_block, kThreads * sizeof(float)) << n;
        EXPECT_EQ(s.thread_iters, kBlocks * kThreads) << n;
    }
}

TEST(VgpuScheduler, AtomicAddIsExactAcrossWorkerCounts) {
    // Cross-block accumulation through DeviceSpan::atomic_add: with
    // integer-valued addends the result is exact (hence order-independent),
    // so every worker count must produce the identical cell values.
    std::vector<double> reference;
    for (const std::size_t n : kWorkerCounts) {
        ThreadGuard guard(n);
        vgpu::Device dev;
        constexpr std::size_t kBlocks = 23;
        vgpu::DeviceBuffer<double> cells(dev, 4);
        cells.fill(0.0);
        vgpu::launch(dev,
                     vgpu::LaunchConfig{"atomics", vgpu::Dim3{kBlocks, 1, 1},
                                        vgpu::Dim3{32, 1, 1}},
                     [&](vgpu::Launch& l, vgpu::BlockCtx& blk) {
                         auto c = l.span(cells);
                         blk.for_each_thread([&](vgpu::ThreadCtx& t) {
                             c.atomic_add(t.linear % 4, 1.0 + blk.block_idx().x % 3);
                         });
                     });
        const auto host = cells.download();
        if (reference.empty()) {
            reference = host;
        } else {
            EXPECT_EQ(host, reference) << "workers=" << n;
        }
    }
    EXPECT_EQ(reference.size(), 4u);
    // 23 blocks x 8 threads per cell, addend 1+bx%3: 8*(8*1+8*2+7*3) = 360.
    EXPECT_EQ(reference[0], 360.0);
}

TEST(VgpuScheduler, BulkAccessorsChargeLikeScalarAccesses) {
    // ld_bulk/st_bulk are a charging shortcut, not a discount: a bulk
    // transfer of n elements must cost exactly n scalar accesses.
    vgpu::Device dev;
    constexpr std::size_t kN = 96;
    vgpu::DeviceBuffer<float> in(dev, kN);
    vgpu::DeviceBuffer<float> out(dev, kN);
    in.fill(3.0f);

    const vgpu::KernelStats& scalar = vgpu::launch(
        dev, vgpu::LaunchConfig{"scalar", vgpu::Dim3{1, 1, 1}, vgpu::Dim3{32, 1, 1}},
        [&](vgpu::Launch& l, vgpu::BlockCtx& blk) {
            auto i = l.span(in);
            auto o = l.span(out);
            blk.for_each_thread([&](vgpu::ThreadCtx& t) {
                for (std::size_t e = t.linear; e < kN; e += 32) o.st(e, i.ld(e) + 1.0f);
            });
        });

    const vgpu::KernelStats& bulk = vgpu::launch(
        dev, vgpu::LaunchConfig{"bulk", vgpu::Dim3{1, 1, 1}, vgpu::Dim3{32, 1, 1}},
        [&](vgpu::Launch& l, vgpu::BlockCtx& blk) {
            auto i = l.span(in);
            auto o = l.span(out);
            const float* p = i.ld_bulk(0, kN);
            float* q = o.st_bulk(0, kN);
            blk.for_each_thread([&](vgpu::ThreadCtx& t) {
                for (std::size_t e = t.linear; e < kN; e += 32) q[e] = p[e] + 1.0f;
            });
        });

    EXPECT_EQ(bulk.global_bytes_read, scalar.global_bytes_read);
    EXPECT_EQ(bulk.global_bytes_written, scalar.global_bytes_written);
    EXPECT_EQ(bulk.global_bytes_read, kN * sizeof(float));
    for (const float v : out.download()) EXPECT_EQ(v, 4.0f);
}

TEST(VgpuScheduler, PooledArenasAndRegsResetBetweenLaunches) {
    // The execution pool recycles arenas and register slabs; a later launch
    // must see its own footprint, not the pool's high-water mark.
    vgpu::Device dev;
    const vgpu::KernelStats& big = vgpu::launch(
        dev, vgpu::LaunchConfig{"big", vgpu::Dim3{2, 1, 1}, vgpu::Dim3{32, 1, 1}},
        [&](vgpu::Launch&, vgpu::BlockCtx& blk) {
            (void)blk.shared().alloc<double>(512);
            auto r = blk.make_regs<double>(8);
            (void)r;
        });
    const vgpu::KernelStats& small = vgpu::launch(
        dev, vgpu::LaunchConfig{"small", vgpu::Dim3{2, 1, 1}, vgpu::Dim3{32, 1, 1}},
        [&](vgpu::Launch&, vgpu::BlockCtx& blk) {
            (void)blk.shared().alloc<double>(16);
            auto r = blk.make_regs<double>(1);
            (void)r;
        });
    EXPECT_EQ(big.smem_per_block, 512 * sizeof(double));
    EXPECT_EQ(small.smem_per_block, 16 * sizeof(double));
    EXPECT_GT(big.regs_per_thread, small.regs_per_thread);
}

TEST(VgpuScheduler, ProfilerRecordsStayValidAcrossManyLaunches) {
    // Regression: launch records live in a deque precisely so a reference
    // held across later launches stays valid (a vector reallocates). Hold
    // the first record while issuing enough launches to force several
    // reallocations, then check it is still the live front record.
    vgpu::Device dev;
    const vgpu::KernelStats& first = vgpu::launch(
        dev, vgpu::LaunchConfig{"first", vgpu::Dim3{3, 1, 1}, vgpu::Dim3{32, 1, 1}},
        [&](vgpu::Launch&, vgpu::BlockCtx& blk) { blk.add_iters(blk.num_threads()); });
    for (int i = 0; i < 200; ++i) {
        vgpu::launch(dev, vgpu::LaunchConfig{"filler", vgpu::Dim3{1, 1, 1}, vgpu::Dim3{32, 1, 1}},
                     [&](vgpu::Launch&, vgpu::BlockCtx&) {});
    }
    EXPECT_EQ(first.name, "first");
    EXPECT_EQ(first.blocks, 3u);
    EXPECT_EQ(first.thread_iters, 3u * 32u);
    EXPECT_EQ(&first, &dev.profiler().records().front());
    EXPECT_EQ(dev.profiler().launch_count(), 201u);
}

}  // namespace

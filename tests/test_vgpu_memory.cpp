// Unit tests for the virtual GPU memory primitives: device buffers,
// transfer accounting, shared-memory arenas, and register arrays.

#include <gtest/gtest.h>

#include "vgpu/vgpu.hpp"

namespace {

using namespace cuzc::vgpu;

TEST(VgpuBuffer, UploadDownloadRoundTripAndCounting) {
    Device dev;
    std::vector<float> host{1.5f, -2.0f, 3.25f};
    DeviceBuffer<float> buf(dev, std::span<const float>(host));
    EXPECT_EQ(dev.h2d_bytes(), 3 * sizeof(float));

    const auto back = buf.download();
    EXPECT_EQ(back, host);
    EXPECT_EQ(dev.d2h_bytes(), 3 * sizeof(float));

    std::vector<float> next{9.0f, 8.0f, 7.0f};
    buf.upload(next);
    EXPECT_EQ(dev.h2d_bytes(), 6 * sizeof(float));
    std::vector<float> sink(3);
    buf.download(std::span<float>(sink));
    EXPECT_EQ(sink, next);
}

TEST(VgpuBuffer, UninitializedAllocationThenFill) {
    Device dev;
    DeviceBuffer<double> buf(dev, 16);
    EXPECT_EQ(dev.h2d_bytes(), 0u);  // plain allocation moves no data
    buf.fill(4.5);
    for (const double v : buf.download()) EXPECT_DOUBLE_EQ(v, 4.5);
}

TEST(VgpuSharedArena, AlignmentAndPeakTracking) {
    std::uint64_t rd = 0, wr = 0;
    SharedArena arena(1024, &rd, &wr);
    auto bytes = arena.alloc<std::uint8_t>(3);  // offset now 3
    auto doubles = arena.alloc<double>(2);      // must align to 8 -> offset 8..24
    (void)bytes;
    (void)doubles;
    EXPECT_EQ(arena.peak_bytes(), 24u);
    arena.reset();
    auto again = arena.alloc<double>(1);  // reuses from offset 0
    (void)again;
    EXPECT_EQ(arena.peak_bytes(), 24u);  // peak survives reset
}

TEST(VgpuSharedArena, LoadStoreCounting) {
    std::uint64_t rd = 0, wr = 0;
    SharedArena arena(256, &rd, &wr);
    auto a = arena.alloc<float>(4);
    a.st(0, 1.0f);
    a.st(1, 2.0f);
    EXPECT_EQ(wr, 2 * sizeof(float));
    EXPECT_FLOAT_EQ(a.ld(0), 1.0f);
    EXPECT_EQ(rd, sizeof(float));
}

TEST(VgpuSharedArenaDeathTest, OverCapacityAllocationAbortsInEveryBuildType) {
    // The capacity check is not an assert: an NDEBUG build must stop too,
    // rather than hand out storage past the arena.
    std::uint64_t rd = 0, wr = 0;
    SharedArena arena(1024, &rd, &wr);
    (void)arena.alloc<double>(120);  // 960 bytes
    EXPECT_DEATH((void)arena.alloc<double>(9), "exceeds the per-block capacity");
    EXPECT_DEATH((void)arena.alloc<double>(std::size_t{1} << 62), "exceeds");
    (void)arena.alloc<double>(8);  // exactly full is fine
    EXPECT_EQ(arena.peak_bytes(), 1024u);
}

TEST(VgpuRegArray, MultiSlotPerThreadState) {
    RegArray<double> regs(4, 3, -1.0);
    for (std::uint32_t t = 0; t < 4; ++t) {
        for (std::uint32_t s = 0; s < 3; ++s) {
            EXPECT_DOUBLE_EQ(regs.at(t, s), -1.0);
            regs.at(t, s) = t * 10.0 + s;
        }
    }
    ThreadCtx ctx;
    ctx.linear = 2;
    EXPECT_DOUBLE_EQ(regs(ctx, 1), 21.0);
    EXPECT_EQ(regs.width(), 3u);
}

TEST(VgpuBlock, ThreadAtMapsAllDims) {
    KernelStats stats;
    DeviceProps props;
    SharedArena arena(1024, &stats.shared_bytes_read, &stats.shared_bytes_written);
    BlockCtx blk(stats, props, Dim3{1, 1, 1}, Dim3{4, 3, 2}, Dim3{0, 0, 0}, arena);
    EXPECT_EQ(blk.num_threads(), 24u);
    EXPECT_EQ(blk.num_warps(), 1u);
    const ThreadCtx t = blk.thread_at(4 * 3 + 4 * 1 + 2);  // z=1, y=1, x=2
    EXPECT_EQ(t.tid.x, 2u);
    EXPECT_EQ(t.tid.y, 1u);
    EXPECT_EQ(t.tid.z, 1u);
}

TEST(VgpuBlock, IterAndOpCountersAccumulate) {
    Device dev;
    const KernelStats& stats =
        launch(dev, LaunchConfig{"k", Dim3{2, 1, 1}, Dim3{32, 1, 1}}, [&](Launch&, BlockCtx& blk) {
            blk.for_each_thread([&](ThreadCtx&) {
                blk.add_iters(3);
                blk.add_ops(7);
            });
        });
    EXPECT_EQ(stats.thread_iters, 2u * 32 * 3);
    EXPECT_EQ(stats.lane_ops, 2u * 32 * 7);
    EXPECT_DOUBLE_EQ(stats.iters_per_thread(), 3.0);
}

TEST(VgpuDeviceSpan, CountsPerElementBytes) {
    Device dev;
    DeviceBuffer<double> buf(dev, 8);
    launch(dev, LaunchConfig{"k", Dim3{1, 1, 1}, Dim3{32, 1, 1}}, [&](Launch& l, BlockCtx& blk) {
        auto s = l.span(buf);
        blk.for_each_thread([&](ThreadCtx& t) {
            if (t.linear < 8) s.st(t.linear, 1.0);
        });
        blk.for_each_thread([&](ThreadCtx& t) {
            if (t.linear < 4) (void)s.ld(t.linear);
        });
    });
    const auto rec = dev.profiler().records().back();
    EXPECT_EQ(rec.global_bytes_written, 8 * sizeof(double));
    EXPECT_EQ(rec.global_bytes_read, 4 * sizeof(double));
}

namespace zc = ::cuzc::zc;

zc::FieldRef staged_field(std::size_t n) {
    zc::FieldBuffer staging(zc::Dims3{1, 1, n});
    for (std::size_t i = 0; i < n; ++i) {
        staging.data()[i] = static_cast<float>(i) - 0.25f;
    }
    return std::move(staging).seal();
}

TEST(VgpuBufferAdopt, AliasesPayloadWithoutCopying) {
    Device dev;
    const zc::FieldRef host = staged_field(32);
    zc::reset_data_plane_stats();
    DeviceBuffer<float> buf(dev, 32);
    buf.adopt(host);
    EXPECT_EQ(dev.h2d_bytes(), 32 * sizeof(float));  // modeled PCIe still charged
    const auto s = zc::data_plane_stats();
    EXPECT_EQ(s.bytes_copied, 0u);
    EXPECT_EQ(s.adoptions, 1u);
    EXPECT_EQ(host.slab().use_count(), 2u);  // buffer pins the payload
    const auto back = buf.download();
    for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(back[i], host.data()[i]);
}

TEST(VgpuBufferAdopt, MutationDetachesAndPreservesSharedPayload) {
    Device dev;
    const zc::FieldRef host = staged_field(16);
    DeviceBuffer<float> buf(dev, 16);
    buf.adopt(host);
    zc::reset_data_plane_stats();
    buf.raw()[0] = 99.0f;  // mutable access materializes a private copy
    EXPECT_EQ(zc::data_plane_stats().bytes_copied, 16 * sizeof(float));
    EXPECT_EQ(host.data()[0], -0.25f);  // shared payload untouched
    EXPECT_EQ(buf.download()[0], 99.0f);
    EXPECT_EQ(host.slab().use_count(), 1u);  // pin dropped with the alias
}

TEST(VgpuBufferAdopt, CorruptionCopiesFirstAndMatchesUploadBitFlip) {
    // Same fault plan, same op sequence: upload and adopt must draw the
    // same corruption event and flip the same bit — on a private copy.
    FaultPlan plan;
    plan.seed = 77;
    plan.upload_corrupt = 1.0;
    const zc::FieldRef host = staged_field(64);

    Device via_upload;
    via_upload.set_fault_plan(plan);
    DeviceBuffer<float> a(via_upload, 64);
    a.upload(host.data());

    Device via_adopt;
    via_adopt.set_fault_plan(plan);
    DeviceBuffer<float> b(via_adopt, 64);
    b.adopt(host);

    EXPECT_EQ(a.download(), b.download());
    // The flip landed somewhere; the shared payload never saw it.
    bool flipped = false;
    const auto got = b.download();
    for (std::size_t i = 0; i < 64; ++i) {
        if (got[i] != host.data()[i]) flipped = true;
        EXPECT_EQ(host.data()[i], static_cast<float>(i) - 0.25f);
    }
    EXPECT_TRUE(flipped);
    EXPECT_EQ(host.slab().use_count(), 1u);  // corrupt path does not pin
}

}  // namespace

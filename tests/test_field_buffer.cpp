// The zero-copy data plane core: slab pool recycling, FieldRef ownership
// and aliasing, FieldBuffer staging, and the process-wide copy ledger.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "test_helpers.hpp"
#include "zc/field_buffer.hpp"
#include "zc/tensor.hpp"

namespace {

namespace zc = ::cuzc::zc;
namespace tst = ::cuzc::testing;

std::uintptr_t addr(const float* p) { return reinterpret_cast<std::uintptr_t>(p); }

TEST(FieldBuffer, PooledSlabsAreCacheLineAligned) {
    for (std::size_t bytes : {1ul, 64ul, 4096ul, 40000ul}) {
        const zc::SlabHandle h = zc::SlabHandle::acquire(bytes);
        ASSERT_TRUE(h);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(h.data()) % zc::kSlabAlign, 0u);
        EXPECT_GE(h.capacity(), bytes);
    }
}

TEST(FieldBuffer, HandleCopiesShareOneSlab) {
    const zc::SlabHandle a = zc::SlabHandle::acquire(100);
    EXPECT_EQ(a.use_count(), 1u);
    {
        const zc::SlabHandle b = a;
        EXPECT_EQ(a.use_count(), 2u);
        EXPECT_EQ(b.data(), a.data());
    }
    EXPECT_EQ(a.use_count(), 1u);
}

TEST(FieldBuffer, PoolRecyclesReleasedSlabs) {
    zc::reset_data_plane_stats();
    float* first = nullptr;
    {
        const zc::SlabHandle h = zc::SlabHandle::acquire(512 * sizeof(float));
        first = reinterpret_cast<float*>(h.data());
    }
    // Same bucket -> the shelved slab comes back instead of a fresh alloc.
    const zc::SlabHandle again = zc::SlabHandle::acquire(512 * sizeof(float));
    EXPECT_EQ(reinterpret_cast<float*>(again.data()), first);
    const auto s = zc::data_plane_stats();
    EXPECT_GE(s.slab_reuses, 1u);
}

TEST(FieldBuffer, FieldMoveAdoptsStorageWithoutCopy) {
    zc::Field f = tst::random_field({4, 5, 6}, 11);
    const float* storage = f.data().data();
    zc::reset_data_plane_stats();
    const zc::FieldRef ref(std::move(f));
    EXPECT_EQ(ref.data().data(), storage);  // same bytes, zero copies
    EXPECT_EQ(zc::data_plane_stats().bytes_copied, 0u);
    EXPECT_EQ(ref.dims(), (zc::Dims3{4, 5, 6}));
    EXPECT_EQ(ref.size(), 4u * 5u * 6u);
}

TEST(FieldBuffer, FieldCopyIsCountedAndAligned) {
    const zc::Field f = tst::random_field({3, 3, 3}, 5);
    zc::reset_data_plane_stats();
    const zc::FieldRef ref(f);
    EXPECT_EQ(zc::data_plane_stats().bytes_copied, f.size() * sizeof(float));
    EXPECT_EQ(addr(ref.data().data()) % zc::kSlabAlign, 0u);
    ASSERT_EQ(ref.size(), f.size());
    for (std::size_t i = 0; i < f.size(); ++i) EXPECT_EQ(ref.data()[i], f.data()[i]);
}

TEST(FieldBuffer, DefaultRefMirrorsDefaultField) {
    const zc::Field f;
    const zc::FieldRef r;
    EXPECT_EQ(r.dims(), f.dims());
    EXPECT_EQ(r.size(), f.size());
    EXPECT_TRUE(r.empty());
    EXPECT_FALSE(r.slab());
}

TEST(FieldBuffer, AliasPinsGuardSlab) {
    const zc::SlabHandle slab = zc::SlabHandle::acquire(64 * sizeof(float));
    auto* p = reinterpret_cast<float*>(slab.data());
    for (int i = 0; i < 64; ++i) p[i] = static_cast<float>(i);
    {
        const zc::FieldRef view = zc::FieldRef::alias(slab, p, zc::Dims3{4, 4, 4});
        EXPECT_EQ(slab.use_count(), 2u);
        EXPECT_EQ(view.data().data(), p);
        EXPECT_EQ(view.size(), 64u);
    }
    EXPECT_EQ(slab.use_count(), 1u);
}

TEST(FieldBuffer, RefOutlivesOriginatingHandle) {
    zc::FieldRef ref;
    {
        zc::SlabHandle slab = zc::SlabHandle::acquire(16 * sizeof(float));
        auto* p = reinterpret_cast<float*>(slab.data());
        for (int i = 0; i < 16; ++i) p[i] = 2.0f * static_cast<float>(i);
        ref = zc::FieldRef::alias(std::move(slab), p, zc::Dims3{2, 2, 4});
    }
    // The producer's handle is gone; the view must still read its bytes.
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(ref.data()[i], 2.0f * static_cast<float>(i));
    }
}

TEST(FieldBuffer, StagingSealsIntoAlignedRef) {
    zc::FieldBuffer staging(zc::Dims3{2, 3, 4});
    ASSERT_EQ(staging.data().size(), 24u);
    for (std::size_t i = 0; i < staging.data().size(); ++i) {
        staging.data()[i] = static_cast<float>(i) * 0.5f;
    }
    const float* storage = staging.data().data();
    const zc::FieldRef ref = std::move(staging).seal();
    EXPECT_EQ(ref.data().data(), storage);  // seal never copies
    EXPECT_EQ(addr(ref.data().data()) % zc::kSlabAlign, 0u);
    EXPECT_EQ(ref.view().dims(), (zc::Dims3{2, 3, 4}));
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref.data()[i], static_cast<float>(i) * 0.5f);
    }
}

TEST(FieldBuffer, StatsTrackPoolHighWater) {
    zc::reset_data_plane_stats();
    const auto before = zc::data_plane_stats();
    // Ask for a bucket size nothing else in this binary uses, so the
    // acquisition must allocate fresh and push the high-water mark.
    const zc::SlabHandle big = zc::SlabHandle::acquire(48ull << 20);
    const auto after = zc::data_plane_stats();
    EXPECT_GE(after.slab_allocs, before.slab_allocs + 1);
    EXPECT_GE(after.pool_high_water_bytes, before.pool_high_water_bytes + (48ull << 20));
}

}  // namespace

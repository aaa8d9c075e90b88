// Tests of the SIMD lane engine: runtime backend dispatch, the fixed-tree
// lane reductions' equivalence with the warp shuffle ladder, and the
// bit-identical-results contract — every pattern kernel and the moZC
// baseline must produce the exact same reports and profiler counters on
// every available backend (scalar, SSE2, AVX2, NEON).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cuzc/cuzc.hpp"
#include "mozc/mozc.hpp"
#include "test_helpers.hpp"
#include "vgpu/exec_pool.hpp"
#include "vgpu/simd.hpp"
#include "zc/zc.hpp"

namespace {

namespace zc = ::cuzc::zc;
namespace vgpu = ::cuzc::vgpu;
namespace simd = ::cuzc::vgpu::simd;
namespace czc = ::cuzc::cuzc;
namespace mozc = ::cuzc::mozc;
namespace tst = ::cuzc::testing;

/// Restore the backend active at construction when the scope ends, so a
/// failing test cannot leak a forced backend into later tests.
struct BackendGuard {
    simd::Backend saved = simd::active_backend();
    ~BackendGuard() { simd::force_backend(saved); }
};

struct Fields {
    zc::Field orig;
    zc::Field dec;
};

Fields make(zc::Dims3 d, std::uint64_t seed = 1) {
    Fields f{tst::smooth_field(d, seed), {}};
    f.dec = tst::perturbed(f.orig, 0.01, seed + 100);
    return f;
}

/// The four dataset shapes of the equivalence matrix: an even baseline, an
/// odd-extent shape (n % 8 != 0 and a trailing partial warp), a cube whose
/// 16-wide pattern-2 tiles leave derivative rows shorter than any vector
/// width, and a tiny field with fewer elements than one warp per slice.
const zc::Dims3 kShapes[] = {{24, 20, 16}, {33, 21, 13}, {20, 20, 20}, {7, 5, 3}};

void expect_stats_equal(const vgpu::KernelStats& a, const vgpu::KernelStats& b,
                        const char* what) {
    EXPECT_EQ(a.launches, b.launches) << what;
    EXPECT_EQ(a.grid_syncs, b.grid_syncs) << what;
    EXPECT_EQ(a.blocks, b.blocks) << what;
    EXPECT_EQ(a.global_bytes_read, b.global_bytes_read) << what;
    EXPECT_EQ(a.global_bytes_written, b.global_bytes_written) << what;
    EXPECT_EQ(a.shared_bytes_read, b.shared_bytes_read) << what;
    EXPECT_EQ(a.shared_bytes_written, b.shared_bytes_written) << what;
    EXPECT_EQ(a.shuffle_ops, b.shuffle_ops) << what;
    EXPECT_EQ(a.thread_iters, b.thread_iters) << what;
    EXPECT_EQ(a.lane_ops, b.lane_ops) << what;
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndForceable) {
    BackendGuard guard;
    EXPECT_TRUE(simd::backend_available(simd::Backend::kScalar));
    ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
    EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);
    EXPECT_EQ(simd::ops().width, 1u);
}

TEST(SimdDispatch, AvailableBackendsAreForceableAndNamed) {
    BackendGuard guard;
    const auto backends = simd::available_backends();
    ASSERT_FALSE(backends.empty());
    for (simd::Backend b : backends) {
        ASSERT_TRUE(simd::force_backend(b)) << simd::backend_name(b);
        EXPECT_EQ(simd::active_backend(), b);
        EXPECT_STREQ(simd::ops().name, simd::backend_name(b));
        EXPECT_GE(simd::ops().width, 1u);
        // The banner surfaces the active backend for bench/CLI logs.
        EXPECT_NE(simd::banner().find(simd::backend_name(b)), std::string::npos);
    }
}

TEST(SimdDispatch, UnavailableBackendIsRejected) {
    BackendGuard guard;
    const auto backends = simd::available_backends();
    for (simd::Backend b : {simd::Backend::kScalar, simd::Backend::kSse2, simd::Backend::kAvx2,
                            simd::Backend::kNeon}) {
        const bool avail = std::find(backends.begin(), backends.end(), b) != backends.end();
        EXPECT_EQ(simd::force_backend(b), avail) << simd::backend_name(b);
        if (!avail) {
            // A rejected force must leave the previous selection in place.
            EXPECT_NE(simd::active_backend(), b);
        }
    }
}

/// Reference shuffle ladder: the per-offset fold reduce_shfl_down performs
/// (off = 16, 8, 4, 2, 1; lane l folds with l + off when both are < n;
/// in-round reads see pre-update values, which ascending in-place order
/// preserves because every source index is ahead of the writing lane).
template <class Op>
double ladder(const double* lanes, std::uint32_t n, Op op) {
    double buf[vgpu::kWarpSize];
    std::copy(lanes, lanes + n, buf);
    for (std::uint32_t off = 16; off > 0; off /= 2) {
        for (std::uint32_t l = 0; l + off < n; ++l) buf[l] = op(buf[l], buf[l + off]);
    }
    return buf[0];
}

TEST(SimdLaneReduce, MatchesShuffleLadderOnEveryBackend) {
    BackendGuard guard;
    double lanes[vgpu::kWarpSize];
    for (std::uint32_t i = 0; i < vgpu::kWarpSize; ++i) {
        // Values with wildly different magnitudes make the fold order
        // observable: a different pairwise tree changes the sum's bits.
        lanes[i] = (i % 2 == 0 ? 1.0 : -1.0) * (1.0 + 1e-13 * i) * (1u << (i % 20));
    }
    for (simd::Backend b : simd::available_backends()) {
        ASSERT_TRUE(simd::force_backend(b));
        const simd::Ops& ops = simd::ops();
        for (std::uint32_t n : {1u, 2u, 3u, 5u, 8u, 17u, 31u, 32u}) {
            EXPECT_EQ(ops.reduce_sum(lanes, n),
                      ladder(lanes, n, [](double x, double y) { return x + y; }))
                << simd::backend_name(b) << " sum n=" << n;
            EXPECT_EQ(ops.reduce_min(lanes, n),
                      ladder(lanes, n, [](double x, double y) { return x < y ? x : y; }))
                << simd::backend_name(b) << " min n=" << n;
            EXPECT_EQ(ops.reduce_max(lanes, n),
                      ladder(lanes, n, [](double x, double y) { return x > y ? x : y; }))
                << simd::backend_name(b) << " max n=" << n;
        }
    }
}

// --- pattern-3 lane primitives ------------------------------------------

constexpr std::uint32_t kP3Vals = simd::kP3StripVals;
constexpr std::uint32_t kP3Lanes = simd::kP3Lanes;
constexpr std::size_t kP3Row = simd::kP3RowVals;
/// Marks output lanes a primitive must leave untouched.
constexpr double kUntouched = -12345.678;

/// Lane values with mixed magnitudes, signed zeros, ties, and one NaN
/// (a single NaN payload, so sums stay bit-comparable whatever the operand
/// order of a backend's scalar add).
std::vector<double> p3_lane_values(std::size_t n, std::uint64_t seed) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double u = ::cuzc::data::to_unit(::cuzc::data::mix64(seed * 977 + i));
        v[i] = (u * 2.0 - 1.0) * (i % 5 == 0 ? 1e6 : 1.0);
    }
    if (n > 3) v[3] = -0.0;
    if (n > 4) v[4] = 0.0;
    if (n > 9) v[9] = v[8];
    if (n > 13 && seed % 2 == 1) v[13] = std::numeric_limits<double>::quiet_NaN();
    return v;
}

/// Input rows for p3_fold_rows: p3_lane_values plus, in every min/max
/// slot, -0.0 and +0.0 alternating down the rows of lane 2 and a NaN in the
/// last row of lane 13, so the op(row, acc) operand order shows in the bits.
std::vector<double> p3_rows(std::uint32_t rows) {
    auto in = p3_lane_values(kP3Row * rows, rows + 1);
    for (std::uint32_t r = 0; r < rows; ++r) {
        for (const std::uint32_t v : {0u, 1u, 4u, 5u}) {
            in[r * kP3Row + v * kP3Lanes + 2] = r % 2 == 0 ? -0.0 : 0.0;
            if (r + 1 == rows) {
                in[r * kP3Row + v * kP3Lanes + 13] = std::numeric_limits<double>::quiet_NaN();
            }
        }
    }
    return in;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The kernel's per-offset shuffle ladder, written out: lane j folds
/// sources j+1..j+wx-1 in order, a source at or past `lanes` reading lane
/// j itself (shfl_down); `acc = std::min(acc, v)` etc. as in the warp code.
std::vector<double> ref_strip_fold(const double* v1, const double* v2, std::uint32_t lanes,
                                   std::uint32_t wx, std::uint32_t n) {
    std::vector<double> out(kP3Row, kUntouched);
    for (std::uint32_t j = 0; j < n; ++j) {
        double a[kP3Vals] = {v1[j], v1[j], v1[j], v1[j] * v1[j], v2[j],
                             v2[j], v2[j], v2[j] * v2[j], v1[j] * v2[j]};
        for (std::uint32_t off = 1; off < wx; ++off) {
            const std::uint32_t src = j + off < lanes ? j + off : j;
            const double g1 = v1[src], g2 = v2[src];
            a[0] = std::min(a[0], g1);
            a[1] = std::max(a[1], g1);
            a[2] += g1;
            a[3] += g1 * g1;
            a[4] = std::min(a[4], g2);
            a[5] = std::max(a[5], g2);
            a[6] += g2;
            a[7] += g2 * g2;
            a[8] += g1 * g2;
        }
        for (std::uint32_t v = 0; v < kP3Vals; ++v) out[v * kP3Lanes + j] = a[v];
    }
    return out;
}

/// Row fold from the identities (+inf, -inf, 0.0) in row order.
std::vector<double> ref_fold_rows(const double* in, std::uint32_t rows, std::uint32_t n) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> out(kP3Row, kUntouched);
    for (std::uint32_t j = 0; j < n; ++j) {
        double a[kP3Vals] = {kInf, -kInf, 0.0, 0.0, kInf, -kInf, 0.0, 0.0, 0.0};
        for (std::uint32_t r = 0; r < rows; ++r) {
            const auto at = [&](std::uint32_t v) { return in[r * kP3Row + v * kP3Lanes + j]; };
            a[0] = std::min(a[0], at(0));
            a[1] = std::max(a[1], at(1));
            a[4] = std::min(a[4], at(4));
            a[5] = std::max(a[5], at(5));
            for (const std::uint32_t v : {2u, 3u, 6u, 7u, 8u}) a[v] += at(v);
        }
        for (std::uint32_t v = 0; v < kP3Vals; ++v) out[v * kP3Lanes + j] = a[v];
    }
    return out;
}

/// Edge output-lane counts for a backend of width `w`: one lane, a partial
/// first vector, exact vectors, one lane into the tail, the owner span
/// 32 - wx + 1 of a full sweep, and every available lane.
std::vector<std::uint32_t> p3_edge_counts(std::size_t w, std::uint32_t lanes, std::uint32_t wx) {
    std::vector<std::uint32_t> ns{1, lanes};
    for (const std::size_t c : {w - 1, w, w + 1, 2 * w + 1}) {
        ns.push_back(static_cast<std::uint32_t>(c));
    }
    if (wx <= kP3Lanes) ns.push_back(kP3Lanes - wx + 1);
    std::vector<std::uint32_t> out;
    for (const std::uint32_t n : ns) {
        if (n >= 1 && n <= lanes) out.push_back(n);
    }
    return out;
}

TEST(SimdPattern3, StripFoldMatchesLadderAndScalarAtEdgeLaneCounts) {
    BackendGuard guard;
    ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
    const simd::Ops scalar = simd::ops();
    for (simd::Backend b : simd::available_backends()) {
        ASSERT_TRUE(simd::force_backend(b));
        const simd::Ops& ops = simd::ops();
        for (const std::uint64_t seed : {1u, 2u}) {
            const auto v1 = p3_lane_values(kP3Lanes, seed);
            const auto v2 = p3_lane_values(kP3Lanes, seed + 40);
            // Fewer than 32 active lanes exercise the shfl_down clamp.
            for (const std::uint32_t lanes : {32u, 31u, 17u, 5u, 1u}) {
                for (const std::uint32_t wx : {1u, 2u, 3u, 8u, 10u, 32u}) {
                    for (const std::uint32_t n : p3_edge_counts(ops.width, lanes, wx)) {
                        SCOPED_TRACE(std::string(ops.name) + " lanes=" + std::to_string(lanes) +
                                     " wx=" + std::to_string(wx) + " n=" + std::to_string(n) +
                                     " seed=" + std::to_string(seed));
                        std::vector<double> got(kP3Row, kUntouched), base(kP3Row, kUntouched);
                        ops.p3_strip_fold(v1.data(), v2.data(), lanes, wx, n, got.data());
                        scalar.p3_strip_fold(v1.data(), v2.data(), lanes, wx, n, base.data());
                        EXPECT_TRUE(same_bits(got, base));
                        EXPECT_TRUE(same_bits(
                            got, ref_strip_fold(v1.data(), v2.data(), lanes, wx, n)));
                    }
                }
            }
        }
    }
}

TEST(SimdPattern3, FoldRowsMatchesReferenceAndScalarAtEdgeLaneCounts) {
    BackendGuard guard;
    ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
    const simd::Ops scalar = simd::ops();
    for (simd::Backend b : simd::available_backends()) {
        ASSERT_TRUE(simd::force_backend(b));
        const simd::Ops& ops = simd::ops();
        for (const std::uint32_t rows : {1u, 2u, 7u, 10u}) {
            const auto in = p3_rows(rows);
            for (const std::uint32_t wx : {1u, 8u, 10u}) {
                for (const std::uint32_t n : p3_edge_counts(ops.width, kP3Lanes, wx)) {
                    SCOPED_TRACE(std::string(ops.name) + " rows=" + std::to_string(rows) +
                                 " n=" + std::to_string(n));
                    std::vector<double> got(kP3Row, kUntouched), base(kP3Row, kUntouched);
                    ops.p3_fold_rows(in.data(), rows, n, got.data());
                    scalar.p3_fold_rows(in.data(), rows, n, base.data());
                    EXPECT_TRUE(same_bits(got, base));
                    EXPECT_TRUE(same_bits(got, ref_fold_rows(in.data(), rows, n)));
                }
            }
        }
    }
}

TEST(SimdBackendEquivalence, CuzcPatternsBitIdentical) {
    BackendGuard guard;
    for (const zc::Dims3& dims : kShapes) {
        const auto f = make(dims, 7 + dims.h);
        zc::MetricsConfig cfg;
        cfg.pdf_bins = 16;

        ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
        vgpu::Device dev0;
        const czc::CuzcResult base = czc::assess(dev0, f.orig.view(), f.dec.view(), cfg);

        for (simd::Backend b : simd::available_backends()) {
            if (b == simd::Backend::kScalar) continue;
            ASSERT_TRUE(simd::force_backend(b));
            vgpu::Device dev;
            const czc::CuzcResult r = czc::assess(dev, f.orig.view(), f.dec.view(), cfg);
            SCOPED_TRACE(std::string(simd::backend_name(b)) + " dims " +
                         std::to_string(dims.h) + "x" + std::to_string(dims.w) + "x" +
                         std::to_string(dims.l));
            tst::expect_reports_identical(base.report, r.report);
            expect_stats_equal(base.pattern1, r.pattern1, "pattern1");
            expect_stats_equal(base.pattern2, r.pattern2, "pattern2");
            expect_stats_equal(base.pattern3, r.pattern3, "pattern3");
        }
    }
}

TEST(SimdBackendEquivalence, MozcBaselineBitIdentical) {
    BackendGuard guard;
    // Adds a sub-warp field (27 elements) to the shared shape matrix: the
    // reduce chunks then cover a single partial warp.
    std::vector<zc::Dims3> shapes(std::begin(kShapes), std::end(kShapes));
    shapes.push_back({3, 3, 3});
    for (const zc::Dims3& dims : shapes) {
        const auto f = make(dims, 11 + dims.w);
        zc::MetricsConfig cfg;
        cfg.pdf_bins = 16;

        ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
        vgpu::Device dev0;
        const mozc::MozcResult base = mozc::assess(dev0, f.orig.view(), f.dec.view(), cfg);

        for (simd::Backend b : simd::available_backends()) {
            if (b == simd::Backend::kScalar) continue;
            ASSERT_TRUE(simd::force_backend(b));
            vgpu::Device dev;
            const mozc::MozcResult r = mozc::assess(dev, f.orig.view(), f.dec.view(), cfg);
            SCOPED_TRACE(std::string(simd::backend_name(b)) + " dims " +
                         std::to_string(dims.h) + "x" + std::to_string(dims.w) + "x" +
                         std::to_string(dims.l));
            tst::expect_reports_identical(base.report, r.report);
            expect_stats_equal(base.pattern1, r.pattern1, "mozc pattern1");
            expect_stats_equal(base.pattern2, r.pattern2, "mozc pattern2");
            expect_stats_equal(base.pattern3, r.pattern3, "mozc pattern3");
        }
    }
}

TEST(ThreadTableCache, AlternatingShapesKeepPointersStable) {
    vgpu::ThreadTable table;
    const vgpu::Dim3 a{32, 8, 1}, b{16, 16, 1}, c{8, 8, 1};
    const vgpu::ThreadCtx* pa = table.get(a);
    const vgpu::ThreadCtx* pb = table.get(b);
    // Alternating between two shapes (pattern1 vs pattern2 launches) must
    // flip between the cached entries, not rebuild.
    EXPECT_EQ(table.get(a), pa);
    EXPECT_EQ(table.get(b), pb);
    EXPECT_EQ(table.get(a), pa);
    // A third shape evicts only the least-recently-used entry.
    (void)table.get(c);
    EXPECT_EQ(table.get(a), pa);
}

TEST(ThreadTableCache, RebuiltTableHasCorrectContexts) {
    vgpu::ThreadTable table;
    const vgpu::ThreadCtx* p = table.get({16, 16, 1});
    for (std::uint32_t i : {0u, 15u, 16u, 100u, 255u}) {
        EXPECT_EQ(p[i].linear, i);
        EXPECT_EQ(p[i].tid.x, i % 16);
        EXPECT_EQ(p[i].tid.y, i / 16);
        EXPECT_EQ(p[i].warp, i / vgpu::kWarpSize);
        EXPECT_EQ(p[i].lane, i % vgpu::kWarpSize);
    }
}

}  // namespace

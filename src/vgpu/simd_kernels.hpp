#pragma once

// Generic implementation of every simd::Ops kernel, parameterized over a
// backend vector trait V (see simd_scalar.cpp for the trait contract). Each
// backend translation unit instantiates detail::make_ops<V>() under its own
// target flags; this header contains no ISA-specific code.
//
// Bit-identity rules observed throughout:
//  * vector min/max use x86 MINPD/MAXPD ternary semantics: min(a,b) is
//    `a < b ? a : b` (NaN or equal-with-±0 picks b). Scalar tails use the
//    s_min/s_max helpers below, which spell out the same ternary, so every
//    lane -- vector or tail -- folds identically.
//  * two absolute values exist: abs() clears the sign bit (std::fabs) and
//    sel_abs() is the compare-select `x < 0 ? -x : x` (preserves -0.0) used
//    by zc::pwr_error's denominator.
//  * no FMA: every multiply and add is a separate, exactly-rounded op, and
//    backend TUs are never compiled with -mfma, so no contraction happens.
//  * accumulator updates keep the scalar idioms' operand order:
//    `acc = std::min(acc, v)` is min(v, acc), `acc += v` is acc + v.

#include <cmath>
#include <cstring>
#include <limits>

#include "simd.hpp"

namespace cuzc::vgpu::simd::detail {

// Scalar reference semantics shared by every tail loop (and, via the
// scalar trait, the whole scalar backend).
[[nodiscard]] inline double s_min(double a, double b) noexcept { return a < b ? a : b; }
[[nodiscard]] inline double s_max(double a, double b) noexcept { return a > b ? a : b; }
[[nodiscard]] inline double s_sel_abs(double x) noexcept { return x < 0 ? -x : x; }
[[nodiscard]] inline double s_pwr(double x, double y, double eps) noexcept {
    const double ax = s_sel_abs(x);
    return (y - x) / s_max(ax, eps);
}

/// One lane with the scalar reference semantics behind the vector trait's
/// interface, so a kernel's scalar tail can run the same code as its
/// vector body.
struct ScalarLane {
    static constexpr std::size_t W = 1;
    using reg = double;
    static reg loadu(const double* p) noexcept { return *p; }
    static void storeu(double* p, reg v) noexcept { *p = v; }
    static reg bcast(double v) noexcept { return v; }
    static reg add(reg a, reg b) noexcept { return a + b; }
    static reg mul(reg a, reg b) noexcept { return a * b; }
    static reg vmin(reg a, reg b) noexcept { return s_min(a, b); }
    static reg vmax(reg a, reg b) noexcept { return s_max(a, b); }
};

/// The nine pattern-3 accumulators of one chunk of T::W lanes, in
/// kP3StripVals order (min1 max1 sum1 sumsq1 min2 max2 sum2 sumsq2 cross),
/// held in registers for the whole fold.
template <class T>
struct P3Acc {
    using R = typename T::reg;
    R v[kP3StripVals];

    /// Window start: the lane's own values.
    [[nodiscard]] static P3Acc window(R d1, R d2) noexcept {
        return {{d1, d1, d1, T::mul(d1, d1), d2, d2, d2, T::mul(d2, d2), T::mul(d1, d2)}};
    }
    /// Row-fold identities: +inf for the min slots, -inf for max, 0.0 for sums.
    [[nodiscard]] static P3Acc rows() noexcept {
        constexpr double kInf = std::numeric_limits<double>::infinity();
        const R inf = T::bcast(kInf), ninf = T::bcast(-kInf), zero = T::bcast(0.0);
        return {{inf, ninf, zero, zero, inf, ninf, zero, zero, zero}};
    }
    /// One more element of the x window.
    void fold_window(R g1, R g2) noexcept {
        v[0] = T::vmin(g1, v[0]);
        v[1] = T::vmax(g1, v[1]);
        v[2] = T::add(v[2], g1);
        v[3] = T::add(v[3], T::mul(g1, g1));
        v[4] = T::vmin(g2, v[4]);
        v[5] = T::vmax(g2, v[5]);
        v[6] = T::add(v[6], g2);
        v[7] = T::add(v[7], T::mul(g2, g2));
        v[8] = T::add(v[8], T::mul(g1, g2));
    }
    /// One reduced row whose slot s sits at p[s * kP3Lanes].
    void fold_row(const double* p) noexcept {
        v[0] = T::vmin(T::loadu(p + 0 * kP3Lanes), v[0]);
        v[1] = T::vmax(T::loadu(p + 1 * kP3Lanes), v[1]);
        v[2] = T::add(v[2], T::loadu(p + 2 * kP3Lanes));
        v[3] = T::add(v[3], T::loadu(p + 3 * kP3Lanes));
        v[4] = T::vmin(T::loadu(p + 4 * kP3Lanes), v[4]);
        v[5] = T::vmax(T::loadu(p + 5 * kP3Lanes), v[5]);
        v[6] = T::add(v[6], T::loadu(p + 6 * kP3Lanes));
        v[7] = T::add(v[7], T::loadu(p + 7 * kP3Lanes));
        v[8] = T::add(v[8], T::loadu(p + 8 * kP3Lanes));
    }
    void store(double* p) const noexcept {
        for (std::uint32_t s = 0; s < kP3StripVals; ++s) T::storeu(p + s * kP3Lanes, v[s]);
    }
};

template <class V>
struct Kernels {
    using reg = typename V::reg;
    static constexpr std::size_t W = V::W;

    // ---- conversions ----------------------------------------------------

    static void cvt(double* dst, const float* src, std::size_t n) {
        std::size_t i = 0;
        for (; i + W <= n; i += W) V::storeu(dst + i, V::cvt_f32(src + i));
        for (; i < n; ++i) dst[i] = static_cast<double>(src[i]);
    }

    /// Whether the strided-gather fast path applies: the backend must have a
    /// hardware gather hook and the lane indices must fit its signed 32-bit
    /// index arithmetic.
    [[nodiscard]] static constexpr bool gather_ok([[maybe_unused]] std::size_t stride) noexcept {
        if constexpr (requires(const float* p, std::size_t s) { V::gather_cvt_f32(p, s); }) {
            return stride <= (std::size_t{1} << 28);
        } else {
            return false;
        }
    }

    static void cvt_strided(double* dst, const float* src, std::size_t stride, std::size_t n) {
        std::size_t i = 0;
        if constexpr (requires(const float* p, std::size_t s) { V::gather_cvt_f32(p, s); }) {
            if (gather_ok(stride)) {
                for (; i + W <= n; i += W) {
                    V::storeu(dst + i, V::gather_cvt_f32(src + i * stride, stride));
                }
            }
        }
        for (; i < n; ++i) dst[i] = static_cast<double>(src[i * stride]);
    }

    static void cvt_store(float* dst, const double* src, std::size_t n) {
        std::size_t i = 0;
        for (; i + W <= n; i += W) V::store_f32(dst + i, V::loadu(src + i));
        for (; i < n; ++i) dst[i] = static_cast<float>(src[i]);
    }

    static void sub_cvt(double* dst, const float* a, const float* b, std::size_t n) {
        std::size_t i = 0;
        for (; i + W <= n; i += W) V::storeu(dst + i, V::sub(V::cvt_f32(a + i), V::cvt_f32(b + i)));
        for (; i < n; ++i) dst[i] = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    }

    static void sub_cvt_strided(double* dst, const float* a, const float* b, std::size_t stride,
                                std::size_t n) {
        std::size_t i = 0;
        if constexpr (requires(const float* p, std::size_t s) { V::gather_cvt_f32(p, s); }) {
            if (gather_ok(stride)) {
                for (; i + W <= n; i += W) {
                    const std::size_t k = i * stride;
                    V::storeu(dst + i, V::sub(V::gather_cvt_f32(a + k, stride),
                                              V::gather_cvt_f32(b + k, stride)));
                }
            }
        }
        for (; i < n; ++i) {
            const std::size_t k = i * stride;
            dst[i] = static_cast<double>(a[k]) - static_cast<double>(b[k]);
        }
    }

    // ---- elementwise double slabs ---------------------------------------

    static void sub(double* dst, const double* a, const double* b, std::size_t n) {
        std::size_t i = 0;
        for (; i + W <= n; i += W) V::storeu(dst + i, V::sub(V::loadu(a + i), V::loadu(b + i)));
        for (; i < n; ++i) dst[i] = a[i] - b[i];
    }

    static void sub_scalar(double* dst, const double* a, double s, std::size_t n) {
        const reg vs = V::bcast(s);
        std::size_t i = 0;
        for (; i + W <= n; i += W) V::storeu(dst + i, V::sub(V::loadu(a + i), vs));
        for (; i < n; ++i) dst[i] = a[i] - s;
    }

    static void mul(double* dst, const double* a, const double* b, std::size_t n) {
        std::size_t i = 0;
        for (; i + W <= n; i += W) V::storeu(dst + i, V::mul(V::loadu(a + i), V::loadu(b + i)));
        for (; i < n; ++i) dst[i] = a[i] * b[i];
    }

    static void abs_val(double* dst, const double* a, std::size_t n) {
        std::size_t i = 0;
        for (; i + W <= n; i += W) V::storeu(dst + i, V::abs(V::loadu(a + i)));
        for (; i < n; ++i) dst[i] = std::fabs(a[i]);
    }

    static void pwr(double* dst, const double* x, const double* y, double eps, std::size_t n) {
        const reg veps = V::bcast(eps);
        std::size_t i = 0;
        for (; i + W <= n; i += W) {
            const reg vx = V::loadu(x + i);
            const reg vy = V::loadu(y + i);
            V::storeu(dst + i, V::div(V::sub(vy, vx), V::vmax(V::sel_abs(vx), veps)));
        }
        for (; i < n; ++i) dst[i] = s_pwr(x[i], y[i], eps);
    }

    static void pwr_cvt(double* dst, const float* x, const float* y, double eps, std::size_t n) {
        const reg veps = V::bcast(eps);
        std::size_t i = 0;
        for (; i + W <= n; i += W) {
            const reg vx = V::cvt_f32(x + i);
            const reg vy = V::cvt_f32(y + i);
            V::storeu(dst + i, V::div(V::sub(vy, vx), V::vmax(V::sel_abs(vx), veps)));
        }
        for (; i < n; ++i) {
            dst[i] = s_pwr(static_cast<double>(x[i]), static_cast<double>(y[i]), eps);
        }
    }

    // ---- accumulator commits (acc[i] = op(v[i], acc[i])) ----------------

    static void add_acc(double* acc, const double* v, std::size_t n) {
        std::size_t i = 0;
        for (; i + W <= n; i += W) V::storeu(acc + i, V::add(V::loadu(acc + i), V::loadu(v + i)));
        for (; i < n; ++i) acc[i] = acc[i] + v[i];
    }

    static void min_acc(double* acc, const double* v, std::size_t n) {
        std::size_t i = 0;
        for (; i + W <= n; i += W) V::storeu(acc + i, V::vmin(V::loadu(v + i), V::loadu(acc + i)));
        for (; i < n; ++i) acc[i] = s_min(v[i], acc[i]);
    }

    static void max_acc(double* acc, const double* v, std::size_t n) {
        std::size_t i = 0;
        for (; i + W <= n; i += W) V::storeu(acc + i, V::vmax(V::loadu(v + i), V::loadu(acc + i)));
        for (; i < n; ++i) acc[i] = s_max(v[i], acc[i]);
    }

    static void add_acc_strided(double* acc, std::size_t stride, const double* v, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) acc[i * stride] = acc[i * stride] + v[i];
    }

    static void min_acc_strided(double* acc, std::size_t stride, const double* v, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) acc[i * stride] = s_min(v[i], acc[i * stride]);
    }

    static void max_acc_strided(double* acc, std::size_t stride, const double* v, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) acc[i * stride] = s_max(v[i], acc[i * stride]);
    }

    // ---- histogram binning ----------------------------------------------

    static void pdf_bins(std::int32_t* dst, const double* v, double lo, double range,
                         std::int32_t bins, std::size_t n) {
        const double binsd = static_cast<double>(bins);
        const reg vlo = V::bcast(lo);
        const reg vrange = V::bcast(range);
        const reg vbins = V::bcast(binsd);
        double q[64];
        std::size_t i = 0;
        while (i < n) {
            const std::size_t c = n - i < 64 ? n - i : 64;
            std::size_t k = 0;
            for (; k + W <= c; k += W) {
                V::storeu(q + k,
                          V::mul(V::div(V::sub(V::loadu(v + i + k), vlo), vrange), vbins));
            }
            for (; k < c; ++k) q[k] = (v[i + k] - lo) / range * binsd;
            // The truncating cast and clamp stay scalar on every backend so
            // out-of-range behaviour matches zc::pdf_bin's exactly.
            for (k = 0; k < c; ++k) {
                auto b = static_cast<std::int32_t>(q[k]);
                if (b < 0) b = 0;
                if (b >= bins) b = bins - 1;
                dst[i + k] = b;
            }
            i += c;
        }
    }

    static void fold_ranges(const float* x, const float* y, double eps, std::size_t n,
                            double* lo, double* hi) {
        const reg veps = V::bcast(eps);
        reg le = V::bcast(lo[0]), he = V::bcast(hi[0]);
        reg lp = V::bcast(lo[1]), hp = V::bcast(hi[1]);
        reg lx = V::bcast(lo[2]), hx = V::bcast(hi[2]);
        std::size_t i = 0;
        for (; i + W <= n; i += W) {
            const reg vx = V::cvt_f32(x + i);
            const reg e = V::sub(V::cvt_f32(y + i), vx);
            const reg p = V::div(e, V::vmax(V::sel_abs(vx), veps));
            le = V::vmin(e, le);
            he = V::vmax(e, he);
            lp = V::vmin(p, lp);
            hp = V::vmax(p, hp);
            lx = V::vmin(vx, lx);
            hx = V::vmax(vx, hx);
        }
        // Lanes meet in lane order; a lane seeded with a NaN kept it, and
        // every lane was seeded alike.
        double l[3][W], h[3][W];
        V::storeu(l[0], le);
        V::storeu(h[0], he);
        V::storeu(l[1], lp);
        V::storeu(h[1], hp);
        V::storeu(l[2], lx);
        V::storeu(h[2], hx);
        for (std::size_t k = 0; k < 3; ++k) {
            for (std::size_t j = 0; j < W; ++j) {
                lo[k] = s_min(l[k][j], lo[k]);
                hi[k] = s_max(h[k][j], hi[k]);
            }
        }
        for (; i < n; ++i) {
            const double vx = static_cast<double>(x[i]);
            const double e = static_cast<double>(y[i]) - vx;
            const double p = e / s_max(s_sel_abs(vx), eps);
            lo[0] = s_min(e, lo[0]);
            hi[0] = s_max(e, hi[0]);
            lo[1] = s_min(p, lo[1]);
            hi[1] = s_max(p, hi[1]);
            lo[2] = s_min(vx, lo[2]);
            hi[2] = s_max(vx, hi[2]);
        }
    }

    // ---- fused pattern rows ---------------------------------------------

    static void p1_update(const float* po, const float* pd, std::size_t stride, double eps,
                          double* acc, std::size_t acc_stride, std::uint32_t n) {
        const reg veps = V::bcast(eps);
        const auto row = [&](std::uint32_t slot) { return acc + slot * acc_stride; };
        // Gather-capable backends feed the fused body straight from the
        // strided inputs; the others stage through the stack once. One loop
        // with a loop-invariant branch keeps the 15-slot body inlined.
        bool gathered = false;
        if constexpr (requires(const float* p, std::size_t s) { V::gather_cvt_f32(p, s); }) {
            gathered = gather_ok(stride);
        }
        double xs[32], ys[32];
        if (n >= W && !gathered) {
            cvt_strided(xs, po, stride, n);
            cvt_strided(ys, pd, stride, n);
        }
        std::uint32_t j = 0;
        for (; j + W <= n; j += W) {
            reg x, y;
            if constexpr (requires(const float* p, std::size_t s) { V::gather_cvt_f32(p, s); }) {
                if (gathered) {
                    x = V::gather_cvt_f32(po + j * stride, stride);
                    y = V::gather_cvt_f32(pd + j * stride, stride);
                } else {
                    x = V::loadu(xs + j);
                    y = V::loadu(ys + j);
                }
            } else {
                x = V::loadu(xs + j);
                y = V::loadu(ys + j);
            }
            const reg e = V::sub(y, x);
            const reg p = V::div(e, V::vmax(V::sel_abs(x), veps));
            const auto amin = [&](std::uint32_t s, reg v) {
                V::storeu(row(s) + j, V::vmin(v, V::loadu(row(s) + j)));
            };
            const auto amax = [&](std::uint32_t s, reg v) {
                V::storeu(row(s) + j, V::vmax(v, V::loadu(row(s) + j)));
            };
            const auto aadd = [&](std::uint32_t s, reg v) {
                V::storeu(row(s) + j, V::add(V::loadu(row(s) + j), v));
            };
            amin(kP1MinErr, e);
            amax(kP1MaxErr, e);
            aadd(kP1SumErr, e);
            aadd(kP1SumAbsErr, V::abs(e));
            aadd(kP1SumErrSq, V::mul(e, e));
            amin(kP1MinPwr, p);
            amax(kP1MaxPwr, p);
            aadd(kP1SumPwrAbs, V::abs(p));
            amin(kP1MinVal, x);
            amax(kP1MaxVal, x);
            aadd(kP1SumVal, x);
            aadd(kP1SumValSq, V::mul(x, x));
            aadd(kP1SumDec, y);
            aadd(kP1SumDecSq, V::mul(y, y));
            aadd(kP1SumCross, V::mul(x, y));
        }
        for (; j < n; ++j) {
            const double x = static_cast<double>(po[j * stride]);
            const double y = static_cast<double>(pd[j * stride]);
            const double e = y - x;
            const double p = s_pwr(x, y, eps);
            row(kP1MinErr)[j] = s_min(e, row(kP1MinErr)[j]);
            row(kP1MaxErr)[j] = s_max(e, row(kP1MaxErr)[j]);
            row(kP1SumErr)[j] += e;
            row(kP1SumAbsErr)[j] += std::fabs(e);
            row(kP1SumErrSq)[j] += e * e;
            row(kP1MinPwr)[j] = s_min(p, row(kP1MinPwr)[j]);
            row(kP1MaxPwr)[j] = s_max(p, row(kP1MaxPwr)[j]);
            row(kP1SumPwrAbs)[j] += std::fabs(p);
            row(kP1MinVal)[j] = s_min(x, row(kP1MinVal)[j]);
            row(kP1MaxVal)[j] = s_max(x, row(kP1MaxVal)[j]);
            row(kP1SumVal)[j] += x;
            row(kP1SumValSq)[j] += x * x;
            row(kP1SumDec)[j] += y;
            row(kP1SumDecSq)[j] += y * y;
            row(kP1SumCross)[j] += x * y;
        }
    }

    /// Lanes [j, j + T::W) of p3_strip_fold. A source at or past `lanes`
    /// clamps to the lane itself; vector chunks only run where every source
    /// is in range, so the clamp is per chunk.
    template <class T>
    static void p3_strip_chunk(const double* v1, const double* v2, std::uint32_t lanes,
                               std::uint32_t wx, std::uint32_t j, double* out) {
        auto a = P3Acc<T>::window(T::loadu(v1 + j), T::loadu(v2 + j));
        for (std::uint32_t off = 1; off < wx; ++off) {
            const std::uint32_t src = j + off + T::W <= lanes ? j + off : j;
            a.fold_window(T::loadu(v1 + src), T::loadu(v2 + src));
        }
        a.store(out + j);
    }

    static void p3_strip_fold(const double* v1, const double* v2, std::uint32_t lanes,
                              std::uint32_t wx, std::uint32_t n, double* out) {
        std::uint32_t j = 0;
        for (; j + W <= n && j + W + wx - 1 <= lanes; j += W) {
            p3_strip_chunk<V>(v1, v2, lanes, wx, j, out);
        }
        for (; j < n; ++j) p3_strip_chunk<ScalarLane>(v1, v2, lanes, wx, j, out);
    }

    /// Lanes [j, j + T::W) of p3_fold_rows.
    template <class T>
    static void p3_fold_chunk(const double* in, std::uint32_t rows, std::uint32_t j,
                              double* out) {
        auto a = P3Acc<T>::rows();
        for (std::uint32_t r = 0; r < rows; ++r) a.fold_row(in + r * kP3RowVals + j);
        a.store(out + j);
    }

    static void p3_fold_rows(const double* in, std::uint32_t rows, std::uint32_t n,
                             double* out) {
        std::uint32_t j = 0;
        for (; j + W <= n; j += W) p3_fold_chunk<V>(in, rows, j, out);
        for (; j < n; ++j) p3_fold_chunk<ScalarLane>(in, rows, j, out);
    }

    static void p2_deriv_row(const P2DerivRow& a) {
        constexpr std::uint32_t kSumO = 0, kMaxO = 1, kSumD = 2, kMaxD = 3, kSumSqDiff = 4,
                                kAxisO = 5, kAxisD = 6, kDerivSlots = 7, kCountSlot = 14;
        const std::size_t st = a.acc_stride;
        const reg two = V::bcast(2.0);
        const reg one = V::bcast(1.0);
        const reg zero = V::bcast(0.0);
        const auto fold_v = [&](std::uint32_t base, std::uint32_t j, reg gox, reg goy, reg goz,
                                reg gdx, reg gdy, reg gdz, reg* mo_out, reg* md_out) {
            const reg mo = V::sqrt(
                V::add(V::add(V::mul(gox, gox), V::mul(goy, goy)), V::mul(goz, goz)));
            const reg md = V::sqrt(
                V::add(V::add(V::mul(gdx, gdx), V::mul(gdy, gdy)), V::mul(gdz, gdz)));
            double* p;
            p = a.acc + (base + kSumO) * st + j;
            V::storeu(p, V::add(V::loadu(p), mo));
            p = a.acc + (base + kMaxO) * st + j;
            V::storeu(p, V::vmax(mo, V::loadu(p)));
            p = a.acc + (base + kSumD) * st + j;
            V::storeu(p, V::add(V::loadu(p), md));
            p = a.acc + (base + kMaxD) * st + j;
            V::storeu(p, V::vmax(md, V::loadu(p)));
            const reg diff = V::sub(md, mo);
            p = a.acc + (base + kSumSqDiff) * st + j;
            V::storeu(p, V::add(V::loadu(p), V::mul(diff, diff)));
            p = a.acc + (base + kAxisO) * st + j;
            V::storeu(p, V::add(V::loadu(p), V::add(V::add(gox, goy), goz)));
            p = a.acc + (base + kAxisD) * st + j;
            V::storeu(p, V::add(V::loadu(p), V::add(V::add(gdx, gdy), gdz)));
            if (mo_out) *mo_out = mo;
            if (md_out) *md_out = md;
        };
        std::uint32_t j = 0;
        for (; j + W <= a.n; j += W) {
            const reg oc = V::loadu(a.oc + j);
            const reg dc = V::loadu(a.dc + j);
            if (a.do_order1) {
                reg gox = zero, goy = zero, goz = zero, gdx = zero, gdy = zero, gdz = zero;
                if (a.have_x) {
                    gox = V::div(V::sub(V::loadu(a.oxp + j), V::loadu(a.oxm + j)), two);
                    gdx = V::div(V::sub(V::loadu(a.dxp + j), V::loadu(a.dxm + j)), two);
                }
                if (a.have_y) {
                    goy = V::div(V::sub(V::loadu(a.oc + j + 1), V::loadu(a.oc + j - 1)), two);
                    gdy = V::div(V::sub(V::loadu(a.dc + j + 1), V::loadu(a.dc + j - 1)), two);
                }
                if (a.have_z) {
                    goz = V::div(V::sub(V::loadu(a.ozp + j), V::loadu(a.ozm + j)), two);
                    gdz = V::div(V::sub(V::loadu(a.dzp + j), V::loadu(a.dzm + j)), two);
                }
                reg mo, md;
                fold_v(0, j, gox, goy, goz, gdx, gdy, gdz, &mo, &md);
                V::storeu(a.mo1 + j, mo);
                V::storeu(a.md1 + j, md);
            }
            if (a.do_order2) {
                reg gox = zero, goy = zero, goz = zero, gdx = zero, gdy = zero, gdz = zero;
                const reg oc2 = V::mul(two, oc);
                const reg dc2 = V::mul(two, dc);
                if (a.have_x) {
                    gox = V::add(V::sub(V::loadu(a.oxp + j), oc2), V::loadu(a.oxm + j));
                    gdx = V::add(V::sub(V::loadu(a.dxp + j), dc2), V::loadu(a.dxm + j));
                }
                if (a.have_y) {
                    goy = V::add(V::sub(V::loadu(a.oc + j + 1), oc2), V::loadu(a.oc + j - 1));
                    gdy = V::add(V::sub(V::loadu(a.dc + j + 1), dc2), V::loadu(a.dc + j - 1));
                }
                if (a.have_z) {
                    goz = V::add(V::sub(V::loadu(a.ozp + j), oc2), V::loadu(a.ozm + j));
                    gdz = V::add(V::sub(V::loadu(a.dzp + j), dc2), V::loadu(a.dzm + j));
                }
                fold_v(kDerivSlots, j, gox, goy, goz, gdx, gdy, gdz, nullptr, nullptr);
            }
            double* pc = a.acc + kCountSlot * st + j;
            V::storeu(pc, V::add(V::loadu(pc), one));
        }
        for (; j < a.n; ++j) {
            const double oc = a.oc[j], dc = a.dc[j];
            // Neighbour access via pointers: `a.oc[j - 1]` would compute
            // j - 1 in uint32 and wrap at j == 0.
            const double* ocj = a.oc + j;
            const double* dcj = a.dc + j;
            const auto fold_s = [&](std::uint32_t base, double gox, double goy, double goz,
                                    double gdx, double gdy, double gdz, double* mo_out,
                                    double* md_out) {
                const double mo = std::sqrt(gox * gox + goy * goy + goz * goz);
                const double md = std::sqrt(gdx * gdx + gdy * gdy + gdz * gdz);
                a.acc[(base + kSumO) * st + j] += mo;
                a.acc[(base + kMaxO) * st + j] = s_max(mo, a.acc[(base + kMaxO) * st + j]);
                a.acc[(base + kSumD) * st + j] += md;
                a.acc[(base + kMaxD) * st + j] = s_max(md, a.acc[(base + kMaxD) * st + j]);
                const double diff = md - mo;
                a.acc[(base + kSumSqDiff) * st + j] += diff * diff;
                a.acc[(base + kAxisO) * st + j] += gox + goy + goz;
                a.acc[(base + kAxisD) * st + j] += gdx + gdy + gdz;
                if (mo_out) *mo_out = mo;
                if (md_out) *md_out = md;
            };
            if (a.do_order1) {
                double mo, md;
                fold_s(0, a.have_x ? (a.oxp[j] - a.oxm[j]) / 2 : 0.0,
                       a.have_y ? (ocj[1] - ocj[-1]) / 2 : 0.0,
                       a.have_z ? (a.ozp[j] - a.ozm[j]) / 2 : 0.0,
                       a.have_x ? (a.dxp[j] - a.dxm[j]) / 2 : 0.0,
                       a.have_y ? (dcj[1] - dcj[-1]) / 2 : 0.0,
                       a.have_z ? (a.dzp[j] - a.dzm[j]) / 2 : 0.0, &mo, &md);
                a.mo1[j] = mo;
                a.md1[j] = md;
            }
            if (a.do_order2) {
                fold_s(kDerivSlots, a.have_x ? a.oxp[j] - 2 * oc + a.oxm[j] : 0.0,
                       a.have_y ? ocj[1] - 2 * oc + ocj[-1] : 0.0,
                       a.have_z ? a.ozp[j] - 2 * oc + a.ozm[j] : 0.0,
                       a.have_x ? a.dxp[j] - 2 * dc + a.dxm[j] : 0.0,
                       a.have_y ? dcj[1] - 2 * dc + dcj[-1] : 0.0,
                       a.have_z ? a.dzp[j] - 2 * dc + a.dzm[j] : 0.0, nullptr, nullptr);
            }
            a.acc[kCountSlot * st + j] += 1.0;
        }
    }

    static void p2_lag_xy(double* acc, const double* cur, const double* xnb, const double* ynb,
                          double mean, double scale, std::size_t n) {
        const reg vmean = V::bcast(mean);
        const reg vscale = V::bcast(scale);
        const reg zero = V::bcast(0.0);
        std::size_t j = 0;
        for (; j + W <= n; j += W) {
            reg nb = zero;
            if (xnb) nb = V::add(nb, V::sub(V::loadu(xnb + j), vmean));
            if (ynb) nb = V::add(nb, V::sub(V::loadu(ynb + j), vmean));
            V::storeu(acc + j,
                      V::add(V::loadu(acc + j), V::mul(V::mul(V::loadu(cur + j), nb), vscale)));
        }
        for (; j < n; ++j) {
            double nb = 0.0;
            if (xnb) nb += xnb[j] - mean;
            if (ynb) nb += ynb[j] - mean;
            acc[j] += cur[j] * nb * scale;
        }
    }

    static void p2_lag_z(double* acc, const double* cur, const double* oldv, double mean,
                         double scale, std::size_t n) {
        const reg vmean = V::bcast(mean);
        const reg vscale = V::bcast(scale);
        std::size_t j = 0;
        for (; j + W <= n; j += W) {
            const reg e_old = V::sub(V::loadu(oldv + j), vmean);
            V::storeu(acc + j, V::add(V::loadu(acc + j),
                                      V::mul(V::mul(e_old, V::loadu(cur + j)), vscale)));
        }
        for (; j < n; ++j) acc[j] += (oldv[j] - mean) * cur[j] * scale;
    }

    // ---- fixed-tree lane reductions -------------------------------------

    template <class F, class FV>
    static double tree_reduce(const double* lanes, std::uint32_t n, F f, FV fv) {
        if (n == 0) return 0.0;
        double buf[32];
        std::memcpy(buf, lanes, n * sizeof(double));
        for (std::uint32_t off = 16; off >= 1; off >>= 1) {
            if (n <= off) continue;
            const std::uint32_t m = n - off;
            std::uint32_t l = 0;
            // In-round reads are always ahead of writes (l + off > l), so
            // the vector form sees the same pre-round values the ascending
            // scalar fold does.
            for (; l + W <= m; l += W) {
                V::storeu(buf + l, fv(V::loadu(buf + l), V::loadu(buf + l + off)));
            }
            for (; l < m; ++l) buf[l] = f(buf[l], buf[l + off]);
        }
        return buf[0];
    }

    static double reduce_sum(const double* lanes, std::uint32_t n) {
        return tree_reduce(
            lanes, n, [](double a, double b) { return a + b; },
            [](reg a, reg b) { return V::add(a, b); });
    }
    static double reduce_min(const double* lanes, std::uint32_t n) {
        return tree_reduce(lanes, n, &s_min, [](reg a, reg b) { return V::vmin(a, b); });
    }
    static double reduce_max(const double* lanes, std::uint32_t n) {
        return tree_reduce(lanes, n, &s_max, [](reg a, reg b) { return V::vmax(a, b); });
    }
};

template <class V>
[[nodiscard]] Ops make_ops(const char* name, Backend backend) {
    using K = Kernels<V>;
    Ops t{};
    t.name = name;
    t.backend = backend;
    t.width = V::W;
    t.cvt = &K::cvt;
    t.cvt_strided = &K::cvt_strided;
    t.cvt_store = &K::cvt_store;
    t.sub_cvt = &K::sub_cvt;
    t.sub_cvt_strided = &K::sub_cvt_strided;
    t.sub = &K::sub;
    t.sub_scalar = &K::sub_scalar;
    t.mul = &K::mul;
    t.abs_val = &K::abs_val;
    t.pwr = &K::pwr;
    t.pwr_cvt = &K::pwr_cvt;
    t.add_acc = &K::add_acc;
    t.min_acc = &K::min_acc;
    t.max_acc = &K::max_acc;
    t.add_acc_strided = &K::add_acc_strided;
    t.min_acc_strided = &K::min_acc_strided;
    t.max_acc_strided = &K::max_acc_strided;
    t.pdf_bins = &K::pdf_bins;
    t.fold_ranges = &K::fold_ranges;
    t.p1_update = &K::p1_update;
    t.p3_strip_fold = &K::p3_strip_fold;
    t.p3_fold_rows = &K::p3_fold_rows;
    t.p2_deriv_row = &K::p2_deriv_row;
    t.p2_lag_xy = &K::p2_lag_xy;
    t.p2_lag_z = &K::p2_lag_z;
    t.reduce_sum = &K::reduce_sum;
    t.reduce_min = &K::reduce_min;
    t.reduce_max = &K::reduce_max;
    return t;
}

}  // namespace cuzc::vgpu::simd::detail

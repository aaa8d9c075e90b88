#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cuzc::vgpu::simd {

/// Instruction-set backend of the lane engine. Backends are selected at
/// runtime: compile-time detection decides which backends are *built*
/// (AVX2/SSE2 on x86-64, NEON on AArch64, scalar everywhere), CPUID decides
/// which are *usable*, and the `CUZC_SIMD` environment variable (or
/// `force_backend`) overrides the automatic pick.
///
/// Determinism contract: every primitive performs, per lane, exactly the
/// same IEEE-754 operation sequence as the scalar reference — only the
/// number of lanes evaluated per instruction changes. All operations used
/// (add/sub/mul/div/sqrt, compare-select min/max, sign manipulation,
/// f32<->f64 conversion, truncating f64->i32) are exactly rounded or exact,
/// and no FMA contraction is permitted, so results are bit-identical across
/// all backends and to the pre-SIMD scalar loops.
enum class Backend : std::uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2, kNeon = 3 };

/// Accumulator slot order of `Ops::p1_update`. Must match the Slot enum of
/// the pattern-1 fused kernel (static_asserted there).
enum P1Slot : std::uint32_t {
    kP1MinErr, kP1MaxErr, kP1SumErr, kP1SumAbsErr, kP1SumErrSq,
    kP1MinPwr, kP1MaxPwr, kP1SumPwrAbs,
    kP1MinVal, kP1MaxVal, kP1SumVal, kP1SumValSq,
    kP1SumDec, kP1SumDecSq, kP1SumCross,
    kP1NumSlots,
};

/// Pattern-3 strip values per lane, in the order min1 max1 sum1 sumsq1
/// min2 max2 sum2 sumsq2 cross (matches pattern3's kStripBase..kCross slot
/// window).
inline constexpr std::uint32_t kP3StripVals = 9;
/// Lane stride of the pattern-3 slot-major rows: value s of lane j of one
/// row sits at row[s * kP3Lanes + j].
inline constexpr std::uint32_t kP3Lanes = 32;
/// Doubles in one pattern-3 slot-major row (one warp's strip of a slice,
/// or one FIFO slot); consecutive rows are this far apart.
inline constexpr std::size_t kP3RowVals = std::size_t{kP3StripVals} * kP3Lanes;

/// Argument block of the fused pattern-2 derivative-row primitive: one
/// row (fixed x) of interior lanes varying along y. Neighbour rows are
/// contiguous double slabs; a null axis pointer pairs with its `have_*`
/// flag being false, in which case that axis' difference is literal 0.0
/// (exactly as the scalar kernel's `active ? ... : 0.0`).
struct P2DerivRow {
    const double* oc = nullptr;  ///< centre row, original (lane j at oc[j]; oc[-1]/oc[n] readable when have_y)
    const double* dc = nullptr;  ///< centre row, decompressed
    const double* oxm = nullptr;  ///< x-1 row, original (null unless have_x)
    const double* oxp = nullptr;  ///< x+1 row, original
    const double* dxm = nullptr;
    const double* dxp = nullptr;
    const double* ozm = nullptr;  ///< z-1 gathered row, original (null unless have_z)
    const double* ozp = nullptr;
    const double* dzm = nullptr;
    const double* dzp = nullptr;
    bool have_x = false, have_y = false, have_z = false;
    bool do_order1 = false, do_order2 = false;
    double* acc = nullptr;        ///< slot-major accumulator: slot s, lane j at acc[s*acc_stride + j]
    std::size_t acc_stride = 0;   ///< slots: [0..6] order-1, [7..13] order-2, [14] count
    double* mo1 = nullptr;        ///< order-1 magnitude outputs (length n; null when !do_order1)
    double* md1 = nullptr;
    std::uint32_t n = 0;
};

/// Function-pointer table of one backend's lane kernels. All `acc`
/// arguments are updated in place with `acc[i] = op(v[i], acc[i])`
/// compare-select semantics matching the scalar accumulation idioms
/// (`std::min(acc, v)` == minpd(v, acc), `std::max(acc, v)` == maxpd(v,
/// acc)); `v` inputs are never modified.
struct Ops {
    const char* name;
    Backend backend;
    std::size_t width;  ///< f64 lanes per register (1/2/4)

    // -- conversions ------------------------------------------------------
    void (*cvt)(double* dst, const float* src, std::size_t n);
    void (*cvt_strided)(double* dst, const float* src, std::size_t stride, std::size_t n);
    void (*cvt_store)(float* dst, const double* src, std::size_t n);
    void (*sub_cvt)(double* dst, const float* a, const float* b, std::size_t n);
    void (*sub_cvt_strided)(double* dst, const float* a, const float* b, std::size_t stride,
                            std::size_t n);

    // -- elementwise double slabs ----------------------------------------
    void (*sub)(double* dst, const double* a, const double* b, std::size_t n);
    void (*sub_scalar)(double* dst, const double* a, double s, std::size_t n);
    void (*mul)(double* dst, const double* a, const double* b, std::size_t n);
    void (*abs_val)(double* dst, const double* a, std::size_t n);
    void (*pwr)(double* dst, const double* x, const double* y, double eps, std::size_t n);
    void (*pwr_cvt)(double* dst, const float* x, const float* y, double eps, std::size_t n);

    // -- accumulator commits ---------------------------------------------
    void (*add_acc)(double* acc, const double* v, std::size_t n);
    void (*min_acc)(double* acc, const double* v, std::size_t n);
    void (*max_acc)(double* acc, const double* v, std::size_t n);
    void (*add_acc_strided)(double* acc, std::size_t stride, const double* v, std::size_t n);
    void (*min_acc_strided)(double* acc, std::size_t stride, const double* v, std::size_t n);
    void (*max_acc_strided)(double* acc, std::size_t stride, const double* v, std::size_t n);

    // -- histogram binning ------------------------------------------------
    /// dst[i] = clamp((int)((v[i] - lo) / range * bins), 0, bins-1); the
    /// division/multiply order matches zc::pdf_bin exactly. The caller
    /// handles the degenerate !(hi > lo) case.
    void (*pdf_bins)(std::int32_t* dst, const double* v, double lo, double range,
                     std::int32_t bins, std::size_t n);

    // -- fused pattern rows ----------------------------------------------
    /// Pattern-1 fused 15-slot update of n warp lanes: lane j reads
    /// po[j*stride]/pd[j*stride] and updates acc[slot*acc_stride + j] for
    /// every P1Slot in enum order.
    void (*p1_update)(const float* po, const float* pd, std::size_t stride, double eps,
                      double* acc, std::size_t acc_stride, std::uint32_t n);
    /// Pattern-3 SSIM x-strip fold of lanes [0, n): lane j folds the window
    /// v[j], v[j+1], ..., v[j+wx-1] of the lane vectors v1/v2 in that
    /// order; a source at or past `lanes` clamps to lane j's own value, as
    /// shfl_down does. out is one slot-major row (see kP3Lanes); lanes >= n
    /// are not written. Requires n <= lanes <= kP3Lanes.
    void (*p3_strip_fold)(const double* v1, const double* v2, std::uint32_t lanes,
                          std::uint32_t wx, std::uint32_t n, double* out);
    /// Pattern-3 row fold of lanes [0, n): reduces `rows` consecutive
    /// slot-major rows of `in` into the one row `out`, per lane in row
    /// order from the identities +inf (min slots), -inf (max slots) and
    /// 0.0 (sums), with min/max as op(row, acc) and sums as acc + row.
    /// Serves both the y reduction (strip rows) and the window fold (FIFO
    /// slots). Lanes >= n of `out` are not written.
    void (*p3_fold_rows)(const double* in, std::uint32_t rows, std::uint32_t n, double* out);
    void (*p2_deriv_row)(const P2DerivRow& a);
    /// acc[j] += ((cur[j] * nb) * scale) with nb = 0.0 (+ xnb[j]-mean)
    /// (+ ynb[j]-mean); null neighbour pointers skip their term.
    void (*p2_lag_xy)(double* acc, const double* cur, const double* xnb, const double* ynb,
                      double mean, double scale, std::size_t n);
    /// acc[j] += (((oldv[j] - mean) * cur[j]) * scale)
    void (*p2_lag_z)(double* acc, const double* cur, const double* oldv, double mean,
                     double scale, std::size_t n);

    // -- fixed-tree lane reductions --------------------------------------
    /// Warp-style tree reduction over n <= 32 lane values with the fixed
    /// pairwise order off = 16,8,4,2,1 (fold lane l with l+off when both
    /// < n) — the exact fold sequence of WarpCtx::reduce_shfl_down over a
    /// prefix mask, so the lane-0 result is bit-identical on every backend.
    double (*reduce_sum)(const double* lanes, std::uint32_t n);
    double (*reduce_min)(const double* lanes, std::uint32_t n);
    double (*reduce_max)(const double* lanes, std::uint32_t n);
};

/// The active backend's kernel table. Resolved once: best built+supported
/// backend, overridden by CUZC_SIMD=scalar|sse2|avx2|neon when set (an
/// unusable or unknown value warns on stderr and keeps the automatic pick).
[[nodiscard]] const Ops& ops() noexcept;

[[nodiscard]] Backend active_backend() noexcept;
[[nodiscard]] const char* backend_name(Backend b) noexcept;
/// True when backend `b` is compiled in and supported by this CPU.
[[nodiscard]] bool backend_available(Backend b) noexcept;
/// All usable backends, best first.
[[nodiscard]] std::vector<Backend> available_backends();
/// Test/bench hook: select a specific backend for subsequent ops() calls.
/// Returns false (and leaves the selection unchanged) if unavailable.
bool force_backend(Backend b) noexcept;
/// One-line dispatch banner for benches and the CLI, e.g.
/// "simd=avx2 (available: avx2 sse2 scalar; CUZC_SIMD=unset)".
[[nodiscard]] std::string banner();

}  // namespace cuzc::vgpu::simd

namespace cuzc::vgpu {

/// Warp-style lane reductions over register slots (sum/min/max of up to 32
/// lane values) with a fixed pairwise tree order — see Ops::reduce_sum.
[[nodiscard]] inline double lane_reduce_sum(const double* lanes, std::uint32_t n) noexcept {
    return simd::ops().reduce_sum(lanes, n);
}
[[nodiscard]] inline double lane_reduce_min(const double* lanes, std::uint32_t n) noexcept {
    return simd::ops().reduce_min(lanes, n);
}
[[nodiscard]] inline double lane_reduce_max(const double* lanes, std::uint32_t n) noexcept {
    return simd::ops().reduce_max(lanes, n);
}

}  // namespace cuzc::vgpu

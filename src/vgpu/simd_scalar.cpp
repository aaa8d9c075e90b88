// Scalar backend of the SIMD lane engine, and the reference definition of
// the vector trait contract every backend implements:
//
//   struct VecF64 {
//     static constexpr std::size_t W;   // f64 lanes per register
//     using reg;                        // register type
//     loadu/storeu, bcast,
//     add/sub/mul/div/sqrt,             // exactly-rounded lane arithmetic
//     vmin/vmax,                        // MINPD/MAXPD ternary: a<b?a:b / a>b?a:b
//     abs,                              // sign-bit clear (std::fabs)
//     sel_abs,                          // compare-select x<0?-x:x
//     cvt_f32,                          // load W floats, widen to f64 (exact)
//     store_f32,                        // narrow W f64 to floats (round-to-nearest)
//   };
//
// This translation unit is compiled with -fno-tree-vectorize so the scalar
// backend is an honest one-lane baseline for bench_simd_speedup rather than
// whatever the auto-vectorizer makes of it.

#include <cmath>

#include "simd_kernels.hpp"

namespace cuzc::vgpu::simd::scalar {

namespace {

struct VecF32 {
    using reg = float;
    static reg loadu(const float* p) noexcept { return *p; }
    static void storeu(float* p, reg v) noexcept { *p = v; }
};

struct VecI32 {
    using reg = std::int32_t;
    static reg loadu(const std::int32_t* p) noexcept { return *p; }
    static void storeu(std::int32_t* p, reg v) noexcept { *p = v; }
};

// W, reg, loadu/storeu, bcast, add, mul, vmin/vmax: the one-lane reference
// trait every backend's scalar tails also use.
struct VecF64 : detail::ScalarLane {
    using f32 = VecF32;
    using i32 = VecI32;
    static reg sub(reg a, reg b) noexcept { return a - b; }
    static reg div(reg a, reg b) noexcept { return a / b; }
    static reg sqrt(reg a) noexcept { return std::sqrt(a); }
    static reg abs(reg a) noexcept { return std::fabs(a); }
    static reg sel_abs(reg a) noexcept { return detail::s_sel_abs(a); }
    static reg cvt_f32(const float* p) noexcept { return static_cast<double>(*p); }
    static void store_f32(float* p, reg v) noexcept { *p = static_cast<float>(v); }
};

}  // namespace

const Ops* table() noexcept {
    static const Ops t = detail::make_ops<VecF64>("scalar", Backend::kScalar);
    return &t;
}

}  // namespace cuzc::vgpu::simd::scalar

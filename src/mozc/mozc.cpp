#include "mozc.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "cuzc/pattern2.hpp"
#include "cuzc/pattern3.hpp"
#include "vgpu/simd.hpp"
#include "zc/reduction_metrics.hpp"

namespace cuzc::mozc {

namespace {

using vgpu::BlockCtx;
using vgpu::Launch;
using vgpu::ThreadCtx;

namespace simd = vgpu::simd;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// CUB-style linear access is near-perfectly coalesced.
constexpr double kReduceCoalescing = 0.92;

/// One device-wide reduction over a per-element functor of (orig, dec) —
/// moZC's workhorse; each call is one metric, costing the two CUB launches
/// and a fresh pass over both arrays. `chunk(ops, po, pd, count, vals)`
/// computes one grid-stride round's per-element values with the SIMD lane
/// engine; the per-thread `op` accumulation then walks the staged slab, so
/// results stay bit-identical to the per-element formulation.
template <class T, class Op, class Chunk>
T metric_reduce(vgpu::Device& dev, const std::string& name, const vgpu::DeviceBuffer<float>& d_orig,
                const vgpu::DeviceBuffer<float>& d_dec, std::size_t n, T init, Op op, Chunk chunk) {
    const simd::Ops& lane_ops = simd::ops();
    const std::size_t before = dev.profiler().records().size();
    T r = vgpu::device_reduce<T>(dev, name, n, init, op, [&](Launch& l) {
        auto o = l.span(std::as_const(d_orig));
        auto d = l.span(std::as_const(d_dec));
        // Chunk loader: both input runs are charged in bulk per grid-stride
        // round, the round's values are computed vectorized into the staging
        // slab, and the returned accessor reads them back out.
        return [o, d, chunk, &lane_ops,
                vals = std::array<T, vgpu::kReduceChunk>{}](std::size_t base,
                                                            std::size_t count) mutable {
            const float* po = o.ld_bulk(base, count);
            const float* pd = d.ld_bulk(base, count);
            chunk(lane_ops, po, pd, static_cast<std::uint32_t>(count), vals.data());
            const T* vp = vals.data();
            return [vp, base](std::size_t i) { return vp[i - base]; };
        };
    });
    // Tag coalescing on the records this metric produced.
    auto& recs = dev.profiler().mutable_records();
    for (std::size_t i = before; i < recs.size(); ++i) recs[i].coalescing = kReduceCoalescing;
    return r;
}

/// Standalone histogram kernel (one per PDF metric in moZC).
std::vector<double> histogram_launch(vgpu::Device& dev, const std::string& name,
                                     const vgpu::DeviceBuffer<float>& d_orig,
                                     const vgpu::DeviceBuffer<float>& d_dec, std::size_t n, int bins,
                                     double lo, double hi, int kind, double pwr_eps) {
    vgpu::DeviceBuffer<double> d_hist(dev, static_cast<std::size_t>(bins));
    d_hist.fill(0.0);
    constexpr std::uint32_t kThreads = 256;
    const auto grid =
        static_cast<std::uint32_t>(std::min<std::size_t>(256, (n + kThreads - 1) / kThreads));
    const simd::Ops& lane_ops = simd::ops();
    const auto nbins = static_cast<std::size_t>(bins);
    const bool ok = hi > lo;  // zc::pdf_bin's degenerate ranges land in bin 0
    vgpu::KernelStats& stats = vgpu::launch(
        dev, vgpu::LaunchConfig{name, vgpu::Dim3{grid, 1, 1}, vgpu::Dim3{kThreads, 1, 1}},
        [&](Launch& l, BlockCtx& blk) {
            auto o = l.span(d_orig);
            auto d = l.span(d_dec);
            auto h = l.span(d_hist);
            auto local = blk.shared().alloc<double>(nbins);
            std::fill_n(local.st_bulk(0, nbins), nbins, 0.0);
            const std::uint64_t stride = std::uint64_t{grid} * kThreads;
            // Chunk-major grid-stride walk: each round covers one contiguous
            // run of both inputs, charged in bulk (same bytes as per-element
            // loads). The round's error values and bin indices are computed
            // vectorized; the scatter into the shared histogram stays scalar
            // (it is a data-dependent RMW) and is charged as the count
            // shared loads + stores the per-element loop performed.
            for (std::uint64_t base = std::uint64_t{blk.block_idx().x} * kThreads; base < n;
                 base += stride) {
                const auto count =
                    static_cast<std::uint32_t>(std::min<std::uint64_t>(kThreads, n - base));
                const float* po = o.ld_bulk(base, count);
                const float* pd = d.ld_bulk(base, count);
                double vs[kThreads];
                std::int32_t bs[kThreads];
                if (kind == 0) {
                    lane_ops.sub_cvt(vs, pd, po, count);
                } else if (kind == 1) {
                    lane_ops.pwr_cvt(vs, po, pd, pwr_eps, count);
                } else {
                    lane_ops.cvt(vs, po, count);
                }
                if (ok) {
                    lane_ops.pdf_bins(bs, vs, lo, hi - lo, bins, count);
                } else {
                    std::fill_n(bs, count, 0);
                }
                (void)local.ld_charge(count);
                double* lw = local.st_charge(count);
                for (std::uint32_t ln = 0; ln < count; ++ln) {
                    lw[static_cast<std::size_t>(bs[ln])] += 1.0;
                }
                blk.add_iters(count);
                blk.add_ops(std::uint64_t{count} * 6);
            }
            const double* lp = local.ld_bulk(0, nbins);
            for (std::size_t b = 0; b < nbins; ++b) {
                h.atomic_add(b, lp[b]);  // atomicAdd, as on hardware
            }
        });
    stats.coalescing = kReduceCoalescing;
    return d_hist.download();
}

/// Aggregate all profiler records added since `from` into one stats blob.
vgpu::KernelStats merge_since(const vgpu::Profiler& prof, std::size_t from, const char* name) {
    vgpu::KernelStats out;
    out.name = name;
    out.launches = 0;
    for (std::size_t i = from; i < prof.records().size(); ++i) out.merge(prof.records()[i]);
    return out;
}

}  // namespace

MozcResult assess(vgpu::Device& dev, const zc::Tensor3f& orig, const zc::Tensor3f& dec,
                  const zc::MetricsConfig& cfg) {
    MozcResult result;
    const std::size_t n = orig.size();
    if (n == 0 || dec.size() != n) return result;

    vgpu::DeviceBuffer<float> d_orig(dev, orig.data());
    vgpu::DeviceBuffer<float> d_dec(dev, dec.data());
    const zc::Dims3& dims = orig.dims();
    const double eps = cfg.pwr_eps;

    if (cfg.pattern1) {
        const std::size_t from = dev.profiler().records().size();
        zc::ReductionMoments m;
        m.n = n;
        using A2 = std::array<double, 2>;
        using A4 = std::array<double, 4>;
        const auto sum2 = [](A2 a, A2 b) { return A2{a[0] + b[0], a[1] + b[1]}; };

        // Per-round chunk functors: one SIMD pass computes the whole round's
        // per-element values (error, power error, value moments, ...).
        const auto chunk_err = [](const simd::Ops& ops, const float* po, const float* pd,
                                  std::uint32_t c, double* vals) {
            ops.sub_cvt(vals, pd, po, c);
        };
        const auto chunk_pwr = [eps](const simd::Ops& ops, const float* po, const float* pd,
                                     std::uint32_t c, double* vals) {
            ops.pwr_cvt(vals, po, pd, eps, c);
        };

        m.min_err = metric_reduce<double>(
            dev, "mozc/min_err", d_orig, d_dec, n, kInf,
            [](double a, double b) { return std::min(a, b); }, chunk_err);
        m.max_err = metric_reduce<double>(
            dev, "mozc/max_err", d_orig, d_dec, n, -kInf,
            [](double a, double b) { return std::max(a, b); }, chunk_err);
        {
            const A2 r = metric_reduce<A2>(
                dev, "mozc/avg_err", d_orig, d_dec, n, A2{0, 0}, sum2,
                [](const simd::Ops& ops, const float* po, const float* pd, std::uint32_t c,
                   A2* vals) {
                    double es[vgpu::kReduceChunk], as[vgpu::kReduceChunk];
                    ops.sub_cvt(es, pd, po, c);
                    ops.abs_val(as, es, c);
                    for (std::uint32_t j = 0; j < c; ++j) vals[j] = A2{es[j], as[j]};
                });
            m.sum_err = r[0];
            m.sum_abs_err = r[1];
        }
        m.sum_err_sq = metric_reduce<double>(
            dev, "mozc/mse", d_orig, d_dec, n, 0.0, [](double a, double b) { return a + b; },
            [](const simd::Ops& ops, const float* po, const float* pd, std::uint32_t c,
               double* vals) {
                double es[vgpu::kReduceChunk];
                ops.sub_cvt(es, pd, po, c);
                ops.mul(vals, es, es, c);
            });
        m.min_pwr = metric_reduce<double>(
            dev, "mozc/min_pwr_err", d_orig, d_dec, n, kInf,
            [](double a, double b) { return std::min(a, b); }, chunk_pwr);
        m.max_pwr = metric_reduce<double>(
            dev, "mozc/max_pwr_err", d_orig, d_dec, n, -kInf,
            [](double a, double b) { return std::max(a, b); }, chunk_pwr);
        m.sum_pwr_abs = metric_reduce<double>(
            dev, "mozc/avg_pwr_err", d_orig, d_dec, n, 0.0,
            [](double a, double b) { return a + b; },
            [eps](const simd::Ops& ops, const float* po, const float* pd, std::uint32_t c,
                  double* vals) {
                double ps[vgpu::kReduceChunk];
                ops.pwr_cvt(ps, po, pd, eps, c);
                ops.abs_val(vals, ps, c);
            });
        {
            // Value statistics (min/max/mean/std of the original data):
            // component-wise reduction, still a single metric kernel.
            const A4 r = metric_reduce<A4>(
                dev, "mozc/value_stats", d_orig, d_dec, n, A4{kInf, -kInf, 0, 0},
                [](A4 a, A4 b) {
                    return A4{std::min(a[0], b[0]), std::max(a[1], b[1]), a[2] + b[2],
                              a[3] + b[3]};
                },
                [](const simd::Ops& ops, const float* po, const float*, std::uint32_t c,
                   A4* vals) {
                    double xs[vgpu::kReduceChunk], xx[vgpu::kReduceChunk];
                    ops.cvt(xs, po, c);
                    ops.mul(xx, xs, xs, c);
                    for (std::uint32_t j = 0; j < c; ++j) vals[j] = A4{xs[j], xs[j], xs[j], xx[j]};
                });
            m.min_val = r[0];
            m.max_val = r[1];
            m.sum_val = r[2];
            m.sum_val_sq = r[3];
        }
        {
            using A3 = std::array<double, 3>;
            const A3 r = metric_reduce<A3>(
                dev, "mozc/pearson", d_orig, d_dec, n, A3{0, 0, 0},
                [](A3 a, A3 b) {
                    return A3{a[0] + b[0], a[1] + b[1], a[2] + b[2]};
                },
                [](const simd::Ops& ops, const float* po, const float* pd, std::uint32_t c,
                   A3* vals) {
                    double ys[vgpu::kReduceChunk], yy[vgpu::kReduceChunk];
                    double xs[vgpu::kReduceChunk], xy[vgpu::kReduceChunk];
                    ops.cvt(ys, pd, c);
                    ops.cvt(xs, po, c);
                    ops.mul(yy, ys, ys, c);
                    ops.mul(xy, xs, ys, c);
                    for (std::uint32_t j = 0; j < c; ++j) vals[j] = A3{ys[j], yy[j], xy[j]};
                });
            m.sum_dec = r[0];
            m.sum_dec_sq = r[1];
            m.sum_cross = r[2];
        }
        zc::finalize_reduction(m, result.report.reduction);

        const int bins = std::max(1, cfg.pdf_bins);
        auto& red = result.report.reduction;
        // Each histogram kernel keeps `bins` block-local counts in shared
        // memory. When they do not fit, the PDFs are left out as in cuZC's
        // pattern 1: empty PDFs, entropy 0, the reductions unchanged.
        if (sizeof(double) * static_cast<std::uint64_t>(bins) <= dev.props().smem_per_block) {
            red.err_pdf = histogram_launch(dev, "mozc/err_pdf", d_orig, d_dec, n, bins,
                                           m.min_err, m.max_err, 0, eps);
            red.pwr_err_pdf = histogram_launch(dev, "mozc/pwr_err_pdf", d_orig, d_dec, n, bins,
                                               m.min_pwr, m.max_pwr, 1, eps);
            const std::vector<double> val_hist = histogram_launch(
                dev, "mozc/entropy", d_orig, d_dec, n, bins, m.min_val, m.max_val, 2, eps);
            red.err_pdf_min = m.min_err;
            red.err_pdf_max = m.max_err;
            red.pwr_err_pdf_min = m.min_pwr;
            red.pwr_err_pdf_max = m.max_pwr;
            const double inv_n = 1.0 / static_cast<double>(n);
            double entropy = 0.0;
            for (int b = 0; b < bins; ++b) {
                red.err_pdf[static_cast<std::size_t>(b)] *= inv_n;
                red.pwr_err_pdf[static_cast<std::size_t>(b)] *= inv_n;
                const double pv = val_hist[static_cast<std::size_t>(b)] * inv_n;
                if (pv > 0) entropy -= pv * std::log2(pv);
            }
            red.entropy = entropy;
        }
        result.pattern1 = merge_since(dev.profiler(), from, "mozc/pattern1");
    }

    if (cfg.pattern2) {
        const std::size_t from = dev.profiler().records().size();
        const zc::ErrorMoments moments =
            ::cuzc::cuzc::error_moments_device(dev, d_orig, d_dec, dims);
        // Metric-oriented: three separate stencil launches, each re-reading
        // the data (order-1 derivative + divergence, order-2 derivative +
        // Laplacian, autocorrelation).
        ::cuzc::cuzc::Pattern2Options o1;
        o1.order1 = true;
        o1.order2 = false;
        o1.autocorr = false;
        o1.name = "mozc/deriv_order1";
        const auto r1 =
            ::cuzc::cuzc::pattern2_fused_device(dev, d_orig, d_dec, dims, cfg, moments, o1);
        ::cuzc::cuzc::Pattern2Options o2;
        o2.order1 = false;
        o2.order2 = true;
        o2.autocorr = false;
        o2.name = "mozc/deriv_order2";
        const auto r2 =
            ::cuzc::cuzc::pattern2_fused_device(dev, d_orig, d_dec, dims, cfg, moments, o2);
        ::cuzc::cuzc::Pattern2Options oa;
        oa.order1 = false;
        oa.order2 = false;
        oa.autocorr = true;
        oa.name = "mozc/autocorr";
        const auto ra =
            ::cuzc::cuzc::pattern2_fused_device(dev, d_orig, d_dec, dims, cfg, moments, oa);

        auto& st = result.report.stencil;
        st = r1.report;
        st.deriv2_avg_orig = r2.report.deriv2_avg_orig;
        st.deriv2_max_orig = r2.report.deriv2_max_orig;
        st.deriv2_avg_dec = r2.report.deriv2_avg_dec;
        st.deriv2_max_dec = r2.report.deriv2_max_dec;
        st.deriv2_mse = r2.report.deriv2_mse;
        st.laplacian_avg_orig = r2.report.laplacian_avg_orig;
        st.laplacian_avg_dec = r2.report.laplacian_avg_dec;
        st.autocorr = ra.report.autocorr;
        result.pattern2 = merge_since(dev.profiler(), from, "mozc/pattern2");
    }

    if (cfg.pattern3) {
        const std::size_t from = dev.profiler().records().size();
        ::cuzc::cuzc::Pattern3Options p3;
        p3.use_fifo = false;
        const auto r3 = ::cuzc::cuzc::pattern3_ssim_device(dev, d_orig, d_dec, dims, cfg, p3);
        result.report.ssim = r3.report;
        result.pattern3 = merge_since(dev.profiler(), from, "mozc/pattern3");
    }
    return result;
}

}  // namespace cuzc::mozc

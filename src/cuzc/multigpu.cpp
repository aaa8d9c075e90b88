#include "multigpu.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "pattern1.hpp"
#include "pattern2.hpp"
#include "pattern3.hpp"
#include "zc/ssim.hpp"

namespace cuzc::cuzc {

namespace {

void merge_moments(zc::ReductionMoments& into, const zc::ReductionMoments& from) {
    if (from.n == 0) return;
    if (into.n == 0) {
        into = from;
        return;
    }
    into.n += from.n;
    into.min_val = std::min(into.min_val, from.min_val);
    into.max_val = std::max(into.max_val, from.max_val);
    into.sum_val += from.sum_val;
    into.sum_val_sq += from.sum_val_sq;
    into.min_err = std::min(into.min_err, from.min_err);
    into.max_err = std::max(into.max_err, from.max_err);
    into.sum_err += from.sum_err;
    into.sum_abs_err += from.sum_abs_err;
    into.sum_err_sq += from.sum_err_sq;
    into.min_pwr = std::min(into.min_pwr, from.min_pwr);
    into.max_pwr = std::max(into.max_pwr, from.max_pwr);
    into.sum_pwr_abs += from.sum_pwr_abs;
    into.sum_dec += from.sum_dec;
    into.sum_dec_sq += from.sum_dec_sq;
    into.sum_cross += from.sum_cross;
}

/// Per-device slab plan plus the kernel outputs that the caller merges in
/// device order after the workers join.
struct DeviceTask {
    bool z_active = false;  ///< owns z-slices (pattern 1 and/or 2)
    bool y_active = false;  ///< owns pattern-3 window rows
    std::size_t z0 = 0, z1 = 0;  ///< owned centre z-slices
    std::size_t lo = 0, hi = 0;  ///< resident slab incl. pattern-2 halo
    std::size_t y0 = 0, y1 = 0;  ///< pattern-3 y-slab
    zc::Dims3 slab_dims{};
    std::unique_ptr<vgpu::DeviceBuffer<float>> d_orig, d_dec;
    Pattern1Result p1_reduce;
    Pattern1Result p1_hist;
    Pattern2Result p2;
    Pattern3Result p3;
    std::exception_ptr error;
};

}  // namespace

std::vector<std::size_t> slab_bounds(std::size_t extent, std::size_t parts) {
    std::vector<std::size_t> bounds;
    bounds.reserve(parts + 1);
    for (std::size_t d = 0; d <= parts; ++d) {
        bounds.push_back(extent * d / parts);
    }
    return bounds;
}

zc::Field slice_z(const zc::Tensor3f& f, std::size_t z0, std::size_t z1) {
    const auto& d = f.dims();
    const std::size_t zn = z1 - z0;
    zc::Field out(zc::Dims3{d.h, d.w, zn});
    if (zn == 0 || d.h * d.w == 0) return out;
    const float* src = f.data().data();
    float* dst = out.data().data();
    // z is the contiguous axis: each (x, y) row is one memcpy run.
    for (std::size_t x = 0; x < d.h; ++x) {
        for (std::size_t y = 0; y < d.w; ++y) {
            std::memcpy(dst, src + (x * d.w + y) * d.l + z0, zn * sizeof(float));
            dst += zn;
        }
    }
    return out;
}

zc::Field slice_y(const zc::Tensor3f& f, std::size_t y0, std::size_t y1) {
    const auto& d = f.dims();
    const std::size_t yn = y1 - y0;
    zc::Field out(zc::Dims3{d.h, yn, d.l});
    const std::size_t run = yn * d.l;
    if (run == 0 || d.h == 0) return out;
    const float* src = f.data().data();
    float* dst = out.data().data();
    // For fixed x the whole (y, z) sub-plane is contiguous.
    for (std::size_t x = 0; x < d.h; ++x) {
        std::memcpy(dst, src + (x * d.w + y0) * d.l, run * sizeof(float));
        dst += run;
    }
    return out;
}

void merge_pattern2_totals(std::vector<double>& into, const std::vector<double>& from) {
    if (into.empty()) {
        into = from;
        return;
    }
    if (into.size() != from.size()) {
        // A silent min-size merge would drop trailing autocorrelation lags;
        // slabs of one domain must always agree on the totals layout.
        throw std::invalid_argument("merge_pattern2_totals: slab totals layout mismatch (" +
                                    std::to_string(into.size()) + " vs " +
                                    std::to_string(from.size()) + " slots)");
    }
    for (std::size_t s = 0; s < into.size(); ++s) {
        const std::size_t base = s < 14 ? s % 7 : 99;
        if (base == 1 || base == 3) {
            into[s] = std::max(into[s], from[s]);
        } else {
            into[s] += from[s];
        }
    }
}

MultiGpuResult assess_multigpu(std::span<vgpu::Device* const> devices, const zc::Tensor3f& orig,
                               const zc::Tensor3f& dec, const zc::MetricsConfig& cfg,
                               const MultiGpuOptions& opt) {
    MultiGpuResult result;
    result.pattern1.name = "cuzc/pattern1";
    result.pattern2.name = "cuzc/pattern2";
    result.pattern3.name = "cuzc/pattern3";
    result.pattern1.launches = result.pattern2.launches = result.pattern3.launches = 0;
    const std::size_t num_dev = devices.size();
    if (num_dev == 0 || orig.size() == 0 || orig.size() != dec.size()) return result;
    const zc::Dims3 dims = orig.dims();
    const bool p1 = cfg.pattern1, p2 = cfg.pattern2, p3 = cfg.pattern3;
    // Histograms that overflow a block's shared memory are left out on every
    // device, exactly as a single-device launch leaves them out.
    const bool p1_hist = p1 && std::all_of(devices.begin(), devices.end(), [&](vgpu::Device* dv) {
                             return pattern1_histograms_fit(dv->props(), cfg.pdf_bins);
                         });

    std::vector<std::size_t> record_start(num_dev);
    for (std::size_t d = 0; d < num_dev; ++d) {
        record_start[d] = devices[d]->profiler().records().size();
    }

    // ---- Plan: one z-slab (shared by patterns 1+2, uploaded once) and one
    // pattern-3 y-slab per device.
    std::vector<DeviceTask> tasks(num_dev);
    if (p1 || p2) {
        const auto bounds = slab_bounds(dims.l, num_dev);
        const std::size_t halo =
            p2 ? static_cast<std::size_t>(std::clamp(cfg.autocorr_max_lag, 1, kPattern2MaxLag))
               : 0;
        for (std::size_t d = 0; d < num_dev; ++d) {
            if (bounds[d + 1] <= bounds[d]) continue;
            auto& t = tasks[d];
            t.z_active = true;
            t.z0 = bounds[d];
            t.z1 = bounds[d + 1];
            t.lo = p2 && t.z0 >= 1 ? t.z0 - 1 : t.z0;
            t.hi = p2 ? std::min(t.z1 + halo, dims.l) : t.z1;
        }
    }
    if (p3) {
        const auto s = static_cast<std::size_t>(std::max(cfg.ssim_step, 1));
        const std::size_t wy =
            zc::effective_window(dims.w, static_cast<std::size_t>(cfg.ssim_window));
        const std::size_t ny = (dims.w - wy) / s + 1;
        const auto rows = slab_bounds(ny, num_dev);
        for (std::size_t d = 0; d < num_dev; ++d) {
            if (rows[d + 1] <= rows[d]) continue;
            tasks[d].y_active = true;
            tasks[d].y0 = rows[d] * s;
            tasks[d].y1 = std::min((rows[d + 1] - 1) * s + wy, dims.w);
        }
    }

    // Mid-point state allreduced at the cross-device barrier: the merged
    // reduction moments and the global histogram ranges for pass 2.
    zc::ReductionMoments merged{};
    zc::ErrorMoments moments{};
    Pattern1Ranges ranges{};
    std::atomic<bool> abort{false};
    std::atomic<std::uint64_t> retries{0};

    // Run one slab stage with per-stage retry: a transient FaultError
    // re-runs only this device's stage (kernels are stateless; the upload
    // stage re-slices and re-uploads, which also resyncs corrupt uploads).
    const auto run_stage = [&](std::size_t d, const auto& stage) {
        if (tasks[d].error || abort.load(std::memory_order_acquire)) return;
        for (std::size_t attempt = 0;; ++attempt) {
            try {
                stage();
                return;
            } catch (const vgpu::FaultError& e) {
                if (!e.transient() || attempt >= opt.max_slab_retries) {
                    tasks[d].error = std::current_exception();
                    abort.store(true, std::memory_order_release);
                    return;
                }
                retries.fetch_add(1, std::memory_order_relaxed);
                std::this_thread::sleep_for(std::chrono::duration<double>(
                    opt.retry_backoff_s * static_cast<double>(std::uint64_t{1} << attempt)));
            } catch (...) {
                tasks[d].error = std::current_exception();
                abort.store(true, std::memory_order_release);
                return;
            }
        }
    };

    // Stage A: slice + upload the halo'd slab, then the pattern-1 reduction
    // pass over the centre z-range. The reduction pass also runs when only
    // pattern 2 is enabled — its raw sums yield the error moments pattern 2
    // normalizes with, replacing a separate moments kernel + upload.
    const auto stage_upload_reduce = [&](std::size_t d) {
        auto& t = tasks[d];
        vgpu::Device& dev = *devices[d];
        const zc::Field so = slice_z(orig, t.lo, t.hi);
        const zc::Field sd = slice_z(dec, t.lo, t.hi);
        t.slab_dims = so.dims();
        t.d_orig = std::make_unique<vgpu::DeviceBuffer<float>>(dev, so.data());
        t.d_dec = std::make_unique<vgpu::DeviceBuffer<float>>(dev, sd.data());
        Pattern1Options o;
        o.histograms = false;
        o.z_begin = t.z0 - t.lo;
        o.z_end = t.z1 - t.lo;
        t.p1_reduce = pattern1_fused_device(dev, *t.d_orig, *t.d_dec, t.slab_dims, cfg, o);
    };

    // Barrier completion: allreduce the per-device moments (deterministic
    // device order) and publish the global histogram ranges for stage B.
    const auto merge_mid = [&] {
        if (!(p1 || p2) || abort.load(std::memory_order_acquire)) return;
        for (std::size_t d = 0; d < num_dev; ++d) {
            if (tasks[d].z_active) merge_moments(merged, tasks[d].p1_reduce.moments);
        }
        if (p1) {
            result.exchange_bytes += num_dev * 2 * sizeof(zc::ReductionMoments);
            zc::finalize_reduction(merged, result.report.reduction);
            moments.mean = result.report.reduction.avg_err;
            moments.var =
                std::max(0.0, result.report.reduction.mse - moments.mean * moments.mean);
            ranges = Pattern1Ranges{merged.min_err, merged.max_err, merged.min_pwr,
                                    merged.max_pwr, merged.min_val, merged.max_val};
        } else if (merged.n > 0) {
            const auto n = static_cast<double>(merged.n);
            moments.mean = merged.sum_err / n;
            moments.var = std::max(0.0, merged.sum_err_sq / n - moments.mean * moments.mean);
            result.exchange_bytes += num_dev * 2 * sizeof(double);
        }
    };

    // Stage B kernels reuse the resident slab from stage A.
    const auto stage_hist = [&](std::size_t d) {
        auto& t = tasks[d];
        Pattern1Options o;
        o.reductions = false;
        o.fixed_ranges = &ranges;
        o.z_begin = t.z0 - t.lo;
        o.z_end = t.z1 - t.lo;
        t.p1_hist = pattern1_fused_device(*devices[d], *t.d_orig, *t.d_dec, t.slab_dims, cfg, o);
    };
    const auto stage_p2 = [&](std::size_t d) {
        auto& t = tasks[d];
        Pattern2Options o;
        o.sub.z_center_begin = t.z0 - t.lo;
        o.sub.z_center_end = t.z1 - t.lo;
        o.sub.z_global_offset = t.lo;
        o.sub.l_global = dims.l;
        t.p2 = pattern2_fused_device(*devices[d], *t.d_orig, *t.d_dec, t.slab_dims, cfg, moments,
                                     o);
    };
    const auto stage_p3 = [&](std::size_t d) {
        auto& t = tasks[d];
        vgpu::Device& dev = *devices[d];
        const zc::Field so = slice_y(orig, t.y0, t.y1);
        const zc::Field sd = slice_y(dec, t.y0, t.y1);
        vgpu::DeviceBuffer<float> b_orig(dev, so.data());
        vgpu::DeviceBuffer<float> b_dec(dev, sd.data());
        t.p3 = pattern3_ssim_device(dev, b_orig, b_dec, so.dims(), cfg, {});
    };

    const auto stage_b = [&](std::size_t d) {
        if (tasks[d].z_active && p1_hist) run_stage(d, [&] { stage_hist(d); });
        if (tasks[d].z_active && p2) run_stage(d, [&] { stage_p2(d); });
        if (tasks[d].y_active) run_stage(d, [&] { stage_p3(d); });
    };

    if (opt.parallel && num_dev > 1) {
        // One worker per device; each device's launches execute inline on
        // its worker (SerialScope) so devices overlap instead of queueing
        // on the shared block pool — results are worker-count invariant,
        // hence bit-identical to the sequential path below.
        std::barrier sync(static_cast<std::ptrdiff_t>(num_dev), merge_mid);
        {
            std::vector<std::jthread> workers;
            workers.reserve(num_dev);
            for (std::size_t d = 0; d < num_dev; ++d) {
                workers.emplace_back([&, d] {
                    vgpu::BlockScheduler::SerialScope serial;
                    if (tasks[d].z_active) run_stage(d, [&] { stage_upload_reduce(d); });
                    sync.arrive_and_wait();
                    stage_b(d);
                });
            }
        }  // jthreads join here
    } else {
        for (std::size_t d = 0; d < num_dev; ++d) {
            if (tasks[d].z_active) run_stage(d, [&] { stage_upload_reduce(d); });
        }
        merge_mid();
        for (std::size_t d = 0; d < num_dev; ++d) stage_b(d);
    }

    result.slab_retries = retries.load(std::memory_order_relaxed);
    for (std::size_t d = 0; d < num_dev; ++d) {
        if (tasks[d].error) std::rethrow_exception(tasks[d].error);
    }

    // ---- Deterministic merges, ascending device order.
    if (p1_hist) {
        const int bins = std::max(1, cfg.pdf_bins);
        std::vector<double> hist(static_cast<std::size_t>(bins) * 3, 0.0);
        for (std::size_t d = 0; d < num_dev; ++d) {
            if (!tasks[d].z_active) continue;
            const auto& rh = tasks[d].p1_hist.raw_hist;
            for (std::size_t b = 0; b < hist.size(); ++b) hist[b] += rh[b];
        }
        result.exchange_bytes += num_dev * hist.size() * sizeof(double);

        auto& red = result.report.reduction;
        red.err_pdf.assign(hist.begin(), hist.begin() + bins);
        red.pwr_err_pdf.assign(hist.begin() + bins, hist.begin() + 2 * bins);
        red.err_pdf_min = merged.min_err;
        red.err_pdf_max = merged.max_err;
        red.pwr_err_pdf_min = merged.min_pwr;
        red.pwr_err_pdf_max = merged.max_pwr;
        const double inv_n = 1.0 / static_cast<double>(merged.n);
        double entropy = 0.0;
        for (int b = 0; b < bins; ++b) {
            red.err_pdf[static_cast<std::size_t>(b)] *= inv_n;
            red.pwr_err_pdf[static_cast<std::size_t>(b)] *= inv_n;
            const double pv = hist[static_cast<std::size_t>(2 * bins + b)] * inv_n;
            if (pv > 0) entropy -= pv * std::log2(pv);
        }
        red.entropy = entropy;
    }

    if (p2) {
        std::vector<double> totals;
        for (std::size_t d = 0; d < num_dev; ++d) {
            if (tasks[d].z_active) merge_pattern2_totals(totals, tasks[d].p2.totals);
        }
        result.exchange_bytes += num_dev * totals.size() * sizeof(double);
        finalize_pattern2(totals, dims, cfg, moments, true, cfg.deriv_orders >= 2,
                          cfg.autocorr_max_lag > 0, result.report.stencil);
    }

    if (p3) {
        double ssim_sum = 0;
        std::size_t windows = 0;
        for (std::size_t d = 0; d < num_dev; ++d) {
            if (!tasks[d].y_active) continue;
            ssim_sum +=
                tasks[d].p3.report.ssim * static_cast<double>(tasks[d].p3.report.windows);
            windows += tasks[d].p3.report.windows;
        }
        result.exchange_bytes += num_dev * 2 * sizeof(double);
        result.report.ssim.windows = windows;
        result.report.ssim.ssim =
            windows > 0 ? ssim_sum / static_cast<double>(windows) : 0.0;
    }

    // ---- Profiles: per-device aggregates plus per-pattern aggregates.
    // When pattern 1 is disabled, its reduction pass plays the moments role
    // for pattern 2, so those records charge to pattern 2.
    result.per_device.resize(num_dev);
    for (std::size_t d = 0; d < num_dev; ++d) {
        vgpu::KernelStats agg;
        agg.name = "multigpu/device";
        agg.launches = 0;
        const auto& recs = devices[d]->profiler().records();
        for (std::size_t i = record_start[d]; i < recs.size(); ++i) {
            agg.merge(recs[i]);
            const std::string& nm = recs[i].name;
            if (nm == "cuzc/pattern3") {
                result.pattern3.merge(recs[i]);
            } else if (nm == "cuzc/pattern2" || nm == "cuzc/moments" ||
                       (nm == "cuzc/pattern1" && !p1)) {
                result.pattern2.merge(recs[i]);
            } else {
                result.pattern1.merge(recs[i]);
            }
        }
        result.per_device[d] = agg;
    }
    return result;
}

MultiGpuResult assess_multigpu(std::span<vgpu::Device> devices, const zc::Tensor3f& orig,
                               const zc::Tensor3f& dec, const zc::MetricsConfig& cfg,
                               const MultiGpuOptions& opt) {
    std::vector<vgpu::Device*> ptrs;
    ptrs.reserve(devices.size());
    for (auto& d : devices) ptrs.push_back(&d);
    return assess_multigpu(std::span<vgpu::Device* const>(ptrs), orig, dec, cfg, opt);
}

}  // namespace cuzc::cuzc

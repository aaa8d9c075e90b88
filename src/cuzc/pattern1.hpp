#pragma once

#include <vector>

#include "vgpu/vgpu.hpp"
#include "zc/metrics_config.hpp"
#include "zc/reduction_metrics.hpp"
#include "zc/report.hpp"
#include "zc/tensor.hpp"

namespace cuzc::cuzc {

/// Histogram bin ranges, when supplied externally (multi-device mode: the
/// global min/max come from an allreduce over per-device reductions).
struct Pattern1Ranges {
    double min_err = 0, max_err = 0;
    double min_pwr = 0, max_pwr = 0;
    double min_val = 0, max_val = 0;
};

struct Pattern1Options {
    bool reductions = true;
    bool histograms = true;
    /// When set, the histogram phase bins against these ranges instead of
    /// this launch's own phase-2 results.
    const Pattern1Ranges* fixed_ranges = nullptr;
    /// Restrict the launch to z-slices [z_begin, min(z_end, dims.l)). The
    /// multi-GPU path keeps one halo'd slab resident per device and points
    /// pattern 1 at the slab's centre z-range so the same upload feeds
    /// patterns 1 and 2. Defaults cover the whole volume.
    std::size_t z_begin = 0;
    std::size_t z_end = static_cast<std::size_t>(-1);
};

/// Result of the fused pattern-1 kernel plus the profile of its single
/// cooperative launch. `moments` and `raw_hist` are the mergeable raw
/// outputs the multi-GPU coordinator combines across devices.
struct Pattern1Result {
    zc::ReductionReport report;
    zc::ReductionMoments moments;
    /// Raw bin counts: [0,bins) error PDF, [bins,2*bins) pwr-error PDF,
    /// [2*bins,3*bins) value histogram (entropy input).
    std::vector<double> raw_hist;
    vgpu::KernelStats stats;
};

/// Effective DRAM-coalescing of the slice-per-block access pattern: thread
/// (tidx, tidy) walks (i, j, bidx) with z (= bidx) fixed, so consecutive
/// lanes touch addresses l elements apart — only a fraction of each 32-byte
/// sector is useful. Feeds the cost model's memory term.
inline constexpr double kPattern1Coalescing = 0.62;
/// Streaming reductions pipeline well; mild stalls at the shuffle ladders.
inline constexpr double kPattern1Serialization = 1.2;

/// Whether the histogram phase of a full pattern-1 launch fits one block's
/// shared memory: the per-warp partials of the two block reductions plus
/// 3 * pdf_bins doubles of block-local counts. On the 48 KiB carve-out the
/// largest such pdf_bins is 1968. When it does not fit, every launch form
/// (including the multi-GPU histogram launch, whose blocks hold no
/// partials) skips the histograms: the report carries empty PDFs and
/// entropy 0, and the reductions are unaffected.
[[nodiscard]] bool pattern1_histograms_fit(const vgpu::DeviceProps& props, int pdf_bins) noexcept;

/// The paper's Algorithm 1: one cooperative kernel launch computes every
/// category-I metric. The grid has one thread block per z-slice; each block
/// reduces its slice with intra-thread strided loops, warp shuffles, and a
/// cross-warp shared-memory step; a grid sync then lets block 0 fold the
/// per-slice partials; a second grid-synced phase fills the three
/// histograms (error PDF, pwr-error PDF, value histogram for entropy) using
/// the min/max results of the first phase, so the whole category still
/// costs one launch.
[[nodiscard]] Pattern1Result pattern1_fused(vgpu::Device& dev, const zc::Tensor3f& orig,
                                            const zc::Tensor3f& dec,
                                            const zc::MetricsConfig& cfg);

/// Same kernel driven from already-uploaded device buffers (used by the
/// coordinator to avoid repeated H2D transfers across patterns).
[[nodiscard]] Pattern1Result pattern1_fused_device(vgpu::Device& dev,
                                                   const vgpu::DeviceBuffer<float>& d_orig,
                                                   const vgpu::DeviceBuffer<float>& d_dec,
                                                   const zc::Dims3& dims,
                                                   const zc::MetricsConfig& cfg,
                                                   const Pattern1Options& opt = {});

}  // namespace cuzc::cuzc

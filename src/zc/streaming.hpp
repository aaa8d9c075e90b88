#pragma once

#include <span>
#include <vector>

#include "metrics_config.hpp"
#include "reduction_metrics.hpp"
#include "report.hpp"
#include "tensor.hpp"

namespace cuzc::zc {

/// What a pattern-1 stream has folded so far: the moments, and the error,
/// pwr-error and value PDFs binned against running ranges (index 0, 1, 2
/// of `hist`, `lo` and `hi`) that widen as chunks arrive. The per-element
/// passes live in StreamingAssessor::feed (and, serial, in its fuzz
/// oracle); the chunk-level steps live here.
struct StreamFold {
    explicit StreamFold(const MetricsConfig& cfg);

    /// Takes one chunk's ranges, each the serial std::min/std::max fold
    /// seeded from the chunk's element 0. The first chunk sets the running
    /// ranges and the moments' min/max; a later one widens every running
    /// range it exceeds and rebins that PDF (the moments' min/max are the
    /// caller's, since they fold the elements themselves).
    void take_ranges(const double (&c_lo)[3], const double (&c_hi)[3]);

    /// Every pattern-1 metric over everything folded so far.
    [[nodiscard]] ReductionReport finalize() const;

    /// The moments' min/max slot of range k.
    static constexpr double ReductionMoments::*kMin[3] = {
        &ReductionMoments::min_err, &ReductionMoments::min_pwr, &ReductionMoments::min_val};
    static constexpr double ReductionMoments::*kMax[3] = {
        &ReductionMoments::max_err, &ReductionMoments::max_pwr, &ReductionMoments::max_val};

    MetricsConfig cfg;
    int bins;  ///< max(1, cfg.pdf_bins)
    ReductionMoments moments{};
    bool first = true;
    std::vector<double> hist[3];
    double lo[3] = {}, hi[3] = {};
};

/// In-situ (streaming) assessment of the pattern-1 metrics: data chunks
/// are fed as they are produced — e.g. one snapshot buffer at a time while
/// a simulation writes — and the global-reduction metrics are finalized at
/// the end without ever holding the whole dataset.
///
/// Every scalar metric (min/max/avg errors, MSE family, SNR/PSNR, Pearson)
/// is exact for any chunking: the sums add in element order. PDFs and
/// entropy need the global range before binning, so each chunk is binned
/// against the running range, and counts already binned are rebinned by
/// their bin centres when the range widens. One whole-field feed is the
/// batch computation (zc::reduction_metrics).
///
/// feed() runs two lane passes per chunk (see DESIGN §8); its scratch is
/// one fixed block on the stack, whatever the chunk length.
class StreamingAssessor {
public:
    explicit StreamingAssessor(const MetricsConfig& cfg) : fold_(cfg) {}

    /// Feed the next chunk of (original, decompressed) values. The spans
    /// must be the same length; a mismatch throws std::invalid_argument.
    void feed(std::span<const float> orig, std::span<const float> dec);

    /// Number of elements consumed so far.
    [[nodiscard]] std::size_t consumed() const noexcept { return fold_.moments.n; }

    /// Finalize all pattern-1 metrics over everything fed so far.
    [[nodiscard]] ReductionReport finalize() const { return fold_.finalize(); }

private:
    StreamFold fold_;
};

}  // namespace cuzc::zc

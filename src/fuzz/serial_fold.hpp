#pragma once

#include <span>
#include <vector>

#include "zc/metrics_config.hpp"
#include "zc/report.hpp"
#include "zc/streaming.hpp"

namespace cuzc::fuzz {

/// The stream fold's serial reference: zc::StreamingAssessor::feed as it
/// was before its lane passes, folding every range, moment and bin one
/// element at a time in order. The chunk-level steps (range widening,
/// rebinning, finalize) are zc::StreamFold's, shared with the lane fold,
/// so a difference points at the per-element passes.
class SerialStreamFold {
public:
    explicit SerialStreamFold(const zc::MetricsConfig& cfg) : fold_(cfg) {}

    /// Same contract as zc::StreamingAssessor::feed.
    void feed(std::span<const float> orig, std::span<const float> dec);

    [[nodiscard]] zc::ReductionReport finalize() const { return fold_.finalize(); }

private:
    zc::StreamFold fold_;
};

/// Feeds `orig`/`dec` cut into chunks of the lengths `cuts` to a fresh
/// `Fold` (zc::StreamingAssessor or SerialStreamFold) and finalizes it.
template <class Fold>
zc::ReductionReport fold_chunks(const zc::MetricsConfig& cfg, std::span<const float> orig,
                                std::span<const float> dec, const std::vector<std::size_t>& cuts) {
    Fold fold(cfg);
    std::size_t off = 0;
    for (const std::size_t n : cuts) {
        fold.feed(orig.subspan(off, n), dec.subspan(off, n));
        off += n;
    }
    return fold.finalize();
}

/// Whether two reports encode (net::encode_report) to the same bytes once
/// every NaN reads as one NaN: IEEE 754 does not fix which NaN an
/// operation returns.
[[nodiscard]] bool same_report_bits(const zc::ReductionReport& a, const zc::ReductionReport& b);

}  // namespace cuzc::fuzz

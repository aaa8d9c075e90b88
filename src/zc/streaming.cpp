#include "streaming.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "vgpu/simd.hpp"

namespace cuzc::zc {

namespace {

/// Elements per pass-2 block: the fold's scratch is this many x, y, e, p
/// doubles and three bin indices each, whatever the chunk length.
constexpr std::size_t kBlock = 256;

/// Element i's value of range k (0: e = y - x, 1: pwr error, 2: x).
double range_value(int k, std::span<const float> orig, std::span<const float> dec,
                   std::size_t i, double eps) {
    const double x = orig[i];
    if (k == 2) return x;
    return k == 0 ? static_cast<double>(dec[i]) - x : pwr_error(x, dec[i], eps);
}

/// Moves the counts of `hist`, binned against [old_lo, old_hi], into
/// [new_lo, new_hi].
void rebin(double old_lo, double old_hi, double new_lo, double new_hi, int bins,
           std::vector<double>& hist) {
    if (!(old_hi > old_lo)) {
        // Degenerate accumulated range (e.g. a constant-error first chunk):
        // every count so far was binned at the single point old_lo, so the
        // whole mass moves to that point's bin in the new range. The old
        // early-return here stranded the counts in bin 0 and skewed every
        // streamed PDF (and the entropy) whenever a stream opened flat.
        double total = 0.0;
        for (double c : hist) total += c;
        std::fill(hist.begin(), hist.end(), 0.0);
        if (total > 0) {
            hist[static_cast<std::size_t>(pdf_bin(old_lo, new_lo, new_hi, bins))] = total;
        }
        return;
    }
    std::vector<double> next(hist.size(), 0.0);
    for (std::size_t b = 0; b < hist.size(); ++b) {
        if (hist[b] == 0) continue;
        // Old bin centre mapped into the widened range (the documented
        // approximation of streaming distributions: counts keep their bin
        // centre, so widening never loses mass, only sub-bin precision).
        const double centre =
            old_lo + (static_cast<double>(b) + 0.5) / bins * (old_hi - old_lo);
        next[static_cast<std::size_t>(pdf_bin(centre, new_lo, new_hi, bins))] += hist[b];
    }
    hist = std::move(next);
}

}  // namespace

StreamFold::StreamFold(const MetricsConfig& c) : cfg(c), bins(std::max(1, c.pdf_bins)) {
    for (auto& h : hist) h.assign(static_cast<std::size_t>(bins), 0.0);
}

void StreamFold::take_ranges(const double (&c_lo)[3], const double (&c_hi)[3]) {
    for (int k = 0; k < 3; ++k) {
        if (first) {
            lo[k] = moments.*kMin[k] = c_lo[k];
            hi[k] = moments.*kMax[k] = c_hi[k];
            continue;
        }
        const double n_lo = std::min(lo[k], c_lo[k]), n_hi = std::max(hi[k], c_hi[k]);
        if (n_lo < lo[k] || n_hi > hi[k]) {
            rebin(lo[k], hi[k], n_lo, n_hi, bins, hist[k]);
            lo[k] = n_lo;
            hi[k] = n_hi;
        }
    }
    first = false;
}

ReductionReport StreamFold::finalize() const {
    ReductionReport out;
    if (moments.n == 0) return out;
    finalize_reduction(moments, out);
    const double inv_n = 1.0 / static_cast<double>(moments.n);
    out.err_pdf = hist[0];
    out.pwr_err_pdf = hist[1];
    out.err_pdf_min = lo[0];
    out.err_pdf_max = hi[0];
    out.pwr_err_pdf_min = lo[1];
    out.pwr_err_pdf_max = hi[1];
    double entropy = 0.0;
    for (std::size_t b = 0; b < hist[2].size(); ++b) {
        out.err_pdf[b] *= inv_n;
        out.pwr_err_pdf[b] *= inv_n;
        const double pv = hist[2][b] * inv_n;
        if (pv > 0) entropy -= pv * std::log2(pv);
    }
    out.entropy = entropy;
    return out;
}

void StreamingAssessor::feed(std::span<const float> orig, std::span<const float> dec) {
    // Mismatched chunks are a caller bug; silently truncating to the
    // overlap would skew every accumulated moment and histogram.
    if (orig.size() != dec.size()) {
        throw std::invalid_argument("StreamingAssessor::feed: chunk size mismatch (" +
                                    std::to_string(orig.size()) + " original vs " +
                                    std::to_string(dec.size()) + " decompressed elements)");
    }
    const std::size_t n = orig.size();
    if (n == 0) return;
    StreamFold& f = fold_;
    const double eps = f.cfg.pwr_eps;
    const auto& ops = vgpu::simd::ops();

    // Pass 1: the chunk's ranges of e, p and x, each the serial
    // std::min/std::max fold seeded from element 0 (in double: a
    // float-precision `dec[0] - orig[0]` can round past the true extreme
    // and widen the PDF range by an ulp batch assessment never sees). The
    // lanes reproduce it but for the sign of a zero extreme: the serial
    // fold keeps the first element attaining the extreme, so a ±0 extreme
    // is looked up serially.
    double seed[3], lo[3], hi[3];
    for (int k = 0; k < 3; ++k) seed[k] = lo[k] = hi[k] = range_value(k, orig, dec, 0, eps);
    ops.fold_ranges(orig.data(), dec.data(), eps, n, lo, hi);
    for (int k = 0; k < 3; ++k) {
        for (double* ext : {&lo[k], &hi[k]}) {
            if (*ext != 0) continue;
            for (std::size_t i = 0; i < n; ++i) {
                const double v = range_value(k, orig, dec, i, eps);
                if (v == 0) {
                    *ext = v;
                    break;
                }
            }
        }
    }
    // The moments' min/max continue the serial fold across chunks. Folding
    // in the chunk's extreme gives the same bits, unless the chunk's range
    // was seeded from a NaN and so stands for nothing: then fold the
    // elements.
    if (!f.first) {
        for (int k = 0; k < 3; ++k) {
            double& m_lo = f.moments.*StreamFold::kMin[k];
            double& m_hi = f.moments.*StreamFold::kMax[k];
            if (!std::isnan(seed[k])) {
                m_lo = std::min(m_lo, lo[k]);
                m_hi = std::max(m_hi, hi[k]);
                continue;
            }
            for (std::size_t i = 0; i < n; ++i) {
                const double v = range_value(k, orig, dec, i, eps);
                m_lo = std::min(m_lo, v);
                m_hi = std::max(m_hi, v);
            }
        }
    }
    f.take_ranges(lo, hi);

    // Pass 2, block by block: the lanes recompute x, y, e and p and bin
    // them against the running ranges; the nine sums and the histogram
    // counts then add in element order, as the serial fold adds them. An
    // empty range bins everything at 0, as pdf_bin does.
    const auto bin = [&](std::int32_t* dst, const double* v, int k, std::size_t m) {
        if (f.hi[k] > f.lo[k]) {
            ops.pdf_bins(dst, v, f.lo[k], f.hi[k] - f.lo[k], f.bins, m);
        } else {
            std::fill_n(dst, m, 0);
        }
    };
    ReductionMoments& mo = f.moments;
    mo.n += n;
    alignas(64) double xs[kBlock], ys[kBlock], es[kBlock], ps[kBlock];
    alignas(64) std::int32_t be[kBlock], bp[kBlock], bv[kBlock];
    double s_err = mo.sum_err, s_abs = mo.sum_abs_err, s_sq = mo.sum_err_sq;
    double s_pwr = mo.sum_pwr_abs, s_val = mo.sum_val, s_vsq = mo.sum_val_sq;
    double s_dec = mo.sum_dec, s_dsq = mo.sum_dec_sq, s_cross = mo.sum_cross;
    double* he = f.hist[0].data();
    double* hp = f.hist[1].data();
    double* hv = f.hist[2].data();
    for (std::size_t b0 = 0; b0 < n; b0 += kBlock) {
        const std::size_t m = std::min(kBlock, n - b0);
        ops.cvt(xs, orig.data() + b0, m);
        ops.cvt(ys, dec.data() + b0, m);
        ops.sub(es, ys, xs, m);
        ops.pwr(ps, xs, ys, eps, m);
        bin(be, es, 0, m);
        bin(bp, ps, 1, m);
        bin(bv, xs, 2, m);
        for (std::size_t i = 0; i < m; ++i) {
            const double x = xs[i], y = ys[i], e = es[i], p = ps[i];
            s_err += e;
            s_abs += std::fabs(e);
            s_sq += e * e;
            s_pwr += std::fabs(p);
            s_val += x;
            s_vsq += x * x;
            s_dec += y;
            s_dsq += y * y;
            s_cross += x * y;
            he[be[i]] += 1.0;
            hp[bp[i]] += 1.0;
            hv[bv[i]] += 1.0;
        }
    }
    mo.sum_err = s_err;
    mo.sum_abs_err = s_abs;
    mo.sum_err_sq = s_sq;
    mo.sum_pwr_abs = s_pwr;
    mo.sum_val = s_val;
    mo.sum_val_sq = s_vsq;
    mo.sum_dec = s_dec;
    mo.sum_dec_sq = s_dsq;
    mo.sum_cross = s_cross;
}

}  // namespace cuzc::zc

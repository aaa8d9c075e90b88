// Differential properties: chunked streaming vs batch assessment, SIMD
// backend cross-checks, result-cache key injectivity probes, and the
// response codec round-trip. These targets compare two implementations of
// the same contract against each other over randomized inputs, so the
// oracle is "bit-identical" rather than hand-computed values.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "cuzc/coordinator.hpp"
#include "fuzz/fuzz.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/rng.hpp"
#include "fuzz/serial_fold.hpp"
#include "net/wire.hpp"
#include "serve/cache.hpp"
#include "serve/request.hpp"
#include "vgpu/device.hpp"
#include "vgpu/simd.hpp"
#include "zc/reduction_metrics.hpp"
#include "zc/streaming.hpp"
#include "zc/tensor.hpp"

namespace cuzc::fuzz {
namespace {

zc::Field random_field(Rng& rng, const zc::Dims3& dims) {
    zc::Field f(dims);
    for (float& v : f.data()) {
        // Mixed magnitudes make summation-order differences observable.
        const double mag = rng.chance(0.1) ? 1e4 : 1.0;
        v = static_cast<float>((rng.unit() * 2.0 - 1.0) * mag);
    }
    return f;
}

// --- stream-diff --------------------------------------------------------

// The scalar moments the streaming contract guarantees bit-identical to
// the batch assessor regardless of chunking (tests/test_streaming.cpp pins
// the same list).
std::vector<double> scalar_moments(const zc::ReductionReport& r) {
    return {r.min_val,     r.max_val,     r.mean_val, r.std_val,  r.min_err,
            r.max_err,     r.avg_err,     r.avg_abs_err, r.max_abs_err,
            r.min_pwr_err, r.max_pwr_err, r.mse,      r.rmse,     r.nrmse,
            r.snr_db,      r.psnr_db,     r.pearson_r, r.err_pdf_min, r.err_pdf_max};
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct BackendGuard {
    vgpu::simd::Backend saved = vgpu::simd::active_backend();
    ~BackendGuard() { vgpu::simd::force_backend(saved); }
};

/// One element: mostly finite, and with `hostile` also ±0, ±inf, NaN and
/// denormals, the inputs that take the lane fold's exceptional paths.
float stream_value(Rng& rng, bool hostile) {
    if (hostile && rng.chance(0.2)) {
        constexpr float kInf = std::numeric_limits<float>::infinity();
        constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
        constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
        const float specials[] = {0.0f, -0.0f, kInf, -kInf, kNaN, kDenorm, -37.0f * kDenorm};
        return specials[rng.below(std::size(specials))];
    }
    const double mag = rng.chance(0.1) ? 1e4 : 1.0;
    return static_cast<float>((rng.unit() * 2.0 - 1.0) * mag);
}

void stream_diff_iterate(std::uint64_t seed, std::uint64_t iter) {
    Rng rng(mix_seed(seed, iter, 0x73646966));  // "sdif"
    const std::size_t n = rng.range(1, 4000);
    const bool hostile = rng.chance(0.5);
    std::vector<float> orig(n), dec(n);
    for (std::size_t i = 0; i < n; ++i) {
        orig[i] = stream_value(rng, hostile);
        if (rng.chance(0.1)) {
            dec[i] = orig[i];
        } else if (hostile && rng.chance(0.1)) {
            dec[i] = stream_value(rng, true);
        } else {
            dec[i] = orig[i] + static_cast<float>((rng.unit() * 2.0 - 1.0) * 0.05);
        }
    }
    zc::MetricsConfig cfg = zc::MetricsConfig::only(zc::Pattern::kGlobalReduction);
    cfg.pdf_bins = static_cast<int>(rng.range(1, 300));
    if (rng.chance(0.25)) cfg.pwr_eps = 0.0;
    // Half the streams come in chunks of at most 16 elements, so they
    // rebin many times; the others in chunks of up to 1500.
    const std::size_t max_chunk = rng.chance(0.5) ? 16 : 1500;
    std::vector<std::size_t> cuts;
    for (std::size_t off = 0; off < n;) {
        cuts.push_back(std::min<std::size_t>(n - off, rng.range(1, max_chunk)));
        off += cuts.back();
    }

    // Every backend's lane fold reproduces the serial oracle, report field
    // for report field, chunked and as one whole feed (= batch).
    const auto ref = fold_chunks<SerialStreamFold>(cfg, orig, dec, cuts);
    const auto ref_whole = fold_chunks<SerialStreamFold>(cfg, orig, dec, {n});
    const zc::Tensor3f to(orig, {1, 1, n}), td(dec, {1, 1, n});
    BackendGuard guard;
    for (const vgpu::simd::Backend b : vgpu::simd::available_backends()) {
        const std::string name(vgpu::simd::backend_name(b));
        if (!vgpu::simd::force_backend(b)) {
            throw FuzzFailure("advertised SIMD backend refused to activate: " + name);
        }
        if (!same_report_bits(fold_chunks<zc::StreamingAssessor>(cfg, orig, dec, cuts), ref)) {
            throw FuzzFailure("chunked stream fold diverged from the serial oracle on " + name);
        }
        if (!same_report_bits(zc::reduction_metrics(to, td, cfg), ref_whole)) {
            throw FuzzFailure("batch reduction diverged from the serial oracle on " + name);
        }
    }

    // On finite data the scalar moments do not depend on the chunking.
    if (!hostile && !bitwise_equal(scalar_moments(ref), scalar_moments(ref_whole))) {
        throw FuzzFailure("chunked streaming scalar moments diverged from batch");
    }
    // Distributions may rebin, but probability mass is conserved.
    double mass = 0;
    for (const double p : ref.err_pdf) mass += p;
    if (mass < 1.0 - 1e-9 || mass > 1.0 + 1e-9) {
        throw FuzzFailure("chunked streaming error PDF mass is " + std::to_string(mass));
    }

    // The chunked feed consumes every element, and a skewed chunk must be
    // rejected without corrupting the accumulator.
    zc::StreamingAssessor chunked(cfg);
    std::size_t off = 0;
    for (const std::size_t c : cuts) {
        chunked.feed(std::span<const float>(orig).subspan(off, c),
                     std::span<const float>(dec).subspan(off, c));
        off += c;
    }
    const auto before = chunked.consumed();
    if (before != n) {
        throw FuzzFailure("chunked streaming lost elements: consumed " + std::to_string(before) +
                          " of " + std::to_string(n));
    }
    const std::vector<float> four(4, 1.0f), three(3, 1.0f);
    bool threw = false;
    try {
        chunked.feed(four, three);
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    if (!threw || chunked.consumed() != before) {
        throw FuzzFailure("skewed chunk was not rejected cleanly");
    }
}

// --- simd-diff ----------------------------------------------------------

void simd_diff_iterate(std::uint64_t seed, std::uint64_t iter) {
    Rng rng(mix_seed(seed, iter, 0x73696d64));  // "simd"
    // x up to 70 gives pattern 3 a second and a partial third 32-lane
    // sweep; small y and z keep each iteration cheap.
    const zc::Dims3 dims{rng.range(2, 70), rng.range(2, 5), rng.range(2, 8)};
    const zc::Field orig = random_field(rng, dims);
    zc::Field dec = orig;
    for (float& v : dec.data()) {
        v += static_cast<float>((rng.unit() * 2.0 - 1.0) * 0.01);
    }
    zc::MetricsConfig cfg;
    cfg.pdf_bins = static_cast<int>(rng.range(2, 32));
    cfg.ssim_window = static_cast<int>(rng.range(1, 10));
    cfg.ssim_step = static_cast<int>(rng.range(1, 4));

    BackendGuard guard;
    if (!vgpu::simd::force_backend(vgpu::simd::Backend::kScalar)) {
        throw FuzzFailure("scalar SIMD backend refused to activate");
    }
    std::vector<std::uint8_t> baseline;
    {
        vgpu::Device dev;
        const auto r = ::cuzc::cuzc::assess(dev, orig.view(), dec.view(), cfg);
        baseline = net::encode_report(r.report);
    }
    for (const vgpu::simd::Backend b : vgpu::simd::available_backends()) {
        if (b == vgpu::simd::Backend::kScalar) continue;
        if (!vgpu::simd::force_backend(b)) {
            throw FuzzFailure(std::string("advertised SIMD backend refused to activate: ") +
                              std::string(vgpu::simd::backend_name(b)));
        }
        vgpu::Device dev;
        const auto r = ::cuzc::cuzc::assess(dev, orig.view(), dec.view(), cfg);
        if (net::encode_report(r.report) != baseline) {
            throw FuzzFailure(std::string("SIMD backend diverged from scalar: ") +
                              std::string(vgpu::simd::backend_name(b)));
        }
    }
}

// --- cache-key ----------------------------------------------------------

void cache_key_iterate(std::uint64_t seed, std::uint64_t iter) {
    Rng rng(mix_seed(seed, iter, 0x6b657973));  // "keys"
    std::vector<zc::Field> origs, decs;
    std::vector<zc::MetricsConfig> cfgs;
    std::vector<serve::CacheKey> keys;
    const std::uint64_t n = rng.range(4, 12);
    for (std::uint64_t i = 0; i < n; ++i) {
        const zc::Dims3 dims{rng.range(1, 4), rng.range(1, 4), rng.range(1, 6)};
        origs.push_back(random_field(rng, dims));
        decs.push_back(random_field(rng, dims));
        zc::MetricsConfig cfg;
        cfg.pdf_bins = static_cast<int>(rng.range(1, 256));
        cfg.pattern2 = rng.chance(0.5);
        cfgs.push_back(cfg);
        keys.push_back(serve::result_cache_key(origs.back().view(), decs.back().view(), cfg));
    }

    // Injectivity probe: distinct inputs must not collide.
    const auto same_cfg = [](const zc::MetricsConfig& a, const zc::MetricsConfig& b) {
        return a.pattern1 == b.pattern1 && a.pattern2 == b.pattern2 &&
               a.pattern3 == b.pattern3 && a.pdf_bins == b.pdf_bins &&
               a.autocorr_max_lag == b.autocorr_max_lag &&
               a.deriv_orders == b.deriv_orders && a.ssim_window == b.ssim_window &&
               a.ssim_step == b.ssim_step && a.pwr_eps == b.pwr_eps;
    };
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (std::size_t j = i + 1; j < keys.size(); ++j) {
            const bool same_input =
                origs[i].dims() == origs[j].dims() &&
                std::memcmp(origs[i].data().data(), origs[j].data().data(),
                            origs[i].data().size_bytes()) == 0 &&
                std::memcmp(decs[i].data().data(), decs[j].data().data(),
                            decs[i].data().size_bytes()) == 0 &&
                same_cfg(cfgs[i], cfgs[j]);
            if (!same_input && keys[i] == keys[j]) {
                throw FuzzFailure("cache key collision between distinct inputs " +
                                  std::to_string(i) + " and " + std::to_string(j));
            }
        }
    }

    // Determinism: re-keying the same input reproduces the key.
    const std::size_t pick = static_cast<std::size_t>(rng.below(keys.size()));
    if (serve::result_cache_key(origs[pick].view(), decs[pick].view(), cfgs[pick]) !=
        keys[pick]) {
        throw FuzzFailure("cache key is not deterministic");
    }

    // Sensitivity: one flipped data bit or one changed knob moves the key.
    zc::Field tweaked = origs[pick];
    const std::size_t elt = static_cast<std::size_t>(rng.below(tweaked.size()));
    auto bits = std::bit_cast<std::uint32_t>(tweaked.data()[elt]);
    bits ^= 1u << rng.below(31);  // keep the sign of NaN payloads out of it
    tweaked.data()[elt] = std::bit_cast<float>(bits);
    if (std::memcmp(&tweaked.data()[elt], &origs[pick].data()[elt], sizeof(float)) != 0 &&
        serve::result_cache_key(tweaked.view(), decs[pick].view(), cfgs[pick]) ==
            keys[pick]) {
        throw FuzzFailure("cache key ignored a flipped data bit");
    }
    zc::MetricsConfig knob = cfgs[pick];
    knob.pdf_bins += 1;
    if (serve::result_cache_key(origs[pick].view(), decs[pick].view(), knob) == keys[pick]) {
        throw FuzzFailure("cache key ignored a config knob change");
    }

    // A shape-mismatched pair can never name a cacheable result.
    const zc::Dims3 other{origs[pick].dims().h, origs[pick].dims().w,
                          origs[pick].dims().l + 1};
    const zc::Field bigger = random_field(rng, other);
    bool threw = false;
    try {
        (void)serve::result_cache_key(origs[pick].view(), bigger.view(), cfgs[pick]);
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    if (!threw) {
        throw FuzzFailure("cache key accepted a shape-mismatched pair");
    }
}

// --- report-roundtrip ---------------------------------------------------

serve::AssessResponse random_response(Rng& rng) {
    serve::AssessResponse resp;
    resp.cache_hit = rng.chance(0.3);
    resp.degraded = rng.chance(0.2);
    resp.rejected = rng.chance(0.2);
    if (resp.rejected) resp.error = "fuzz error " + std::to_string(rng.below(100));
    resp.retries = static_cast<std::uint32_t>(rng.below(3));
    resp.shards = static_cast<std::uint32_t>(rng.range(1, 4));
    if (rng.chance(0.3)) resp.shed = {"ssim", "autocorr"};
    resp.effective_cfg.pdf_bins = static_cast<int>(rng.range(1, 256));
    resp.modeled_cost_s = rng.unit();
    resp.batch_epoch = rng.below(1000);
    resp.spans.kernel_s = rng.unit();
    auto& red = resp.result.report.reduction;
    red.mse = rng.unit();
    red.psnr_db = rng.unit() * 100;
    red.err_pdf.assign(rng.range(0, 16), 0.0625);
    red.pwr_err_pdf.assign(rng.range(0, 16), 0.0625);
    resp.result.report.stencil.autocorr.assign(rng.range(0, 8), 0.5);
    resp.result.report.ssim.ssim = rng.unit();
    return resp;
}

/// Accept: the payload decodes and re-encoding is stable (idempotent after
/// one normalization pass). Reject: the decoder throws WireError. Anything
/// else escaping is the finding.
void response_replay(std::span<const std::uint8_t> bytes, Oracle oracle) {
    bool rejected = false;
    std::string why;
    try {
        const serve::AssessResponse decoded = net::decode_response(bytes);
        const auto once = net::encode_response(decoded);
        const auto twice = net::encode_response(net::decode_response(once));
        if (once != twice) {
            throw FuzzFailure("response re-encoding is not idempotent",
                              {bytes.begin(), bytes.end()}, Oracle::kInvariant);
        }
    } catch (const net::WireError& e) {
        rejected = true;
        why = e.what();
    }
    check_verdict(bytes, oracle, rejected, "response", why);
}

void report_roundtrip_iterate(std::uint64_t seed, std::uint64_t iter) {
    Rng rng(mix_seed(seed, iter, 0x72707274));  // "rprt"
    const serve::AssessResponse resp = random_response(rng);
    const auto payload = net::encode_response(resp);

    // Encoder-produced payloads round-trip bit-identically.
    const auto redone = net::encode_response(net::decode_response(payload));
    if (redone != payload) {
        throw FuzzFailure("encoder-produced response did not round-trip bit-identically",
                          payload, Oracle::kAccept);
    }
    // And the report digest is deterministic.
    if (net::digest_report(1, resp.result.report) != net::digest_report(1, resp.result.report)) {
        throw FuzzFailure("report digest is not deterministic");
    }

    std::vector<std::uint8_t> mutated = payload;
    mutate_bytes(mutated, rng, 4);
    probe(response_replay, mutated, Oracle::kInvariant, "response decoder");
}

void report_roundtrip_corpus(CorpusWriter& w) {
    Rng rng(13);
    const auto payload = net::encode_response(random_response(rng));
    w.add("response-small.bin", Oracle::kAccept, payload);
    w.add("response-truncated.bin", Oracle::kReject,
          std::span<const std::uint8_t>(payload).first(payload.size() / 2));
}

}  // namespace

void register_diff_targets() {
    register_target(Target{
        "stream-diff",
        "lane stream fold and batch reduction vs the serial oracle on every SIMD backend, "
        "over random chunkings and non-finite inputs: every report field bit-identical, "
        "PDF mass conserved, skewed chunks rejected",
        stream_diff_iterate,
        nullptr,
        nullptr,
    });
    register_target(Target{
        "simd-diff",
        "every available SIMD backend reproduces the scalar backend's assessment "
        "bit-for-bit",
        simd_diff_iterate,
        nullptr,
        nullptr,
    });
    register_target(Target{
        "cache-key",
        "result-cache key injectivity, determinism, bit sensitivity, and shape-mismatch "
        "rejection",
        cache_key_iterate,
        nullptr,
        nullptr,
    });
    register_target(Target{
        "report-roundtrip",
        "response codec: encode/decode round-trips bit-identically; mutations reject via "
        "WireError only",
        report_roundtrip_iterate,
        response_replay,
        report_roundtrip_corpus,
    });
}

}  // namespace cuzc::fuzz

#include "wire.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace cuzc::net {

namespace {

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "mixed-endian hosts are not supported");

template <class T>
void put_le(std::vector<std::uint8_t>& buf, T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

template <class T>
[[nodiscard]] T get_le(const std::uint8_t* p) {
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    }
    return v;
}

/// Caps on the count-prefixed containers, on top of the frame-level
/// payload limit: a malicious count must never drive an allocation bigger
/// than the bytes actually present.
constexpr std::uint64_t kMaxExtent = 1ull << 20;  ///< per-axis field extent

void encode_cfg(Writer& w, const zc::MetricsConfig& cfg) {
    w.u8(cfg.pattern1);
    w.u8(cfg.pattern2);
    w.u8(cfg.pattern3);
    w.i32(cfg.pdf_bins);
    w.i32(cfg.autocorr_max_lag);
    w.i32(cfg.deriv_orders);
    w.i32(cfg.ssim_window);
    w.i32(cfg.ssim_step);
    w.f64(cfg.pwr_eps);
}

[[nodiscard]] zc::MetricsConfig decode_cfg(Reader& r) {
    zc::MetricsConfig cfg;
    cfg.pattern1 = r.u8() != 0;
    cfg.pattern2 = r.u8() != 0;
    cfg.pattern3 = r.u8() != 0;
    cfg.pdf_bins = r.i32();
    cfg.autocorr_max_lag = r.i32();
    cfg.deriv_orders = r.i32();
    cfg.ssim_window = r.i32();
    cfg.ssim_step = r.i32();
    cfg.pwr_eps = r.f64();
    return cfg;
}

/// Request-direction config validation (decode_request_view / decode_stream_begin):
/// the server must reject a hostile config at the framing layer, before any
/// assessor or kernel sees it. Without it a 37-byte StreamBegin declaring
/// pdf_bins = 2^31-1 walks straight into the StreamingAssessor constructor,
/// whose histogram allocation then throws bad_alloc out of the server's
/// event loop. Responses echo a config the server already validated, so the
/// response decoder leaves it alone.
void validate_cfg(const zc::MetricsConfig& cfg, const char* where) {
    if (const std::string err = zc::validate(cfg); !err.empty()) {
        throw WireError(std::string(where) + ": " + err);
    }
}

void encode_f64_vec(Writer& w, const std::vector<double>& v) {
    w.u64(v.size());
    for (double d : v) w.f64(d);
}

[[nodiscard]] std::vector<double> decode_f64_vec(Reader& r) {
    const std::uint64_t n = r.u64();
    if (n > r.remaining() / 8) throw WireError("truncated payload");
    std::vector<double> v(static_cast<std::size_t>(n));
    for (auto& d : v) d = r.f64();
    return v;
}

void encode_report_into(Writer& w, const zc::AssessmentReport& report) {
    const zc::ReductionReport& a = report.reduction;
    for (double d : {a.min_val, a.max_val, a.value_range, a.mean_val, a.var_val, a.std_val,
                     a.entropy, a.min_err, a.max_err, a.avg_err, a.avg_abs_err, a.max_abs_err,
                     a.min_pwr_err, a.max_pwr_err, a.avg_pwr_err, a.mse, a.rmse, a.nrmse,
                     a.snr_db, a.psnr_db, a.pearson_r}) {
        w.f64(d);
    }
    encode_f64_vec(w, a.err_pdf);
    w.f64(a.err_pdf_min);
    w.f64(a.err_pdf_max);
    encode_f64_vec(w, a.pwr_err_pdf);
    w.f64(a.pwr_err_pdf_min);
    w.f64(a.pwr_err_pdf_max);

    const zc::StencilReport& s = report.stencil;
    for (double d : {s.deriv1_avg_orig, s.deriv1_max_orig, s.deriv1_avg_dec, s.deriv1_max_dec,
                     s.deriv1_mse, s.deriv2_avg_orig, s.deriv2_max_orig, s.deriv2_avg_dec,
                     s.deriv2_max_dec, s.deriv2_mse, s.divergence_avg_orig,
                     s.divergence_avg_dec, s.laplacian_avg_orig, s.laplacian_avg_dec}) {
        w.f64(d);
    }
    encode_f64_vec(w, s.autocorr);

    w.f64(report.ssim.ssim);
    w.u64(report.ssim.windows);
}

[[nodiscard]] zc::AssessmentReport decode_report_from(Reader& r) {
    zc::AssessmentReport report;
    zc::ReductionReport& a = report.reduction;
    for (double* d : {&a.min_val, &a.max_val, &a.value_range, &a.mean_val, &a.var_val,
                      &a.std_val, &a.entropy, &a.min_err, &a.max_err, &a.avg_err,
                      &a.avg_abs_err, &a.max_abs_err, &a.min_pwr_err, &a.max_pwr_err,
                      &a.avg_pwr_err, &a.mse, &a.rmse, &a.nrmse, &a.snr_db, &a.psnr_db,
                      &a.pearson_r}) {
        *d = r.f64();
    }
    a.err_pdf = decode_f64_vec(r);
    a.err_pdf_min = r.f64();
    a.err_pdf_max = r.f64();
    a.pwr_err_pdf = decode_f64_vec(r);
    a.pwr_err_pdf_min = r.f64();
    a.pwr_err_pdf_max = r.f64();

    zc::StencilReport& s = report.stencil;
    for (double* d : {&s.deriv1_avg_orig, &s.deriv1_max_orig, &s.deriv1_avg_dec,
                      &s.deriv1_max_dec, &s.deriv1_mse, &s.deriv2_avg_orig, &s.deriv2_max_orig,
                      &s.deriv2_avg_dec, &s.deriv2_max_dec, &s.deriv2_mse,
                      &s.divergence_avg_orig, &s.divergence_avg_dec, &s.laplacian_avg_orig,
                      &s.laplacian_avg_dec}) {
        *d = r.f64();
    }
    s.autocorr = decode_f64_vec(r);

    report.ssim.ssim = r.f64();
    report.ssim.windows = static_cast<std::size_t>(r.u64());
    return report;
}

}  // namespace

// Cache-line aligned: the 64-byte round loop runs at a speed that depends
// on its offset within a cache line, and code size changes elsewhere in the
// binary moved it. A 32-byte shift made it about 35% slower, which cost the
// streaming sessions about 15% of their rate.
[[gnu::aligned(64)]] std::uint32_t frame_checksum(std::span<const std::uint8_t> bytes) noexcept {
    constexpr std::uint64_t kBasis = 14695981039346656037ull;
    constexpr std::uint64_t kPrime = 1099511628211ull;
    std::uint64_t lane[8];
    for (std::uint32_t i = 0; i < 8; ++i) lane[i] = kBasis ^ (i + 1);
    std::size_t n = bytes.size();
    const std::uint8_t* p = bytes.data();
    // 8 lanes x one 64-bit little-endian word per step: 64 bytes per round
    // of 8 independent multiplies.
    while (n >= 64) {
        for (std::uint32_t i = 0; i < 8; ++i) {
            lane[i] = (lane[i] ^ get_le<std::uint64_t>(p + 8 * i)) * kPrime;
        }
        p += 64;
        n -= 64;
    }
    for (std::size_t i = 0; i < n; ++i) {
        lane[i & 7] = (lane[i & 7] ^ p[i]) * kPrime;
    }
    std::uint64_t h = kBasis;
    for (std::uint32_t i = 0; i < 8; ++i) h = (h ^ lane[i]) * kPrime;
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes, std::uint64_t h) noexcept {
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

// --- Writer ------------------------------------------------------------

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }
void Writer::u16(std::uint16_t v) { put_le(buf_, v); }
void Writer::u32(std::uint32_t v) { put_le(buf_, v); }
void Writer::u64(std::uint64_t v) { put_le(buf_, v); }
void Writer::i32(std::int32_t v) { put_le(buf_, static_cast<std::uint32_t>(v)); }
void Writer::f64(double v) { put_le(buf_, std::bit_cast<std::uint64_t>(v)); }

void Writer::f32_span(std::span<const float> v) {
    u64(v.size());
    if constexpr (std::endian::native == std::endian::little) {
        const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
        buf_.insert(buf_.end(), p, p + v.size_bytes());
    } else {
        for (float f : v) put_le(buf_, std::bit_cast<std::uint32_t>(f));
    }
}

void Writer::str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size());
}

void Writer::bytes(std::span<const std::uint8_t> v) {
    u64(v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
}

// --- Reader ------------------------------------------------------------

void Reader::need(std::size_t n) const {
    if (remaining() < n) throw WireError("truncated payload");
}

std::uint8_t Reader::u8() {
    need(1);
    return data_[pos_++];
}
std::uint16_t Reader::u16() {
    need(2);
    const auto v = get_le<std::uint16_t>(data_.data() + pos_);
    pos_ += 2;
    return v;
}
std::uint32_t Reader::u32() {
    need(4);
    const auto v = get_le<std::uint32_t>(data_.data() + pos_);
    pos_ += 4;
    return v;
}
std::uint64_t Reader::u64() {
    need(8);
    const auto v = get_le<std::uint64_t>(data_.data() + pos_);
    pos_ += 8;
    return v;
}
std::int32_t Reader::i32() { return static_cast<std::int32_t>(u32()); }
double Reader::f64() { return std::bit_cast<double>(u64()); }

std::pair<std::uint64_t, std::span<const std::uint8_t>> Reader::f32_raw() {
    const std::uint64_t n = u64();
    // Bounds check in element space, all in 64-bit arithmetic: forming
    // `n * 4` first would wrap for a hostile count on a 32-bit size_t
    // (and for counts near 2^62 even in 64-bit space), sliding a huge
    // span past the check.
    if (n > static_cast<std::uint64_t>(remaining()) / sizeof(float)) {
        throw WireError("truncated payload");
    }
    const std::size_t len = static_cast<std::size_t>(n) * sizeof(float);
    const std::span<const std::uint8_t> raw(data_.data() + pos_, len);
    pos_ += len;
    return {n, raw};
}

std::string Reader::str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
}

std::vector<std::uint8_t> Reader::bytes() {
    const std::uint64_t n = u64();
    // Compare before narrowing: casting a hostile count like 2^32 to a
    // 32-bit size_t truncates it to 0, slipping it past need() while the
    // iterator arithmetic below still uses the full value.
    if (n > static_cast<std::uint64_t>(remaining())) throw WireError("truncated payload");
    const std::size_t len = static_cast<std::size_t>(n);
    std::vector<std::uint8_t> v(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return v;
}

void Reader::expect_end() const {
    if (remaining() != 0) throw WireError("trailing bytes after payload");
}

// --- Payload codecs ----------------------------------------------------

std::vector<std::uint8_t> encode_hello() {
    Writer w;
    w.str(kProtocolName);
    return w.take();
}

void decode_hello(std::span<const std::uint8_t> payload) {
    Reader r(payload);
    const std::string name = r.str();
    r.expect_end();
    if (name != kProtocolName) throw WireError("handshake: unknown protocol");
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAck& ack) {
    Writer w;
    w.str(kProtocolName);
    w.u64(ack.max_frame_payload);
    w.u64(ack.max_inflight_per_connection);
    w.u64(ack.max_streams_per_connection);
    return w.take();
}

HelloAck decode_hello_ack(std::span<const std::uint8_t> payload) {
    Reader r(payload);
    if (r.str() != kProtocolName) throw WireError("handshake: unknown protocol");
    HelloAck ack;
    ack.max_frame_payload = static_cast<std::size_t>(r.u64());
    ack.max_inflight_per_connection = static_cast<std::size_t>(r.u64());
    ack.max_streams_per_connection = static_cast<std::size_t>(r.u64());
    r.expect_end();
    return ack;
}

namespace {

void encode_request_into(Writer& w, const serve::AssessRequest& req) {
    w.reserve(128 + req.orig.data().size_bytes() + req.dec.data().size_bytes() +
              req.sz_stream.size());
    const zc::Dims3 dims = req.orig.dims();
    w.u64(dims.h);
    w.u64(dims.w);
    w.u64(dims.l);
    encode_cfg(w, req.cfg);
    w.f64(req.deadline_model_s);
    w.i32(req.priority);
    w.f32_span(req.orig.data());
    w.f32_span(req.dec.data());
    w.bytes(req.sz_stream);
}

/// Patch the frame header into a buffer whose first kSize bytes were left
/// as a gap by Writer::zeros, checksumming the payload that follows.
[[nodiscard]] std::vector<std::uint8_t> seal_frame(Writer&& w, FrameType type,
                                                   std::uint64_t request_id,
                                                   std::uint16_t version = kVersion) {
    std::vector<std::uint8_t> frame = w.take();
    const std::span<const std::uint8_t> payload(frame.data() + FrameHeader::kSize,
                                                frame.size() - FrameHeader::kSize);
    if (payload.size() > 0xffffffffull) {
        // The header length field is u32; a silent cast would desynchronize
        // the stream at byte 4 GiB of the payload.
        throw WireError("frame payload exceeds the u32 length field");
    }
    std::uint8_t* p = frame.data();
    const auto put_at = [&p](std::size_t off, auto v) {
        for (std::size_t i = 0; i < sizeof(v); ++i) {
            p[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
    };
    put_at(0, kMagic);
    put_at(4, version);
    put_at(6, static_cast<std::uint16_t>(type));
    put_at(8, request_id);
    put_at(16, static_cast<std::uint32_t>(payload.size()));
    put_at(20, frame_checksum(payload));
    return frame;
}

/// Turn a raw little-endian float run from f32_raw into a FieldRef:
/// aliased in place (pinned by `slab`) when the run is element-aligned on
/// a little-endian host, copied into a pooled slab otherwise. The caller
/// has already validated `raw.size() == dims.volume() * sizeof(float)`.
[[nodiscard]] zc::FieldRef field_from_raw(std::span<const std::uint8_t> raw,
                                          const zc::Dims3& dims,
                                          const zc::SlabHandle& slab) {
    if constexpr (std::endian::native == std::endian::little) {
        if (slab && reinterpret_cast<std::uintptr_t>(raw.data()) % alignof(float) == 0) {
            return zc::FieldRef::alias(slab, reinterpret_cast<const float*>(raw.data()),
                                       dims);
        }
    }
    zc::FieldBuffer staging(dims);
    const std::span<float> dst = staging.data();
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(dst.data(), raw.data(), raw.size());
    } else {
        for (std::size_t i = 0; i < dst.size(); ++i) {
            dst[i] = std::bit_cast<float>(get_le<std::uint32_t>(raw.data() + i * 4));
        }
    }
    zc::data_plane_note_copy(raw.size());
    return std::move(staging).seal();
}

}  // namespace

std::vector<std::uint8_t> encode_request(const serve::AssessRequest& req) {
    Writer w;
    encode_request_into(w, req);
    return w.take();
}

std::vector<std::uint8_t> encode_request_frame(const serve::AssessRequest& req,
                                               std::uint64_t request_id) {
    Writer w;
    w.zeros(FrameHeader::kSize);
    encode_request_into(w, req);
    return seal_frame(std::move(w), FrameType::kRequest, request_id);
}

serve::AssessRequest decode_request_view(std::span<const std::uint8_t> payload,
                                         const zc::SlabHandle& slab) {
    Reader r(payload);
    serve::AssessRequest req;
    const std::uint64_t h = r.u64();
    const std::uint64_t w = r.u64();
    const std::uint64_t l = r.u64();
    if (h == 0 || w == 0 || l == 0 || h > kMaxExtent || w > kMaxExtent || l > kMaxExtent) {
        throw WireError("request: bad field shape");
    }
    const zc::Dims3 dims{static_cast<std::size_t>(h), static_cast<std::size_t>(w),
                         static_cast<std::size_t>(l)};
    req.cfg = decode_cfg(r);
    validate_cfg(req.cfg, "request");
    req.deadline_model_s = r.f64();
    req.priority = r.i32();
    const auto [orig_n, orig_raw] = r.f32_raw();
    const auto [dec_n, dec_raw] = r.f32_raw();
    req.sz_stream = r.bytes();
    r.expect_end();
    if (orig_n != static_cast<std::uint64_t>(dims.volume())) {
        throw WireError("request: original field disagrees with the declared shape");
    }
    if (dec_n != 0 && dec_n != static_cast<std::uint64_t>(dims.volume())) {
        throw WireError("request: decompressed field disagrees with the declared shape");
    }
    if (dec_n == 0 && req.sz_stream.empty()) {
        throw WireError("request: neither a decompressed field nor an SZ stream");
    }
    req.orig = field_from_raw(orig_raw, dims, slab);
    if (dec_n != 0) req.dec = field_from_raw(dec_raw, dims, slab);
    return req;
}

namespace {

void encode_response_into(Writer& w, const serve::AssessResponse& resp) {
    std::uint8_t flags = 0;
    if (resp.cache_hit) flags |= 1u;
    if (resp.degraded) flags |= 2u;
    if (resp.rejected) flags |= 4u;
    if (resp.timed_out) flags |= 8u;
    w.u8(flags);
    w.str(resp.error);
    w.u32(resp.retries);
    w.u64(resp.faults);
    w.u32(resp.shards);
    w.u64(resp.exchange_bytes);
    w.u64(resp.shard_retries);
    w.u32(static_cast<std::uint32_t>(resp.shed.size()));
    for (const auto& s : resp.shed) w.str(s);
    encode_cfg(w, resp.effective_cfg);
    w.f64(resp.modeled_cost_s);
    w.u64(resp.batch_epoch);
    w.f64(resp.spans.queue_s);
    w.f64(resp.spans.upload_s);
    w.f64(resp.spans.kernel_s);
    w.f64(resp.spans.report_s);
    encode_report_into(w, resp.result.report);
}

}  // namespace

std::vector<std::uint8_t> encode_response(const serve::AssessResponse& resp) {
    Writer w;
    encode_response_into(w, resp);
    return w.take();
}

std::vector<std::uint8_t> encode_response_frame(const serve::AssessResponse& resp,
                                                std::uint64_t request_id) {
    Writer w;
    w.zeros(FrameHeader::kSize);
    encode_response_into(w, resp);
    return seal_frame(std::move(w), FrameType::kResponse, request_id);
}

serve::AssessResponse decode_response(std::span<const std::uint8_t> payload) {
    Reader r(payload);
    serve::AssessResponse resp;
    const std::uint8_t flags = r.u8();
    resp.cache_hit = (flags & 1u) != 0;
    resp.degraded = (flags & 2u) != 0;
    resp.rejected = (flags & 4u) != 0;
    resp.timed_out = (flags & 8u) != 0;
    resp.error = r.str();
    resp.retries = r.u32();
    resp.faults = r.u64();
    resp.shards = r.u32();
    resp.exchange_bytes = r.u64();
    resp.shard_retries = r.u64();
    const std::uint32_t shed_n = r.u32();
    if (shed_n > r.remaining()) throw WireError("truncated payload");
    resp.shed.reserve(shed_n);
    for (std::uint32_t i = 0; i < shed_n; ++i) resp.shed.push_back(r.str());
    resp.effective_cfg = decode_cfg(r);
    resp.modeled_cost_s = r.f64();
    resp.batch_epoch = r.u64();
    resp.spans.queue_s = r.f64();
    resp.spans.upload_s = r.f64();
    resp.spans.kernel_s = r.f64();
    resp.spans.report_s = r.f64();
    resp.result.report = decode_report_from(r);
    r.expect_end();
    return resp;
}

// --- Streaming codecs --------------------------------------------------

std::vector<std::uint8_t> encode_stream_begin(const StreamBegin& sb) {
    Writer w;
    w.u64(sb.dims.h);
    w.u64(sb.dims.w);
    w.u64(sb.dims.l);
    encode_cfg(w, sb.cfg);
    w.u64(sb.chunks);
    w.u64(sb.total_bytes);
    return w.take();
}

StreamBegin decode_stream_begin(std::span<const std::uint8_t> payload) {
    Reader r(payload);
    StreamBegin sb;
    const std::uint64_t h = r.u64();
    const std::uint64_t w = r.u64();
    const std::uint64_t l = r.u64();
    if (h == 0 || w == 0 || l == 0 || h > kMaxExtent || w > kMaxExtent || l > kMaxExtent) {
        throw WireError("stream-begin: bad field shape");
    }
    sb.dims = zc::Dims3{static_cast<std::size_t>(h), static_cast<std::size_t>(w),
                        static_cast<std::size_t>(l)};
    sb.cfg = decode_cfg(r);
    validate_cfg(sb.cfg, "stream-begin");
    sb.chunks = r.u64();
    sb.total_bytes = r.u64();
    r.expect_end();
    const std::uint64_t volume = h * w * l;  // bounded by kMaxExtent^3 < 2^60
    if (sb.chunks == 0 || sb.chunks > volume) {
        throw WireError("stream-begin: chunk count disagrees with the declared shape");
    }
    if (sb.total_bytes != volume * 2 * sizeof(float)) {
        throw WireError("stream-begin: declared byte total disagrees with the declared shape");
    }
    return sb;
}

std::vector<std::uint8_t> encode_stream_chunk_frame(std::uint64_t stream_id, std::uint64_t seq,
                                                    std::span<const float> orig,
                                                    std::span<const float> dec) {
    if (orig.empty() || orig.size() != dec.size()) {
        throw WireError("stream-chunk: ranges must be non-empty and paired");
    }
    Writer w;
    w.reserve(FrameHeader::kSize + 24 + orig.size_bytes() + dec.size_bytes());
    w.zeros(FrameHeader::kSize);
    w.u64(seq);
    w.f32_span(orig);
    w.f32_span(dec);
    return seal_frame(std::move(w), FrameType::kStreamChunk, stream_id, kVersionStreaming);
}

StreamChunkRef decode_stream_chunk_ref(std::span<const std::uint8_t> payload,
                                       const zc::SlabHandle& slab) {
    Reader r(payload);
    StreamChunkRef c;
    c.seq = r.u64();
    const auto [orig_n, orig_raw] = r.f32_raw();
    const auto [dec_n, dec_raw] = r.f32_raw();
    r.expect_end();
    if (orig_n == 0 || orig_n != dec_n) {
        throw WireError("stream-chunk: ranges must be non-empty and paired");
    }
    const zc::Dims3 run{1, 1, static_cast<std::size_t>(orig_n)};
    c.orig = field_from_raw(orig_raw, run, slab);
    c.dec = field_from_raw(dec_raw, run, slab);
    return c;
}

std::vector<std::uint8_t> encode_stream_end(const StreamEnd& se) {
    Writer w;
    w.u64(se.chunks);
    w.u64(se.elements);
    return w.take();
}

StreamEnd decode_stream_end(std::span<const std::uint8_t> payload) {
    Reader r(payload);
    StreamEnd se;
    se.chunks = r.u64();
    se.elements = r.u64();
    r.expect_end();
    return se;
}

std::vector<std::uint8_t> encode_report(const zc::AssessmentReport& report) {
    Writer w;
    encode_report_into(w, report);
    return w.take();
}

std::uint64_t digest_report(std::uint64_t h, const zc::AssessmentReport& report) {
    return fnv1a64(encode_report(report), h);
}

// --- Frame assembly ----------------------------------------------------

std::vector<std::uint8_t> encode_frame(FrameType type, std::uint64_t request_id,
                                       std::span<const std::uint8_t> payload,
                                       std::uint16_t version) {
    if (payload.size() > 0xffffffffull) {
        throw WireError("frame payload exceeds the u32 length field");
    }
    std::vector<std::uint8_t> frame;
    frame.reserve(FrameHeader::kSize + payload.size());
    put_le(frame, kMagic);
    put_le(frame, version);
    put_le(frame, static_cast<std::uint16_t>(type));
    put_le(frame, request_id);
    put_le(frame, static_cast<std::uint32_t>(payload.size()));
    put_le(frame, frame_checksum(payload));
    frame.insert(frame.end(), payload.begin(), payload.end());
    return frame;
}

void FrameAssembler::migrate(std::size_t cap) {
    const std::size_t live = end_ - consumed_;
    zc::SlabHandle fresh = zc::SlabHandle::acquire(std::max(cap, kSkew + live));
    if (live > 0) {
        std::memcpy(fresh.data() + kSkew, slab_.data() + consumed_, live);
        zc::data_plane_note_copy(live);
    }
    // Pinned views keep the old slab alive through their own handles; it
    // returns to the pool when the last one drops.
    slab_ = std::move(fresh);
    consumed_ = kSkew;
    end_ = kSkew + live;
}

void FrameAssembler::ensure_room(std::size_t n) {
    if (!slab_) {
        slab_ = zc::SlabHandle::acquire(kSkew + std::max<std::size_t>(n, 4096));
        consumed_ = end_ = kSkew;
        return;
    }
    compact();
    if (slab_.capacity() < end_ + n) {
        migrate(std::max(slab_.capacity() * 2, kSkew + (end_ - consumed_) + n));
    }
}

void FrameAssembler::feed(std::span<const std::uint8_t> data) {
    std::size_t off = 0;
    // Oversize-skip mode consumes the rejected frame's payload without
    // ever buffering it.
    if (skip_ > 0) {
        const std::size_t eat = static_cast<std::size_t>(
            std::min<std::uint64_t>(skip_, data.size()));
        skip_ -= eat;
        off = eat;
    }
    const std::size_t len = data.size() - off;
    if (len == 0) return;
    ensure_room(len);
    std::memcpy(slab_.data() + end_, data.data() + off, len);
    end_ += len;
}

std::span<std::uint8_t> FrameAssembler::writable(std::size_t n) {
    // Tail writes are always safe: delivered views only ever alias the
    // consumed prefix [0, consumed_), never [end_, end_ + n).
    ensure_room(n);
    return {slab_.data() + end_, n};
}

void FrameAssembler::commit(std::size_t n) {
    if (skip_ > 0) {
        // The head of the committed bytes finishes an oversized frame's
        // discarded payload; slide any remainder down over it. This moves
        // bytes strictly within the unconsumed tail, so pinned views are
        // unaffected.
        const std::size_t eat = static_cast<std::size_t>(std::min<std::uint64_t>(skip_, n));
        skip_ -= eat;
        n -= eat;
        if (n > 0) std::memmove(slab_.data() + end_, slab_.data() + end_ + eat, n);
    }
    end_ += n;
}

void FrameAssembler::compact() {
    if (!slab_ || consumed_ == kSkew) return;
    if (consumed_ == end_) {
        // Drained: park the cursor back at kSkew so the next frame starts
        // at the aligned-decode offset. When delivered views still pin the
        // slab the region below the cursor is live — swap in a fresh
        // pooled slab (same capacity, nothing to copy) instead.
        if (pinned()) slab_ = zc::SlabHandle::acquire(slab_.capacity());
        consumed_ = end_ = kSkew;
        return;
    }
    // Only pay the memmove once the dead prefix dominates the buffer, and
    // never while pinned views alias it.
    if (consumed_ >= 4096 && consumed_ * 2 >= end_ && !pinned()) {
        const std::size_t live = end_ - consumed_;
        std::memmove(slab_.data() + kSkew, slab_.data() + consumed_, live);
        zc::data_plane_note_copy(live);
        consumed_ = kSkew;
        end_ = kSkew + live;
    }
}

std::size_t FrameAssembler::pending_frame_bytes() const noexcept {
    if (skip_ > 0 || buffered() < FrameHeader::kSize) return 0;
    const std::uint8_t* p = slab_.data() + consumed_;
    if (get_le<std::uint32_t>(p) != kMagic) return 0;
    const auto ver = get_le<std::uint16_t>(p + 4);
    if (ver < kVersion || ver > kVersionMax) return 0;
    const auto payload_len = get_le<std::uint32_t>(p + 16);
    if (payload_len > max_payload_) return 0;  // rejected, then skip-discarded
    return FrameHeader::kSize + payload_len;
}

FrameAssembler::Result FrameAssembler::next_view() {
    Result res;
    if (skip_ > 0) {
        // Still owed payload bytes of an oversized frame; any buffered
        // bytes beyond the header were already diverted by feed().
        return res;
    }
    if (buffered() < FrameHeader::kSize) return res;
    const std::uint8_t* p = slab_.data() + consumed_;
    FrameHeader h;
    h.magic = get_le<std::uint32_t>(p);
    h.version = get_le<std::uint16_t>(p + 4);
    h.type = get_le<std::uint16_t>(p + 6);
    h.request_id = get_le<std::uint64_t>(p + 8);
    h.payload_len = get_le<std::uint32_t>(p + 16);
    h.checksum = get_le<std::uint32_t>(p + 20);
    res.header = h;
    if (h.magic != kMagic) {
        res.status = Status::kBadMagic;
        return res;
    }
    if (h.version < kVersion || h.version > kVersionMax) {
        res.status = Status::kBadVersion;
        return res;
    }
    if (h.payload_len > max_payload_) {
        // Consume the header, divert the payload: whatever part is already
        // buffered is dropped now, the rest is discarded by feed().
        consumed_ += FrameHeader::kSize;
        const std::size_t have = std::min<std::size_t>(buffered(), h.payload_len);
        consumed_ += have;
        skip_ = h.payload_len - have;
        compact();
        res.status = Status::kOversize;
        return res;
    }
    if (buffered() < FrameHeader::kSize + h.payload_len) return res;
    const std::uint8_t* payload = p + FrameHeader::kSize;
    const std::span<const std::uint8_t> body(payload, h.payload_len);
    consumed_ += FrameHeader::kSize + h.payload_len;
    if (frame_checksum(body) != h.checksum) {
        compact();
        res.status = Status::kBadChecksum;
        return res;
    }
    // No compact() here: the view stays valid until the caller's next call
    // on this assembler, and for as long as res.slab is held after that:
    // compact() and migrate() never move or reuse bytes of a pinned slab.
    res.view = body;
    res.slab = slab_;
    res.status = Status::kFrame;
    return res;
}

}  // namespace cuzc::net

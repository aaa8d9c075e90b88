// Structure-aware wire fuzzing: frame payload codecs (wire-decode) and the
// byte-stream frame extractor (wire-assembler). Both targets share one
// replay engine with the campaign, so every saved reproducer re-runs the
// exact check that found it. Both drain frames the way the server does, as
// zero-copy views pinned by the assembler slab; wire-decode decodes them in
// place.

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "fuzz/fuzz.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/rng.hpp"
#include "net/wire.hpp"
#include "serve/request.hpp"
#include "zc/tensor.hpp"

namespace cuzc::fuzz {
namespace {

using net::FrameAssembler;
using net::FrameHeader;
using net::FrameType;
using net::WireError;

zc::MetricsConfig random_cfg(Rng& rng) {
    zc::MetricsConfig cfg;
    cfg.pattern1 = rng.chance(0.9);
    cfg.pattern2 = rng.chance(0.5);
    cfg.pattern3 = rng.chance(0.5);
    cfg.pdf_bins = static_cast<int>(rng.range(1, 256));
    cfg.autocorr_max_lag = static_cast<int>(rng.range(0, 16));
    cfg.deriv_orders = static_cast<int>(rng.range(1, 2));
    cfg.ssim_window = static_cast<int>(rng.range(1, 8));
    cfg.ssim_step = static_cast<int>(rng.range(1, 4));
    cfg.pwr_eps = rng.unit() * 1e-3;
    return cfg;
}

zc::Field random_field(Rng& rng, const zc::Dims3& dims) {
    zc::Field f(dims);
    for (float& v : f.data()) {
        v = static_cast<float>(rng.unit() * 2.0 - 1.0);
    }
    return f;
}

serve::AssessRequest random_request(Rng& rng) {
    serve::AssessRequest req;
    const zc::Dims3 dims{rng.range(1, 4), rng.range(1, 4), rng.range(1, 8)};
    req.orig = random_field(rng, dims);
    req.dec = random_field(rng, dims);
    req.cfg = random_cfg(rng);
    req.deadline_model_s = rng.chance(0.3) ? rng.unit() : 0.0;
    req.priority = static_cast<int>(rng.range(0, 3));
    return req;
}

net::StreamBegin random_begin(Rng& rng) {
    net::StreamBegin sb;
    sb.dims = zc::Dims3{rng.range(1, 4), rng.range(1, 4), rng.range(1, 8)};
    sb.cfg = random_cfg(rng);
    sb.cfg.pattern1 = true;  // streaming only serves pattern 1
    sb.chunks = rng.range(1, sb.dims.volume());
    sb.total_bytes = sb.dims.volume() * 2 * sizeof(float);
    return sb;
}

std::vector<std::uint8_t> random_response_frame(Rng& rng, std::uint64_t id) {
    serve::AssessResponse resp;
    resp.cache_hit = rng.chance(0.3);
    resp.rejected = rng.chance(0.2);
    if (resp.rejected) resp.error = "fuzz";
    resp.effective_cfg = random_cfg(rng);
    resp.result.report.reduction.mse = rng.unit();
    resp.result.report.reduction.err_pdf.assign(rng.range(0, 8), 0.125);
    resp.result.report.stencil.autocorr.assign(rng.range(0, 4), 0.5);
    return net::encode_response_frame(resp, id);
}

/// One deterministic, structurally valid frame of a random type.
std::vector<std::uint8_t> random_valid_frame(Rng& rng) {
    const std::uint64_t id = rng.range(1, 1 << 20);
    switch (rng.below(8)) {
        case 0: return net::encode_frame(FrameType::kHello, 0, net::encode_hello());
        case 1: {
            net::HelloAck ack;
            ack.max_frame_payload = rng.range(1, 1 << 20);
            ack.max_inflight_per_connection = rng.range(1, 64);
            ack.max_streams_per_connection = rng.range(1, 8);
            return net::encode_frame(FrameType::kHelloAck, 0, net::encode_hello_ack(ack));
        }
        case 2: return net::encode_request_frame(random_request(rng), id);
        case 3: return random_response_frame(rng, id);
        case 4:
            return net::encode_frame(FrameType::kStreamBegin, id,
                                     net::encode_stream_begin(random_begin(rng)),
                                     net::kVersionStreaming);
        case 5: {
            std::vector<float> orig(rng.range(1, 16));
            std::vector<float> dec(orig.size());
            for (std::size_t i = 0; i < orig.size(); ++i) {
                orig[i] = static_cast<float>(rng.unit());
                dec[i] = static_cast<float>(rng.unit());
            }
            return net::encode_stream_chunk_frame(id, rng.range(0, 8), orig, dec);
        }
        case 6:
            return net::encode_frame(
                FrameType::kStreamEnd, id,
                net::encode_stream_end({rng.range(1, 8), rng.range(1, 64)}),
                net::kVersionStreaming);
        default:
            return net::encode_frame(rng.chance(0.5) ? FrameType::kGoodbye
                                                     : FrameType::kStreamAbort,
                                     id, {},
                                     rng.chance(0.5) ? net::kVersion
                                                     : net::kVersionStreaming);
    }
}

/// Decode an assembled frame by its header type, field runs aliasing the
/// assembler slab as on the server. Returns false for a type the protocol
/// does not know (the server rejects those frames). Throws WireError for a
/// payload the codec rejects.
bool decode_payload(const FrameAssembler::Result& res) {
    const std::span<const std::uint8_t> payload = res.view;
    switch (static_cast<FrameType>(res.header.type)) {
        case FrameType::kHello: net::decode_hello(payload); return true;
        case FrameType::kHelloAck: (void)net::decode_hello_ack(payload); return true;
        case FrameType::kRequest: (void)net::decode_request_view(payload, res.slab); return true;
        case FrameType::kResponse: (void)net::decode_response(payload); return true;
        case FrameType::kStreamBegin: (void)net::decode_stream_begin(payload); return true;
        case FrameType::kStreamChunk:
            (void)net::decode_stream_chunk_ref(payload, res.slab);
            return true;
        case FrameType::kStreamEnd: (void)net::decode_stream_end(payload); return true;
        case FrameType::kGoodbye:
        case FrameType::kStreamAbort: return true;  // no payload to decode
    }
    return false;
}

std::vector<std::uint8_t> to_vec(std::span<const std::uint8_t> bytes) {
    return {bytes.begin(), bytes.end()};
}

/// The wire-decode replay engine: run the byte stream through a
/// FrameAssembler and the per-type payload codecs, then judge the outcome
/// against the oracle. Only WireError counts as a *rejection*; any other
/// exception escapes (a codec crash is the finding the target exists for).
void wire_decode_replay(std::span<const std::uint8_t> bytes, Oracle oracle) {
    FrameAssembler assembler(64ull << 20);
    assembler.feed(bytes);
    bool accepted = false;
    bool rejected = false;
    std::string why;
    bool synchronized = true;
    while (synchronized) {
        const auto res = assembler.next_view();
        if (res.status == FrameAssembler::Status::kNeedMore) break;
        switch (res.status) {
            case FrameAssembler::Status::kFrame:
                try {
                    if (decode_payload(res)) {
                        accepted = true;
                    } else {
                        rejected = true;
                        why = "unknown frame type";
                    }
                } catch (const WireError& e) {
                    rejected = true;
                    why = e.what();
                }
                break;
            case FrameAssembler::Status::kOversize:
            case FrameAssembler::Status::kBadChecksum:
                rejected = true;
                why = "framing rejected the frame";
                break;
            case FrameAssembler::Status::kBadMagic:
            case FrameAssembler::Status::kBadVersion:
            default:
                rejected = true;
                why = "stream desynchronized";
                synchronized = false;
                break;
        }
    }
    if (synchronized && assembler.buffered() != 0) {
        rejected = true;
        why = "trailing truncated frame";
    }
    if (oracle == Oracle::kAccept && (rejected || !accepted)) {
        throw FuzzFailure("accept entry did not decode cleanly: " +
                              (why.empty() ? std::string("no frame decoded") : why),
                          to_vec(bytes), Oracle::kAccept);
    }
    if (oracle == Oracle::kReject && !rejected) {
        throw FuzzFailure("reject entry decoded cleanly", to_vec(bytes), Oracle::kReject);
    }
}

void wire_decode_iterate(std::uint64_t seed, std::uint64_t iter) {
    Rng rng(mix_seed(seed, iter, 0x77697265));  // "wire"
    const std::vector<std::uint8_t> frame = random_valid_frame(rng);

    // A structurally valid frame must decode cleanly.
    probe(wire_decode_replay, frame, Oracle::kAccept, "decoder");

    // A strict payload prefix, re-sealed so the framing stays valid, must
    // be rejected by the payload codec — every codec ends in expect_end.
    const std::span<const std::uint8_t> payload(frame.data() + FrameHeader::kSize,
                                                frame.size() - FrameHeader::kSize);
    if (!payload.empty()) {
        FrameAssembler assembler(64ull << 20);
        assembler.feed(frame);
        const auto head = assembler.next_view();
        const auto cut = static_cast<std::size_t>(rng.below(payload.size()));
        const auto truncated = net::encode_frame(static_cast<FrameType>(head.header.type),
                                                 head.header.request_id,
                                                 payload.first(cut), head.header.version);
        probe(wire_decode_replay, truncated, Oracle::kReject, "decoder");
    }

    // Blind mutations must never escape the WireError contract.
    std::vector<std::uint8_t> mutated = frame;
    mutate_bytes(mutated, rng, 4);
    probe(wire_decode_replay, mutated, Oracle::kInvariant, "decoder");
}

void wire_decode_corpus(CorpusWriter& w) {
    Rng rng(7);

    serve::AssessRequest req;
    const zc::Dims3 dims{2, 2, 2};
    req.orig = random_field(rng, dims);
    req.dec = random_field(rng, dims);
    w.add("request-small.bin", Oracle::kAccept, net::encode_request_frame(req, 1));

    // One frame used to buy a server-side OOM: a valid StreamBegin whose
    // config asks for INT32_MAX pdf bins.
    net::StreamBegin bomb;
    bomb.dims = zc::Dims3{2, 2, 2};
    bomb.cfg.pdf_bins = 0x7fffffff;
    bomb.chunks = 1;
    bomb.total_bytes = bomb.dims.volume() * 2 * sizeof(float);
    w.add("streambegin-pdfbins-bomb.bin", Oracle::kReject,
          net::encode_frame(FrameType::kStreamBegin, 1, net::encode_stream_begin(bomb),
                            net::kVersionStreaming));

    // StreamBegin payload cut mid-config, framing re-sealed around it.
    net::StreamBegin sb = random_begin(rng);
    const auto sb_payload = net::encode_stream_begin(sb);
    w.add("streambegin-truncated.bin", Oracle::kReject,
          net::encode_frame(FrameType::kStreamBegin, 1,
                            std::span<const std::uint8_t>(sb_payload).first(20),
                            net::kVersionStreaming));

    // A chunk whose orig/dec ranges disagree (hand-built payload: the
    // encoder refuses to produce one).
    net::Writer skew;
    skew.u64(0);
    const std::vector<float> four(4, 1.0f), three(3, 1.0f);
    skew.f32_span(four);
    skew.f32_span(three);
    w.add("chunk-skewed.bin", Oracle::kReject,
          net::encode_frame(FrameType::kStreamChunk, 1, skew.view(),
                            net::kVersionStreaming));

    // Dims that overflow size_t multiplication if left uncapped.
    net::Writer huge;
    huge.u64(0x4000000000000000ull);
    huge.u64(3);
    huge.u64(1);
    w.add("request-dims-overflow.bin", Oracle::kReject,
          net::encode_frame(FrameType::kRequest, 1, huge.view()));

    // Element/byte counts whose size_t narrowing wraps on 32-bit targets
    // (n * sizeof(float) and static_cast<size_t>(n) both come out tiny),
    // letting a hostile frame alias far past the payload. Patch a valid
    // request payload in place and re-seal the framing, so only the count
    // is poisoned. Payload layout: dims(24) + cfg + f64 + i32 + orig span
    // + dec span + sz_stream; with 8 floats per field and an empty stream,
    // everything after the cfg block has a known size.
    serve::AssessRequest victim;
    victim.orig = random_field(rng, dims);
    victim.dec = random_field(rng, dims);
    std::vector<std::uint8_t> payload = net::encode_request(victim);
    const std::size_t span_bytes = 8 + dims.volume() * sizeof(float);
    const std::size_t cfg_bytes = payload.size() - 24 - 8 - 4 - 2 * span_bytes - 8;
    const auto poke_u64 = [](std::vector<std::uint8_t>& buf, std::size_t off,
                             std::uint64_t v) {
        for (std::size_t i = 0; i < 8; ++i) {
            buf[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
    };
    // Orig f32 count inflated so count * sizeof(float) wraps a u32.
    std::vector<std::uint8_t> overcount = payload;
    poke_u64(overcount, 24 + cfg_bytes + 8 + 4, 0x4000000000000002ull);
    w.add("request-overcount-f32.bin", Oracle::kReject,
          net::encode_frame(FrameType::kRequest, 1, overcount));
    // Trailing sz_stream byte count of 2^32 + 7: truncates to 7 through a
    // 32-bit size_t, which the pre-narrowing u64 bound must reject.
    std::vector<std::uint8_t> overbytes = payload;
    poke_u64(overbytes, overbytes.size() - 8, (1ull << 32) + 7);
    w.add("request-overcount-bytes.bin", Oracle::kReject,
          net::encode_frame(FrameType::kRequest, 1, overbytes));
}

// --- wire-assembler -----------------------------------------------------

/// Deterministic split schedule derived from the bytes themselves, so the
/// campaign and corpus replay exercise identical feed patterns.
std::vector<std::size_t> split_schedule(std::span<const std::uint8_t> bytes) {
    Rng rng(net::fnv1a64(bytes) | 1u);
    std::vector<std::size_t> cuts;
    std::size_t at = 0;
    while (at < bytes.size()) {
        const std::size_t n = std::min<std::size_t>(
            bytes.size() - at, static_cast<std::size_t>(rng.range(1, 37)));
        cuts.push_back(n);
        at += n;
    }
    return cuts;
}

/// A drained frame keeps its slab pin, so its payload view must survive
/// every later ingest into the same assembler — the guarantee the server's
/// aliased fields rely on.
struct DrainedFrame {
    FrameAssembler::Status status;
    FrameHeader header;
    std::span<const std::uint8_t> view;
    zc::SlabHandle slab;
};

constexpr std::size_t kAssemblerLimit = 64ull << 10;

std::vector<DrainedFrame> drain(FrameAssembler& assembler,
                                std::span<const std::uint8_t> bytes) {
    std::vector<DrainedFrame> out;
    bool synchronized = true;
    while (synchronized) {
        auto res = assembler.next_view();
        if (res.status == FrameAssembler::Status::kNeedMore) break;
        if (res.status == FrameAssembler::Status::kBadMagic ||
            res.status == FrameAssembler::Status::kBadVersion) {
            synchronized = false;
        }
        if (res.status == FrameAssembler::Status::kFrame &&
            net::frame_checksum(res.view) != res.header.checksum) {
            throw FuzzFailure("assembler delivered a frame whose payload checksum mismatches",
                              to_vec(bytes), Oracle::kInvariant);
        }
        if (out.size() > bytes.size() / FrameHeader::kSize + 1) {
            throw FuzzFailure("assembler produced more frames than the input can hold",
                              to_vec(bytes), Oracle::kInvariant);
        }
        out.push_back({res.status, res.header, res.view, std::move(res.slab)});
    }
    return out;
}

/// Differential: whole-buffer feed vs the derived split schedule (through
/// the zero-copy writable/commit path) must produce identical frame
/// sequences.
void assembler_replay(std::span<const std::uint8_t> bytes, Oracle oracle) {
    FrameAssembler whole(kAssemblerLimit);
    whole.feed(bytes);
    const auto expected = drain(whole, bytes);

    FrameAssembler split(kAssemblerLimit);
    std::vector<DrainedFrame> got;
    std::size_t at = 0;
    bool synchronized = true;
    for (const std::size_t n : split_schedule(bytes)) {
        const auto dst = split.writable(n);
        for (std::size_t i = 0; i < n; ++i) dst[i] = bytes[at + i];
        split.commit(n);
        at += n;
        if (split.buffered() > bytes.size()) {
            throw FuzzFailure("assembler buffered more bytes than it was fed",
                              to_vec(bytes), Oracle::kInvariant);
        }
        if (!synchronized) continue;
        auto partial = drain(split, bytes);
        if (partial.empty()) continue;
        if (!partial.empty() && (partial.back().status == FrameAssembler::Status::kBadMagic ||
                                 partial.back().status == FrameAssembler::Status::kBadVersion)) {
            synchronized = false;
        }
        got.insert(got.end(), std::make_move_iterator(partial.begin()),
                   std::make_move_iterator(partial.end()));
    }

    if (expected.size() != got.size()) {
        throw FuzzFailure("split feed produced a different frame count than whole feed",
                          to_vec(bytes), Oracle::kInvariant);
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto& a = expected[i];
        const auto& b = got[i];
        if (a.status != b.status || a.header.type != b.header.type ||
            a.header.request_id != b.header.request_id ||
            a.header.version != b.header.version ||
            !std::ranges::equal(a.view, b.view)) {
            throw FuzzFailure("split feed diverged from whole feed at frame " +
                                  std::to_string(i),
                              to_vec(bytes), Oracle::kInvariant);
        }
    }

    const bool clean = !expected.empty() && whole.buffered() == 0 &&
                       std::all_of(expected.begin(), expected.end(), [](const DrainedFrame& f) {
                           return f.status == FrameAssembler::Status::kFrame;
                       });
    check_verdict(bytes, oracle, !clean, "entry", "no clean frames assembled");
}

void wire_assembler_iterate(std::uint64_t seed, std::uint64_t iter) {
    Rng rng(mix_seed(seed, iter, 0x61736d62));  // "asmb"
    std::vector<std::uint8_t> stream;
    const std::uint64_t frames = rng.range(1, 4);
    bool oversize = false;
    for (std::uint64_t i = 0; i < frames; ++i) {
        std::vector<std::uint8_t> frame;
        if (rng.chance(0.15)) {
            // Payload above the assembler limit: must surface kOversize
            // and then recover on the next frame.
            const std::vector<std::uint8_t> fat(kAssemblerLimit + 1 +
                                                static_cast<std::size_t>(rng.below(64)));
            frame = net::encode_frame(FrameType::kGoodbye, rng.next(), fat);
            oversize = true;
        } else {
            frame = random_valid_frame(rng);
        }
        stream.insert(stream.end(), frame.begin(), frame.end());
    }

    probe(assembler_replay, stream, oversize ? Oracle::kReject : Oracle::kAccept, "assembler");

    std::vector<std::uint8_t> mutated = stream;
    mutate_bytes(mutated, rng, 6);
    probe(assembler_replay, mutated, Oracle::kInvariant, "assembler");
}

void wire_assembler_corpus(CorpusWriter& w) {
    const auto hello = net::encode_frame(FrameType::kHello, 0, net::encode_hello());
    const auto goodbye = net::encode_frame(FrameType::kGoodbye, 0, {});
    std::vector<std::uint8_t> two = hello;
    two.insert(two.end(), goodbye.begin(), goodbye.end());
    w.add("two-frames.bin", Oracle::kAccept, two);

    w.add_text("bad-magic.bin", Oracle::kReject, "this is not cuzc-wire at all....");

    std::vector<std::uint8_t> header_only(hello.begin(), hello.begin() + 12);
    w.add("truncated-header.bin", Oracle::kReject, header_only);

    std::vector<std::uint8_t> corrupt = hello;
    corrupt[FrameHeader::kSize] ^= 0x40;  // payload byte flip -> checksum mismatch
    corrupt.insert(corrupt.end(), goodbye.begin(), goodbye.end());
    w.add("checksum-flip.bin", Oracle::kReject, corrupt);
}

}  // namespace

void register_wire_targets() {
    register_target(Target{
        "wire-decode",
        "frame payload codecs: valid frames decode, truncations reject, mutations never "
        "escape WireError",
        wire_decode_iterate,
        [](std::span<const std::uint8_t> bytes, Oracle oracle) {
            wire_decode_replay(bytes, oracle);
        },
        wire_decode_corpus,
    });
    register_target(Target{
        "wire-assembler",
        "FrameAssembler ingest: whole-buffer vs split/zero-copy feeds are identical; "
        "corruption keeps memory and framing bounded",
        wire_assembler_iterate,
        [](std::span<const std::uint8_t> bytes, Oracle oracle) {
            assembler_replay(bytes, oracle);
        },
        wire_assembler_corpus,
    });
}

}  // namespace cuzc::fuzz

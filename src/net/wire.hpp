#pragma once

/// cuzc-wire-v2 — the length-prefixed binary protocol spoken between
/// cuzc::net::NetServer and NetClient (see DESIGN.md §7/§8).
///
/// Every frame is a fixed 24-byte little-endian header followed by
/// `payload_len` payload bytes:
///
///   u32 magic        0x43575A43 ("CZWC")
///   u16 version      1 on whole-frame types, 2 on streaming frame types
///   u16 type         FrameType
///   u64 request_id   client-chosen; echoed on the response
///   u32 payload_len  payload bytes that follow
///   u32 checksum     lane-striped FNV over the payload bytes, folded to
///                    32 bits (see frame_checksum)
///
/// A connection opens with a Hello / HelloAck exchange carrying the
/// protocol name, so a peer speaking anything else fails fast: a Hello
/// naming any other protocol is refused and the connection closed. After
/// the handshake any number of Request frames and streaming sessions
/// (StreamBegin/Chunk/End/Abort) may be in flight concurrently; the server
/// responds with one Response frame per request or stream, in completion
/// order. Decoding is strictly bounds-checked: a truncated or oversized
/// frame is rejected (and, where the stream stays synchronized, skipped)
/// without tearing down the process.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/request.hpp"
#include "zc/field_buffer.hpp"
#include "zc/metrics_config.hpp"
#include "zc/report.hpp"
#include "zc/tensor.hpp"

namespace cuzc::net {

inline constexpr std::uint32_t kMagic = 0x43575A43u;  // "CZWC"
/// Header version of the whole-frame types (Hello through Goodbye).
inline constexpr std::uint16_t kVersion = 1;
/// Header version of the streaming frame types (StreamBegin and later).
inline constexpr std::uint16_t kVersionStreaming = 2;
inline constexpr std::uint16_t kVersionMax = kVersionStreaming;
inline constexpr std::string_view kProtocolName = "cuzc-wire-v2";

enum class FrameType : std::uint16_t {
    kHello = 1,        ///< client -> server: protocol name
    kHelloAck = 2,     ///< server -> client: protocol name + server limits
    kRequest = 3,      ///< client -> server: serialized AssessRequest
    kResponse = 4,     ///< server -> client: serialized AssessResponse
    kGoodbye = 5,      ///< client -> server: drain my in-flight, then close
    // Streaming sessions. The header request_id is the stream id; the
    // server settles each stream with one kResponse frame echoing it.
    kStreamBegin = 6,  ///< client -> server: dims + cfg + declared totals
    kStreamChunk = 7,  ///< client -> server: sequence-numbered orig/dec slice
    kStreamEnd = 8,    ///< client -> server: finalize; respond with the report
    kStreamAbort = 9,  ///< client -> server: discard the stream, no response
};

/// Any framing/decoding violation: truncated payload, field count that
/// disagrees with the declared shape, over-limit sizes, bad handshake.
struct WireError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

struct FrameHeader {
    std::uint32_t magic = kMagic;
    std::uint16_t version = kVersion;
    std::uint16_t type = 0;
    std::uint64_t request_id = 0;
    std::uint32_t payload_len = 0;
    std::uint32_t checksum = 0;

    static constexpr std::size_t kSize = 24;
};

/// The wire frame checksum: FNV-1a-64 striped over 8 independent lanes,
/// each consuming one 64-bit word per round (lanes are seeded distinctly,
/// folded together FNV-style at the end, and the 64-bit fold is xor-folded
/// down to 32 bits). Integrity-equivalent to plain FNV for the corruptions
/// a socket can produce, but the 8 independent multiply chains process
/// 64 bytes per round instead of 1 — frame payloads carry whole fields,
/// and a serial checksum would dominate loopback serving cost.
[[nodiscard]] std::uint32_t frame_checksum(std::span<const std::uint8_t> bytes) noexcept;
/// Plain byte-wise FNV-1a-64 (report digests; small inputs).
[[nodiscard]] std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                                    std::uint64_t h = 14695981039346656037ull) noexcept;

/// Little-endian append-only payload builder.
class Writer {
public:
    void u8(std::uint8_t v);
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i32(std::int32_t v);
    void f64(double v);
    void f32_span(std::span<const float> v);  ///< count-prefixed (u64)
    void str(std::string_view v);             ///< length-prefixed (u32)
    void bytes(std::span<const std::uint8_t> v);  ///< count-prefixed (u64)
    void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }
    void zeros(std::size_t n) { buf_.resize(buf_.size() + n); }

    [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
    [[nodiscard]] std::span<const std::uint8_t> view() const noexcept { return buf_; }

private:
    std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian payload reader: every accessor throws
/// WireError("truncated payload") instead of reading past the end, and
/// count-prefixed accessors validate the count against the bytes that are
/// actually left before allocating.
class Reader {
public:
    explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

    [[nodiscard]] std::uint8_t u8();
    [[nodiscard]] std::uint16_t u16();
    [[nodiscard]] std::uint32_t u32();
    [[nodiscard]] std::uint64_t u64();
    [[nodiscard]] std::int32_t i32();
    [[nodiscard]] double f64();
    /// Consumes a count-prefixed f32 run (the Writer::f32_span encoding),
    /// returning the count plus a view of the raw bytes in place. The
    /// caller decides whether those bytes can be aliased as floats
    /// (alignment + endianness) or must be copied out.
    [[nodiscard]] std::pair<std::uint64_t, std::span<const std::uint8_t>> f32_raw();
    [[nodiscard]] std::string str();
    [[nodiscard]] std::vector<std::uint8_t> bytes();

    [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
    /// Throws unless every payload byte was consumed (trailing garbage is
    /// as suspect as truncation).
    void expect_end() const;

private:
    void need(std::size_t n) const;
    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
};

// --- Payload codecs ----------------------------------------------------

/// Hello carries the protocol name, kProtocolName.
[[nodiscard]] std::vector<std::uint8_t> encode_hello();
/// Throws WireError unless the payload names kProtocolName.
void decode_hello(std::span<const std::uint8_t> payload);

/// The server's limits, sent in the HelloAck after the protocol name.
struct HelloAck {
    std::size_t max_frame_payload = 0;
    std::size_t max_inflight_per_connection = 0;
    /// Concurrent streaming sessions one connection may hold open.
    std::size_t max_streams_per_connection = 0;
};
[[nodiscard]] std::vector<std::uint8_t> encode_hello_ack(const HelloAck& ack);
/// Throws WireError unless the payload names kProtocolName and carries
/// exactly the three limits.
[[nodiscard]] HelloAck decode_hello_ack(std::span<const std::uint8_t> payload);

// --- Streaming session payloads ----------------------------------------

/// StreamBegin declares the whole dataset up front so the server can
/// validate every chunk against it: the field shape, the metrics to run
/// (only the pattern-1 reduction family is computable incrementally), the
/// exact number of StreamChunk frames to follow, and the total payload
/// bytes across both fields (a redundant cross-check on the shape).
struct StreamBegin {
    zc::Dims3 dims{};
    zc::MetricsConfig cfg{};
    std::uint64_t chunks = 0;       ///< declared StreamChunk frame count
    std::uint64_t total_bytes = 0;  ///< must equal volume * 2 * sizeof(float)
};
[[nodiscard]] std::vector<std::uint8_t> encode_stream_begin(const StreamBegin& begin);
/// Throws WireError on truncation, out-of-range dims, zero or over-declared
/// chunk counts (more chunks than elements), or a byte total that
/// disagrees with the declared shape.
[[nodiscard]] StreamBegin decode_stream_begin(std::span<const std::uint8_t> payload);

/// One paired slice of the dataset in element order. Sequence numbers are
/// 0-based and must arrive strictly in order; the frame checksum already
/// covers the payload, so a corrupt chunk is dropped at the framing layer.
[[nodiscard]] std::vector<std::uint8_t> encode_stream_chunk_frame(
    std::uint64_t stream_id, std::uint64_t seq, std::span<const float> orig,
    std::span<const float> dec);

/// Decoded chunk: the slices alias the stream buffer (guarded by the
/// assembler slab) when they land element-aligned, and are copied into
/// pooled slabs otherwise (always, for an empty `slab`). Shape is the flat
/// run {1, 1, n}. Throws WireError on truncation, an empty chunk, or
/// orig/dec length skew.
struct StreamChunkRef {
    std::uint64_t seq = 0;
    zc::FieldRef orig;
    zc::FieldRef dec;
};
[[nodiscard]] StreamChunkRef decode_stream_chunk_ref(std::span<const std::uint8_t> payload,
                                                     const zc::SlabHandle& slab);

/// StreamEnd restates what the client believes it sent; the server rejects
/// the stream when either count disagrees with what actually arrived.
struct StreamEnd {
    std::uint64_t chunks = 0;
    std::uint64_t elements = 0;
};
[[nodiscard]] std::vector<std::uint8_t> encode_stream_end(const StreamEnd& end);
[[nodiscard]] StreamEnd decode_stream_end(std::span<const std::uint8_t> payload);

[[nodiscard]] std::vector<std::uint8_t> encode_request(const serve::AssessRequest& req);

/// Zero-copy decode: the request's fields alias the payload in place
/// (pinned by `slab`, the assembler buffer the payload lives in) whenever
/// the float runs land 4-byte-aligned on a little-endian host; otherwise
/// (and always for an empty `slab`) they are copied into pooled slabs,
/// counted as data-plane copies. The decoded request is the same either
/// way.
[[nodiscard]] serve::AssessRequest decode_request_view(std::span<const std::uint8_t> payload,
                                                       const zc::SlabHandle& slab);

/// Profiler counters (CuzcResult's KernelStats) do not cross the wire;
/// the decoded response carries the assessment report and the request's
/// service-side metadata (flags, shed list, spans, retries, ...).
[[nodiscard]] std::vector<std::uint8_t> encode_response(const serve::AssessResponse& resp);
[[nodiscard]] serve::AssessResponse decode_response(std::span<const std::uint8_t> payload);

/// Canonical byte encoding of a report (the response codec's inner block);
/// two reports are bit-identical iff these encodings are equal.
[[nodiscard]] std::vector<std::uint8_t> encode_report(const zc::AssessmentReport& report);

/// Fold a report into a running FNV-1a-64 digest (replay artifacts use
/// this to prove remote and in-process replays produced identical bits).
[[nodiscard]] std::uint64_t digest_report(std::uint64_t h, const zc::AssessmentReport& report);

// --- Frame assembly ----------------------------------------------------

[[nodiscard]] std::vector<std::uint8_t> encode_frame(FrameType type, std::uint64_t request_id,
                                                     std::span<const std::uint8_t> payload,
                                                     std::uint16_t version = kVersion);

/// Single-buffer frame builders for the payloads that carry whole fields:
/// the payload is encoded after a header-sized gap and the header patched
/// in place, so the bytes are written once instead of payload + frame copy.
[[nodiscard]] std::vector<std::uint8_t> encode_request_frame(const serve::AssessRequest& req,
                                                             std::uint64_t request_id);
[[nodiscard]] std::vector<std::uint8_t> encode_response_frame(const serve::AssessResponse& resp,
                                                              std::uint64_t request_id);

/// Incremental frame extractor over a byte stream. Feed received bytes,
/// then drain frames with next_view(). An oversized frame (payload_len above
/// the limit) is reported once and its payload bytes are then discarded
/// as they arrive, so the connection survives with bounded memory; a
/// checksum mismatch is reported with the frame skipped. Only kBadMagic /
/// kBadVersion leave the stream unsynchronized — the caller must close.
class FrameAssembler {
public:
    explicit FrameAssembler(std::size_t max_payload) : max_payload_(max_payload) {}

    enum class Status {
        kNeedMore,     ///< no complete frame buffered yet
        kFrame,        ///< header+payload valid
        kOversize,     ///< payload_len > limit; payload being discarded
        kBadChecksum,  ///< framing intact, payload corrupt; frame dropped
        kBadMagic,     ///< stream is not cuzc-wire; close the connection
        kBadVersion,   ///< header version above kVersionMax; close
    };
    struct Result {
        Status status = Status::kNeedMore;
        FrameHeader header;
        /// kFrame only: the payload in place inside the stream buffer.
        std::span<const std::uint8_t> view;
        /// kFrame only: pins the slab the view aliases. Decoders hand this
        /// to decode_request_view / decode_stream_chunk_ref so field views
        /// keep the storage alive past the next ingest call.
        zc::SlabHandle slab;
    };

    void feed(std::span<const std::uint8_t> data);
    /// Zero-copy ingest: expose `n` writable bytes at the buffer tail for
    /// recv() to fill, then commit(m) the bytes actually received (m <= n).
    /// Skipped oversize payload bytes are still discarded on commit.
    [[nodiscard]] std::span<std::uint8_t> writable(std::size_t n);
    void commit(std::size_t n);
    /// Extract the next frame. A kFrame result's `view` aliases the stream
    /// buffer; it stays valid until the next call on this assembler, and
    /// past that for as long as the result's `slab` is held.
    [[nodiscard]] Result next_view();
    [[nodiscard]] std::size_t buffered() const noexcept { return end_ - consumed_; }
    /// Total bytes (header + payload) of the in-limit frame at the head of
    /// the stream, or 0 when no parsable in-limit header is buffered yet.
    /// Read-gating on max(read_buffer, pending_frame_bytes()) lets a valid
    /// frame larger than the soft read buffer finish assembling instead of
    /// wedging the connection with the payload half-buffered.
    [[nodiscard]] std::size_t pending_frame_bytes() const noexcept;

    /// Cursor-parking offset for an empty buffer. A request frame's first
    /// float run starts 99 bytes past the frame start (24-byte header +
    /// 24 dims + 31 config + 8 deadline + 4 priority + 8 count); parking
    /// the next frame at offset 29 inside the 64-byte-aligned slab puts
    /// that run at 29 + 99 = 128 ≡ 0 (mod 64), so the dominant
    /// drain-then-one-frame traffic pattern decodes fully aligned and
    /// zero-copy.
    static constexpr std::size_t kSkew = 29;

private:
    void compact();
    void ensure_room(std::size_t n);
    [[nodiscard]] bool pinned() const noexcept { return slab_.use_count() > 1; }
    /// Move the live bytes [consumed_, end_) onto a fresh slab of at least
    /// `cap` bytes, parked at kSkew. The only ingest-side copy, taken when
    /// the buffer must grow or when pinned views block in-place reuse.
    void migrate(std::size_t cap);
    std::size_t max_payload_;
    /// Pooled slab storage; [consumed_, end_) are the valid bytes. The
    /// dead prefix is reclaimed lazily (compact) so draining many buffered
    /// frames is not quadratic in memmoves — and never reclaimed in place
    /// while delivered views still pin the slab.
    zc::SlabHandle slab_;
    std::size_t consumed_ = 0;
    std::size_t end_ = 0;
    /// Oversize-skip mode: payload bytes of the rejected frame still owed.
    std::uint64_t skip_ = 0;
};

}  // namespace cuzc::net

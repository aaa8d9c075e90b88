// Tests of cuzc-wire-v2 streaming sessions: the StreamBegin/Chunk/End
// codecs and their fuzz resistance, the Hello handshake, the server's
// stream state machine (raw-frame error paths), and the loopback acceptance
// bar — a dataset strictly larger than one frame, streamed in chunks, whose
// reduction moments equal the in-process batch computation bit for bit.
// Suites are named NetStream* so the TSan CI job (-R "...|Net") picks them up.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "net/net.hpp"
#include "serve/serve.hpp"
#include "test_helpers.hpp"
#include "zc/zc.hpp"

namespace {

namespace net = ::cuzc::net;
namespace serve = ::cuzc::serve;
namespace zc = ::cuzc::zc;
namespace tst = ::cuzc::testing;

/// A reduction-only metrics config: streaming sessions compute the
/// pattern-1 family, so tests that should settle un-degraded use this.
zc::MetricsConfig reduction_cfg() {
    zc::MetricsConfig cfg;
    cfg.pattern2 = false;
    cfg.pattern3 = false;
    return cfg;
}

net::NetServerConfig loopback_config() {
    net::NetServerConfig cfg;
    cfg.port = 0;  // ephemeral
    return cfg;
}

net::NetClientConfig client_config(std::uint16_t port) {
    net::NetClientConfig cfg;
    cfg.port = port;
    cfg.response_timeout_s = 30.0;
    return cfg;
}

net::StreamBegin make_begin(const zc::Dims3& dims, std::uint64_t chunks) {
    net::StreamBegin sb;
    sb.dims = dims;
    sb.cfg = reduction_cfg();
    sb.chunks = chunks;
    sb.total_bytes = dims.volume() * 2 * sizeof(float);
    return sb;
}

// --- Codec round trips and decode fuzz ----------------------------------

TEST(NetStreamWire, StreamBeginRoundTrips) {
    auto sb = make_begin({6, 7, 8}, 4);
    sb.cfg.pdf_bins = 17;
    const auto back = net::decode_stream_begin(net::encode_stream_begin(sb));
    EXPECT_EQ(back.dims.h, 6u);
    EXPECT_EQ(back.dims.w, 7u);
    EXPECT_EQ(back.dims.l, 8u);
    EXPECT_EQ(back.cfg.pdf_bins, 17);
    EXPECT_FALSE(back.cfg.pattern2);
    EXPECT_EQ(back.chunks, 4u);
    EXPECT_EQ(back.total_bytes, 6u * 7 * 8 * 2 * sizeof(float));
}

TEST(NetStreamWire, StreamBeginRejectsBadDeclarations) {
    const zc::Dims3 dims{4, 4, 4};
    // Zero and over-limit extents.
    for (const zc::Dims3 bad :
         {zc::Dims3{0, 4, 4}, zc::Dims3{4, 0, 4}, zc::Dims3{4, 4, (1ull << 20) + 1}}) {
        auto sb = make_begin(dims, 2);
        sb.dims = bad;
        EXPECT_THROW((void)net::decode_stream_begin(net::encode_stream_begin(sb)),
                     net::WireError);
    }
    // Chunk counts that cannot tile the shape: zero, or more than elements.
    for (const std::uint64_t chunks : {std::uint64_t{0}, dims.volume() + 1}) {
        const auto sb = make_begin(dims, chunks);
        EXPECT_THROW((void)net::decode_stream_begin(net::encode_stream_begin(sb)),
                     net::WireError);
    }
    // A byte total that disagrees with the declared shape (the oversize
    // declaration a buggy or hostile client could use to park a huge
    // reservation) is rejected before any chunk arrives.
    for (const std::uint64_t skew : {std::uint64_t{1}, std::uint64_t{1} << 40}) {
        auto sb = make_begin(dims, 2);
        sb.total_bytes += skew;
        EXPECT_THROW((void)net::decode_stream_begin(net::encode_stream_begin(sb)),
                     net::WireError);
    }
}

TEST(NetStreamWire, StreamChunkFrameRoundTripsThroughAssembler) {
    std::vector<float> orig(300), dec(300);
    for (std::size_t i = 0; i < orig.size(); ++i) {
        orig[i] = static_cast<float>(i) * 0.5f;
        dec[i] = orig[i] + 0.001f;
    }
    const auto frame = net::encode_stream_chunk_frame(99, 3, orig, dec);

    net::FrameAssembler asm_(1 << 20);
    asm_.feed(frame);
    auto res = asm_.next_view();
    ASSERT_EQ(res.status, net::FrameAssembler::Status::kFrame);
    // Stream frames carry header version 2 and the stream id.
    EXPECT_EQ(res.header.version, net::kVersionStreaming);
    EXPECT_EQ(res.header.type, static_cast<std::uint16_t>(net::FrameType::kStreamChunk));
    EXPECT_EQ(res.header.request_id, 99u);

    const auto chunk = net::decode_stream_chunk_ref(res.view, res.slab);
    EXPECT_EQ(chunk.seq, 3u);
    EXPECT_TRUE(std::ranges::equal(chunk.orig.data(), orig));
    EXPECT_TRUE(std::ranges::equal(chunk.dec.data(), dec));
}

TEST(NetStreamWire, StreamChunkEncodeRejectsEmptyAndSkewedRanges) {
    const std::vector<float> a(8, 1.0f), b(7, 1.0f), none;
    EXPECT_THROW((void)net::encode_stream_chunk_frame(1, 0, none, none), net::WireError);
    EXPECT_THROW((void)net::encode_stream_chunk_frame(1, 0, a, b), net::WireError);
}

TEST(NetStreamWire, StreamEndRoundTrips) {
    const auto back = net::decode_stream_end(net::encode_stream_end({5, 1234}));
    EXPECT_EQ(back.chunks, 5u);
    EXPECT_EQ(back.elements, 1234u);
}

TEST(NetStreamWire, EveryTruncatedStreamPayloadPrefixIsRejected) {
    // Mirror the request decode fuzz: every strict prefix of a valid payload
    // must throw WireError — no prefix length may crash or decode.
    const std::vector<float> vals(11, 2.5f);
    const auto chunk_frame = net::encode_stream_chunk_frame(7, 0, vals, vals);
    const std::vector<std::uint8_t> chunk_payload(
        chunk_frame.begin() + net::FrameHeader::kSize, chunk_frame.end());
    const std::vector<std::vector<std::uint8_t>> payloads = {
        net::encode_stream_begin(make_begin({3, 4, 5}, 2)),
        chunk_payload,
        net::encode_stream_end({2, 60}),
    };
    for (std::size_t p = 0; p < payloads.size(); ++p) {
        const auto& full = payloads[p];
        for (std::size_t len = 0; len < full.size(); ++len) {
            const std::span<const std::uint8_t> prefix(full.data(), len);
            switch (p) {
                case 0:
                    EXPECT_THROW((void)net::decode_stream_begin(prefix), net::WireError)
                        << "payload " << p << " len " << len;
                    break;
                case 1:
                    EXPECT_THROW((void)net::decode_stream_chunk_ref(prefix, zc::SlabHandle{}),
                                 net::WireError)
                        << "payload " << p << " len " << len;
                    break;
                default:
                    EXPECT_THROW((void)net::decode_stream_end(prefix), net::WireError)
                        << "payload " << p << " len " << len;
            }
        }
    }
    // Trailing garbage is as suspect as truncation.
    auto padded = net::encode_stream_end({2, 60});
    padded.push_back(0);
    EXPECT_THROW((void)net::decode_stream_end(padded), net::WireError);
}

TEST(NetStreamWire, AssemblerAcceptsV2HeadersAndRejectsV3) {
    const std::vector<std::uint8_t> payload(16, 0x3C);
    net::FrameAssembler asm_(1 << 20);
    asm_.feed(net::encode_frame(net::FrameType::kStreamEnd, 5, payload,
                                net::kVersionStreaming));
    auto ok = asm_.next_view();
    ASSERT_EQ(ok.status, net::FrameAssembler::Status::kFrame);
    EXPECT_EQ(ok.header.version, net::kVersionStreaming);

    // A header revision above kVersionMax leaves the stream unsynchronized:
    // the assembler reports kBadVersion and the caller must close.
    auto frame = net::encode_frame(net::FrameType::kStreamEnd, 5, payload,
                                   net::kVersionStreaming);
    frame[4] = net::kVersionMax + 1;  // header version lives at offset 4 (LE)
    frame[5] = 0;
    net::FrameAssembler bad(1 << 20);
    bad.feed(frame);
    EXPECT_EQ(bad.next_view().status, net::FrameAssembler::Status::kBadVersion);
}

// --- Hello handshake -----------------------------------------------------

TEST(NetStreamWire, HelloCarriesTheRequestedRevision) {
    // The Hello is the length-prefixed protocol name and nothing else.
    net::Writer w;
    w.str("cuzc-wire-v2");
    EXPECT_EQ(net::encode_hello(), w.take());
    EXPECT_NO_THROW(net::decode_hello(net::encode_hello()));
    // Any other revision, the retired one included, is refused.
    for (const char* name : {"cuzc-wire-v1", "cuzc-wire-v3", "cuzc-wire-v9", ""}) {
        net::Writer other;
        other.str(name);
        EXPECT_THROW(net::decode_hello(other.view()), net::WireError) << name;
    }
    auto padded = net::encode_hello();
    padded.push_back(0);
    EXPECT_THROW(net::decode_hello(padded), net::WireError);
}

TEST(NetStreamWire, HelloAckRoundTripsEveryServerLimit) {
    net::HelloAck ack;
    ack.max_frame_payload = 4096;
    ack.max_inflight_per_connection = 7;
    ack.max_streams_per_connection = 99;
    const auto bytes = net::encode_hello_ack(ack);
    const auto back = net::decode_hello_ack(bytes);
    EXPECT_EQ(back.max_frame_payload, 4096u);
    EXPECT_EQ(back.max_inflight_per_connection, 7u);
    EXPECT_EQ(back.max_streams_per_connection, 99u);

    // One encoding: the length-prefixed protocol name, then three u64s.
    net::Writer w;
    w.str("cuzc-wire-v2");
    w.u64(4096);
    w.u64(7);
    w.u64(99);
    EXPECT_EQ(bytes, w.take());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_THROW((void)net::decode_hello_ack(
                         std::span<const std::uint8_t>(bytes.data(), len)),
                     net::WireError)
            << "prefix " << len;
    }
    auto padded = bytes;
    padded.push_back(0);
    EXPECT_THROW((void)net::decode_hello_ack(padded), net::WireError);
}

// --- Loopback acceptance -------------------------------------------------

TEST(NetStreamLoopback, DatasetLargerThanFrameMatchesBatchMomentsBitForBit) {
    // The acceptance bar: a dataset strictly larger than max_frame_payload
    // (so the whole-frame path physically cannot carry it) streamed over
    // loopback must reproduce the in-process batch reduction moments bit
    // for bit; the PDFs agree within the documented rebin tolerance.
    auto cfg = loopback_config();
    cfg.max_frame_payload = 64 * 1024;
    net::NetServer server(cfg);
    server.start();
    net::NetClient client(client_config(server.port()));
    EXPECT_GT(client.server_max_streams(), 0u);

    const zc::Dims3 dims{32, 32, 32};  // 128 KiB per field, 256 KiB total
    ASSERT_GT(dims.volume() * sizeof(float), cfg.max_frame_payload);
    const zc::Field orig = tst::smooth_field(dims, 31);
    const zc::Field dec = tst::perturbed(orig, 0.01, 131);
    const auto mcfg = reduction_cfg();
    const auto ref = zc::reduction_metrics(orig.view(), dec.view(), mcfg);

    const auto resp = client.stream_assess(dims, orig.data(), dec.data(), mcfg, 4096);
    ASSERT_FALSE(resp.rejected) << resp.error;
    EXPECT_FALSE(resp.degraded);
    const auto& got = resp.result.report.reduction;

    // Every scalar moment is bit-identical: the streamed accumulator and
    // the batch reduction fold the same element order through the same
    // moment code.
    EXPECT_EQ(got.min_err, ref.min_err);
    EXPECT_EQ(got.max_err, ref.max_err);
    EXPECT_EQ(got.avg_err, ref.avg_err);
    EXPECT_EQ(got.avg_abs_err, ref.avg_abs_err);
    EXPECT_EQ(got.max_abs_err, ref.max_abs_err);
    EXPECT_EQ(got.min_pwr_err, ref.min_pwr_err);
    EXPECT_EQ(got.max_pwr_err, ref.max_pwr_err);
    EXPECT_EQ(got.mse, ref.mse);
    EXPECT_EQ(got.rmse, ref.rmse);
    EXPECT_EQ(got.nrmse, ref.nrmse);
    EXPECT_EQ(got.snr_db, ref.snr_db);
    EXPECT_EQ(got.psnr_db, ref.psnr_db);
    EXPECT_EQ(got.pearson_r, ref.pearson_r);
    EXPECT_EQ(got.min_val, ref.min_val);
    EXPECT_EQ(got.max_val, ref.max_val);
    EXPECT_EQ(got.mean_val, ref.mean_val);
    EXPECT_EQ(got.std_val, ref.std_val);

    // Distributions: final ranges are exact, mass is conserved, entropy is
    // within the chunk-rebinning tolerance.
    EXPECT_EQ(got.err_pdf_min, ref.err_pdf_min);
    EXPECT_EQ(got.err_pdf_max, ref.err_pdf_max);
    ASSERT_EQ(got.err_pdf.size(), ref.err_pdf.size());
    double mass = 0;
    for (const auto p : got.err_pdf) mass += p;
    EXPECT_NEAR(mass, 1.0, 1e-12);
    tst::expect_close(ref.entropy, got.entropy, 0.05, "entropy");

    const auto tele = server.telemetry();
    EXPECT_EQ(tele.streams_opened, 1u);
    EXPECT_EQ(tele.stream_chunks, dims.volume() / 4096);
    EXPECT_GT(tele.stream_bytes, dims.volume() * 2 * sizeof(float));  // + seq overhead
    EXPECT_EQ(tele.streams_aborted, 0u);
    EXPECT_EQ(tele.requests_accepted, 1u);
    EXPECT_EQ(tele.requests_completed, 1u);
    EXPECT_EQ(tele.requests_in_flight, 0u);
}

TEST(NetStreamLoopback, StreamAssessEqualsInProcessStreamingAssessorExactly) {
    // Same chunk boundaries on both sides -> the whole ReductionReport
    // (PDFs included) must be bit-identical, not just the moments.
    net::NetServer server(loopback_config());
    server.start();
    net::NetClient client(client_config(server.port()));

    const zc::Dims3 dims{12, 10, 9};
    const zc::Field orig = tst::smooth_field(dims, 5);
    const zc::Field dec = tst::perturbed(orig, 0.02, 55);
    const auto mcfg = reduction_cfg();
    constexpr std::size_t kChunk = 200;

    zc::StreamingAssessor sa(mcfg);
    for (std::size_t off = 0; off < dims.volume(); off += kChunk) {
        const std::size_t n = std::min(kChunk, dims.volume() - off);
        sa.feed(orig.data().subspan(off, n), dec.data().subspan(off, n));
    }
    zc::AssessmentReport expected;
    expected.reduction = sa.finalize();

    const auto resp = client.stream_assess(dims, orig.data(), dec.data(), mcfg, kChunk);
    ASSERT_FALSE(resp.rejected) << resp.error;
    EXPECT_EQ(net::encode_report(resp.result.report), net::encode_report(expected));
}

TEST(NetStreamLoopback, StencilAndSsimRequestsDegradeWithSheddingRecorded) {
    // Streaming can only compute the pattern-1 reduction family; asking for
    // the stencil/SSIM groups must settle (not reject) with the shed groups
    // recorded, mirroring the service's deadline-shedding convention.
    net::NetServer server(loopback_config());
    server.start();
    net::NetClient client(client_config(server.port()));

    const zc::Dims3 dims{8, 8, 8};
    const zc::Field orig = tst::smooth_field(dims, 2);
    const zc::Field dec = tst::perturbed(orig, 0.03, 22);
    zc::MetricsConfig mcfg;  // all three patterns on
    const auto resp = client.stream_assess(dims, orig.data(), dec.data(), mcfg, 64);
    ASSERT_FALSE(resp.rejected) << resp.error;
    EXPECT_TRUE(resp.degraded);
    ASSERT_EQ(resp.shed.size(), 2u);
    EXPECT_EQ(resp.shed[0], "pattern2");
    EXPECT_EQ(resp.shed[1], "pattern3");
    EXPECT_FALSE(resp.effective_cfg.pattern2);
    EXPECT_FALSE(resp.effective_cfg.pattern3);
    EXPECT_TRUE(resp.effective_cfg.pattern1);
}

TEST(NetStreamLoopback, InterleavedStreamsOnOneConnectionBothSettle) {
    net::NetServer server(loopback_config());
    server.start();
    net::NetClient client(client_config(server.port()));

    const zc::Dims3 dims{10, 10, 10};
    const auto mcfg = reduction_cfg();
    const zc::Field orig_a = tst::smooth_field(dims, 1);
    const zc::Field dec_a = tst::perturbed(orig_a, 0.01, 11);
    const zc::Field orig_b = tst::smooth_field(dims, 2);
    const zc::Field dec_b = tst::perturbed(orig_b, 0.04, 12);

    constexpr std::size_t kChunk = 250;
    const std::uint64_t chunks = dims.volume() / kChunk;
    const auto ida = client.stream_begin(dims, mcfg, chunks);
    const auto idb = client.stream_begin(dims, mcfg, chunks);
    ASSERT_NE(ida, idb);
    for (std::size_t off = 0; off < dims.volume(); off += kChunk) {
        client.stream_feed(ida, orig_a.data().subspan(off, kChunk),
                           dec_a.data().subspan(off, kChunk));
        client.stream_feed(idb, orig_b.data().subspan(off, kChunk),
                           dec_b.data().subspan(off, kChunk));
    }
    client.stream_finish(idb);  // finish out of open order
    client.stream_finish(ida);

    const auto ra = client.wait(ida);
    const auto rb = client.wait(idb);
    ASSERT_FALSE(ra.rejected) << ra.error;
    ASSERT_FALSE(rb.rejected) << rb.error;
    // Each stream's moments match its own dataset (no cross-talk).
    const auto ref_a = zc::reduction_metrics(orig_a.view(), dec_a.view(), mcfg);
    const auto ref_b = zc::reduction_metrics(orig_b.view(), dec_b.view(), mcfg);
    EXPECT_EQ(ra.result.report.reduction.mse, ref_a.mse);
    EXPECT_EQ(rb.result.report.reduction.mse, ref_b.mse);
    EXPECT_NE(ra.result.report.reduction.mse, rb.result.report.reduction.mse);

    const auto tele = server.telemetry();
    EXPECT_EQ(tele.streams_opened, 2u);
    EXPECT_EQ(tele.streams_aborted, 0u);
    EXPECT_EQ(tele.requests_completed, 2u);
    EXPECT_EQ(tele.requests_in_flight, 0u);
}

TEST(NetStreamLoopback, ClientValidatesFeedsAgainstTheDeclaration) {
    net::NetServer server(loopback_config());
    server.start();
    net::NetClient client(client_config(server.port()));

    const zc::Dims3 dims{4, 4, 4};
    // A chunk count that cannot tile the shape fails before any frame.
    EXPECT_THROW((void)client.stream_begin(dims, reduction_cfg(), 0), net::WireError);
    EXPECT_THROW((void)client.stream_begin(dims, reduction_cfg(), dims.volume() + 1),
                 net::WireError);

    const std::vector<float> all(dims.volume(), 1.0f);
    const std::vector<float> one(1, 1.0f);
    const auto id = client.stream_begin(dims, reduction_cfg(), 2);
    client.stream_feed(id, all, all);  // chunk 1 of 2 carries everything
    // Chunk 2 would overrun the declared element budget: rejected locally.
    EXPECT_THROW(client.stream_feed(id, one, one), net::WireError);
    client.stream_abort(id);
    EXPECT_EQ(client.outstanding(), 0u);
    // Feeding an aborted (unknown) stream is a local error too.
    EXPECT_THROW(client.stream_feed(id, one, one), net::WireError);
}

// --- Raw-frame server state machine --------------------------------------

/// Raw TCP connect to the loopback server, or -1.
int raw_connect(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/// True when the peer cleanly closed the stream (EOF) within `timeout_ms`.
bool peer_closed(int fd, int timeout_ms) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) != 1) return false;
    char buf[64];
    return ::recv(fd, buf, sizeof(buf), 0) == 0;
}

/// A hand-driven wire connection: sends arbitrary (including malformed)
/// frames and reassembles whatever the server answers.
class RawWire {
public:
    explicit RawWire(std::uint16_t port) : fd_(raw_connect(port)) {}
    ~RawWire() {
        if (fd_ >= 0) ::close(fd_);
    }

    [[nodiscard]] int fd() const noexcept { return fd_; }

    [[nodiscard]] bool send(std::span<const std::uint8_t> bytes) {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n =
                ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
            if (n <= 0) return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    /// Completes the Hello exchange; returns the ack.
    [[nodiscard]] net::HelloAck handshake() {
        EXPECT_TRUE(send(net::encode_frame(net::FrameType::kHello, 0, net::encode_hello())));
        const auto res = next_frame(5000);
        EXPECT_EQ(res.status, net::FrameAssembler::Status::kFrame);
        EXPECT_EQ(res.header.type, static_cast<std::uint16_t>(net::FrameType::kHelloAck));
        return net::decode_hello_ack(res.view);
    }

    /// Blocks until one complete frame arrives (or `timeout_ms` passes,
    /// returning kNeedMore).
    [[nodiscard]] net::FrameAssembler::Result next_frame(int timeout_ms) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
        for (;;) {
            auto res = asm_.next_view();
            if (res.status != net::FrameAssembler::Status::kNeedMore) return res;
            const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
            if (left.count() <= 0) return res;
            pollfd p{fd_, POLLIN, 0};
            if (::poll(&p, 1, static_cast<int>(left.count())) != 1) continue;
            std::uint8_t buf[4096];
            const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0) return res;  // EOF surfaces as kNeedMore
            asm_.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
        }
    }

    /// Waits for the server's settling kResponse for `stream_id`.
    [[nodiscard]] serve::AssessResponse wait_response(std::uint64_t stream_id) {
        const auto res = next_frame(10000);
        EXPECT_EQ(res.status, net::FrameAssembler::Status::kFrame);
        EXPECT_EQ(res.header.type, static_cast<std::uint16_t>(net::FrameType::kResponse));
        EXPECT_EQ(res.header.request_id, stream_id);
        return net::decode_response(res.view);
    }

    void begin_stream(std::uint64_t sid, const net::StreamBegin& sb) {
        EXPECT_TRUE(send(net::encode_frame(net::FrameType::kStreamBegin, sid,
                                           net::encode_stream_begin(sb),
                                           net::kVersionStreaming)));
    }
    void end_stream(std::uint64_t sid, const net::StreamEnd& se) {
        EXPECT_TRUE(send(net::encode_frame(net::FrameType::kStreamEnd, sid,
                                           net::encode_stream_end(se),
                                           net::kVersionStreaming)));
    }

private:
    int fd_;
    net::FrameAssembler asm_{64ull << 20};
};

/// One valid paired slice of `n` elements for hand-driven streams.
std::vector<float> ramp(std::size_t n, float base) {
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = base + static_cast<float>(i) * 0.25f;
    return v;
}

TEST(NetStreamServer, OutOfSequenceChunkSettlesTheStreamRejected) {
    net::NetServer server(loopback_config());
    server.start();
    RawWire wire(server.port());
    ASSERT_GE(wire.fd(), 0);
    (void)wire.handshake();

    const zc::Dims3 dims{4, 4, 4};
    wire.begin_stream(1, make_begin(dims, 2));
    const auto half = ramp(dims.volume() / 2, 1.0f);
    // First chunk arrives with seq 1 instead of 0.
    ASSERT_TRUE(wire.send(net::encode_stream_chunk_frame(1, 1, half, half)));
    const auto resp = wire.wait_response(1);
    EXPECT_TRUE(resp.rejected);
    EXPECT_NE(resp.error.find("out of sequence"), std::string::npos) << resp.error;
    EXPECT_EQ(server.telemetry().streams_aborted, 1u);
    EXPECT_EQ(server.telemetry().requests_in_flight, 0u);
}

TEST(NetStreamServer, ReusingASettledStreamIdIsRejectedDeterministically) {
    // Found by the session fuzz target (corpus:
    // session/seed-reuse-after-reject-settle.bin). Once a stream id
    // settles — here via an out-of-sequence chunk, which aborts the stream
    // with a rejected response — the id is spent for the connection's
    // lifetime. The server used to erase the id entirely on settle, so a
    // client could re-open it and "resurrect" a stream the caller had
    // already observed as rejected, receiving a second, contradictory
    // response for the same id.
    net::NetServer server(loopback_config());
    server.start();
    RawWire wire(server.port());
    ASSERT_GE(wire.fd(), 0);
    (void)wire.handshake();

    const zc::Dims3 dims{4, 4, 4};
    wire.begin_stream(1, make_begin(dims, 2));
    const auto half = ramp(dims.volume() / 2, 1.0f);
    ASSERT_TRUE(wire.send(net::encode_stream_chunk_frame(1, 1, half, half)));
    const auto first = wire.wait_response(1);
    EXPECT_TRUE(first.rejected);
    EXPECT_NE(first.error.find("out of sequence"), std::string::npos) << first.error;

    // Replaying a full, perfectly valid stream under the settled id must
    // fail closed with the dedicated diagnostic, not produce a report.
    wire.begin_stream(1, make_begin(dims, 2));
    const auto reuse = wire.wait_response(1);
    EXPECT_TRUE(reuse.rejected);
    EXPECT_NE(reuse.error.find("already settled"), std::string::npos) << reuse.error;

    // A fresh id on the same connection still works: the tombstone is
    // per-id, not a poisoned connection.
    wire.begin_stream(2, make_begin(dims, 2));
    ASSERT_TRUE(wire.send(net::encode_stream_chunk_frame(2, 0, half, half)));
    ASSERT_TRUE(wire.send(net::encode_stream_chunk_frame(2, 1, half, half)));
    net::StreamEnd se;
    se.chunks = 2;
    se.elements = dims.volume();
    wire.end_stream(2, se);
    const auto ok = wire.wait_response(2);
    EXPECT_FALSE(ok.rejected) << ok.error;
    EXPECT_EQ(server.telemetry().requests_in_flight, 0u);
}

TEST(NetStreamServer, PdfBinsBombInStreamBeginIsRejectedAtTheFramingLayer) {
    // Corpus: session/seed-streambegin-pdfbins-bomb.bin. A 2^31-1 bin
    // declaration used to reach the StreamingAssessor constructor, whose
    // histogram allocation threw bad_alloc out of the server's event loop.
    net::NetServer server(loopback_config());
    server.start();
    RawWire wire(server.port());
    ASSERT_GE(wire.fd(), 0);
    (void)wire.handshake();

    auto sb = make_begin({4, 4, 4}, 2);
    sb.cfg.pdf_bins = 0x7fffffff;  // encoder does not range-check; decode must
    ASSERT_TRUE(wire.send(net::encode_frame(net::FrameType::kStreamBegin, 5,
                                            net::encode_stream_begin(sb),
                                            net::kVersionStreaming)));
    const auto resp = wire.wait_response(5);
    EXPECT_TRUE(resp.rejected);
    EXPECT_NE(resp.error.find("pdf_bins"), std::string::npos) << resp.error;

    // The connection (and server) survive: a normal stream still completes.
    const zc::Dims3 dims{4, 4, 4};
    const auto half = ramp(dims.volume() / 2, 1.0f);
    wire.begin_stream(6, make_begin(dims, 2));
    ASSERT_TRUE(wire.send(net::encode_stream_chunk_frame(6, 0, half, half)));
    ASSERT_TRUE(wire.send(net::encode_stream_chunk_frame(6, 1, half, half)));
    net::StreamEnd se;
    se.chunks = 2;
    se.elements = dims.volume();
    wire.end_stream(6, se);
    const auto ok = wire.wait_response(6);
    EXPECT_FALSE(ok.rejected) << ok.error;
}

TEST(NetStreamServer, DuplicateChunkSettlesTheStreamRejected) {
    net::NetServer server(loopback_config());
    server.start();
    RawWire wire(server.port());
    ASSERT_GE(wire.fd(), 0);
    (void)wire.handshake();

    const zc::Dims3 dims{4, 4, 4};
    wire.begin_stream(1, make_begin(dims, 4));
    const auto quarter = ramp(dims.volume() / 4, 1.0f);
    ASSERT_TRUE(wire.send(net::encode_stream_chunk_frame(1, 0, quarter, quarter)));
    // A retransmitted (duplicate) seq 0 is indistinguishable from loss of
    // sync; the stream settles rejected rather than double-counting.
    ASSERT_TRUE(wire.send(net::encode_stream_chunk_frame(1, 0, quarter, quarter)));
    const auto resp = wire.wait_response(1);
    EXPECT_TRUE(resp.rejected);
    EXPECT_NE(resp.error.find("out of sequence"), std::string::npos) << resp.error;
}

TEST(NetStreamServer, StreamEndWithMissingChunksRejected) {
    net::NetServer server(loopback_config());
    server.start();
    RawWire wire(server.port());
    ASSERT_GE(wire.fd(), 0);
    (void)wire.handshake();

    const zc::Dims3 dims{4, 4, 4};
    wire.begin_stream(1, make_begin(dims, 2));
    const auto half = ramp(dims.volume() / 2, 2.0f);
    ASSERT_TRUE(wire.send(net::encode_stream_chunk_frame(1, 0, half, half)));
    // The End restates what actually arrived (1 chunk), but the declaration
    // promised 2 — the dataset is incomplete and must not finalize.
    wire.end_stream(1, {1, half.size()});
    const auto resp = wire.wait_response(1);
    EXPECT_TRUE(resp.rejected);
    EXPECT_NE(resp.error.find("before the declared dataset"), std::string::npos)
        << resp.error;
}

TEST(NetStreamServer, StreamEndCountsDisagreeingWithArrivalRejected) {
    net::NetServer server(loopback_config());
    server.start();
    RawWire wire(server.port());
    ASSERT_GE(wire.fd(), 0);
    (void)wire.handshake();

    const zc::Dims3 dims{4, 4, 4};
    wire.begin_stream(1, make_begin(dims, 2));
    const auto half = ramp(dims.volume() / 2, 3.0f);
    ASSERT_TRUE(wire.send(net::encode_stream_chunk_frame(1, 0, half, half)));
    wire.end_stream(1, {2, dims.volume()});  // claims both chunks arrived
    const auto resp = wire.wait_response(1);
    EXPECT_TRUE(resp.rejected);
    EXPECT_NE(resp.error.find("disagree"), std::string::npos) << resp.error;
}

TEST(NetStreamServer, DuplicateStreamBeginRejectedWithoutKillingTheFirst) {
    net::NetServer server(loopback_config());
    server.start();
    RawWire wire(server.port());
    ASSERT_GE(wire.fd(), 0);
    (void)wire.handshake();

    const zc::Dims3 dims{4, 4, 4};
    wire.begin_stream(7, make_begin(dims, 1));
    wire.begin_stream(7, make_begin(dims, 1));  // same id again
    const auto dup = wire.wait_response(7);
    EXPECT_TRUE(dup.rejected);
    EXPECT_NE(dup.error.find("already open"), std::string::npos) << dup.error;

    // The original stream is unharmed and still completes.
    const auto all = ramp(dims.volume(), 4.0f);
    ASSERT_TRUE(wire.send(net::encode_stream_chunk_frame(7, 0, all, all)));
    wire.end_stream(7, {1, all.size()});
    const auto ok = wire.wait_response(7);
    EXPECT_FALSE(ok.rejected) << ok.error;
    EXPECT_EQ(server.telemetry().streams_opened, 1u);
    EXPECT_EQ(server.telemetry().streams_aborted, 0u);
}

TEST(NetStreamServer, StreamBeginPastTheCapRejected) {
    auto cfg = loopback_config();
    cfg.max_streams_per_connection = 1;
    net::NetServer server(cfg);
    server.start();
    RawWire wire(server.port());
    ASSERT_GE(wire.fd(), 0);
    const auto ack = wire.handshake();
    EXPECT_EQ(ack.max_streams_per_connection, 1u);

    const zc::Dims3 dims{4, 4, 4};
    wire.begin_stream(1, make_begin(dims, 1));
    wire.begin_stream(2, make_begin(dims, 1));
    const auto over = wire.wait_response(2);
    EXPECT_TRUE(over.rejected);
    EXPECT_NE(over.error.find("stream limit"), std::string::npos) << over.error;

    const auto all = ramp(dims.volume(), 5.0f);
    ASSERT_TRUE(wire.send(net::encode_stream_chunk_frame(1, 0, all, all)));
    wire.end_stream(1, {1, all.size()});
    EXPECT_FALSE(wire.wait_response(1).rejected);
}

TEST(NetStreamServer, ChunkForUnknownStreamIsDroppedNotFatal) {
    net::NetServer server(loopback_config());
    server.start();
    RawWire wire(server.port());
    ASSERT_GE(wire.fd(), 0);
    (void)wire.handshake();

    const auto stray = ramp(16, 6.0f);
    ASSERT_TRUE(wire.send(net::encode_stream_chunk_frame(404, 0, stray, stray)));

    // The connection survives: a full stream still runs to completion.
    const zc::Dims3 dims{4, 4, 4};
    wire.begin_stream(1, make_begin(dims, 1));
    const auto all = ramp(dims.volume(), 6.0f);
    ASSERT_TRUE(wire.send(net::encode_stream_chunk_frame(1, 0, all, all)));
    wire.end_stream(1, {1, all.size()});
    EXPECT_FALSE(wire.wait_response(1).rejected);
    EXPECT_GE(server.telemetry().frames_rejected, 1u);
    // The stray chunk never entered the request ledger.
    EXPECT_EQ(server.telemetry().requests_accepted, 1u);
}

TEST(NetStreamServer, MalformedStreamBeginDeclarationRejected) {
    net::NetServer server(loopback_config());
    server.start();
    RawWire wire(server.port());
    ASSERT_GE(wire.fd(), 0);
    (void)wire.handshake();

    // An oversize declared byte total must be caught at decode, before any
    // chunk is accepted against it.
    auto sb = make_begin({4, 4, 4}, 2);
    sb.total_bytes = 1ull << 40;
    wire.begin_stream(1, sb);
    const auto resp = wire.wait_response(1);
    EXPECT_TRUE(resp.rejected);
    EXPECT_NE(resp.error.find("bad stream-begin"), std::string::npos) << resp.error;
    EXPECT_EQ(server.telemetry().streams_opened, 0u);
}

TEST(NetStreamServer, RetiredV1HelloClosesTheConnection) {
    net::NetServer server(loopback_config());
    server.start();
    RawWire wire(server.port());
    ASSERT_GE(wire.fd(), 0);

    // cuzc-wire-v1 is retired: a Hello naming it is refused like any
    // unknown protocol. No ack is sent; the server closes instead.
    net::Writer retired;
    retired.str("cuzc-wire-v1");
    ASSERT_TRUE(wire.send(net::encode_frame(net::FrameType::kHello, 0, retired.view())));
    EXPECT_TRUE(peer_closed(wire.fd(), 5000)) << "expected a close, not a HelloAck";
    EXPECT_GE(server.telemetry().frames_rejected, 1u);

    // The server itself is unharmed: a current client still connects.
    net::NetClient client(client_config(server.port()));
    EXPECT_GT(client.server_max_streams(), 0u);
}

TEST(NetStreamServer, DrainSettlesOpenStreamsRejected) {
    net::NetServer server(loopback_config());
    server.start();
    net::NetClient client(client_config(server.port()));

    const zc::Dims3 dims{4, 4, 4};
    const auto id = client.stream_begin(dims, reduction_cfg(), 2);
    const std::vector<float> half(dims.volume() / 2, 1.5f);
    client.stream_feed(id, half, half);
    client.pump(0.0);  // flush Begin + the first chunk
    while (server.telemetry().streams_opened < 1) client.pump(0.001);

    // Drain stops reading, so the stream can never finish: the server must
    // settle it with a rejected response instead of wedging the drain.
    server.shutdown();
    const auto resp = client.wait(id);
    EXPECT_TRUE(resp.rejected);
    EXPECT_NE(resp.error.find("draining"), std::string::npos) << resp.error;

    const auto tele = server.telemetry();
    EXPECT_EQ(tele.streams_opened, 1u);
    EXPECT_EQ(tele.streams_aborted, 1u);
    EXPECT_EQ(tele.requests_accepted, 1u);
    EXPECT_EQ(tele.requests_completed, 1u);
    EXPECT_EQ(tele.requests_in_flight, 0u);
}

TEST(NetStreamServer, ClientAbortReleasesTheStreamServerSide) {
    net::NetServer server(loopback_config());
    server.start();
    net::NetClient client(client_config(server.port()));

    const zc::Dims3 dims{4, 4, 4};
    const auto id = client.stream_begin(dims, reduction_cfg(), 2);
    const std::vector<float> half(dims.volume() / 2, 2.5f);
    client.stream_feed(id, half, half);
    client.stream_abort(id);
    client.pump(0.0);
    // Abort is fire-and-forget: the server releases the stream and records
    // it as failed (no delivery), and the id becomes reusable.
    while (server.telemetry().streams_aborted < 1) client.pump(0.001);
    const auto tele = server.telemetry();
    EXPECT_EQ(tele.streams_opened, 1u);
    EXPECT_EQ(tele.streams_aborted, 1u);
    EXPECT_EQ(tele.requests_failed, 1u);
    EXPECT_EQ(tele.requests_in_flight, 0u);
    EXPECT_EQ(client.outstanding(), 0u);

    // The connection is still perfectly usable for a fresh stream.
    const zc::Field orig = tst::smooth_field(dims, 9);
    const zc::Field dec = tst::perturbed(orig, 0.01, 19);
    const auto resp =
        client.stream_assess(dims, orig.data(), dec.data(), reduction_cfg(), 16);
    EXPECT_FALSE(resp.rejected) << resp.error;
}

}  // namespace

// Tests of cuzc::net — the cuzc-wire-v2 socket front-end.
//
// The acceptance bar: frames round-trip bit-exactly through the codec and
// the assembler (including split and pipelined delivery), malformed input
// is rejected without tearing anything down, a loopback round trip equals
// a direct `cuzc::assess` bit-for-bit, graceful drain settles every
// accepted request, and the wire telemetry reconciles — also under fault
// injection. Suites are named Net* so the TSan CI job picks them up.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cuzc/cuzc.hpp"
#include "io/json.hpp"
#include "net/net.hpp"
#include "serve/serve.hpp"
#include "test_helpers.hpp"
#include "zc/zc.hpp"

namespace {

namespace net = ::cuzc::net;
namespace serve = ::cuzc::serve;
namespace czc = ::cuzc::cuzc;
namespace zc = ::cuzc::zc;
namespace vgpu = ::cuzc::vgpu;
namespace tst = ::cuzc::testing;

constexpr zc::Dims3 kDims{10, 12, 14};

serve::AssessRequest make_request(std::uint64_t seed, double noise = 0.01) {
    serve::AssessRequest req;
    req.orig = tst::smooth_field(kDims, seed);
    req.dec = tst::perturbed(req.orig, noise, seed + 100);
    req.cfg.ssim_window = 4;
    return req;
}

std::vector<std::uint8_t> payload_of(const net::FrameAssembler::Result& res) {
    return {res.view.begin(), res.view.end()};
}

zc::AssessmentReport direct_report(const serve::AssessRequest& req) {
    vgpu::Device dev;
    return czc::assess(dev, req.orig.view(), req.dec.view(), req.cfg).report;
}

// --- Checksum -----------------------------------------------------------

TEST(NetWire, ChecksumIsDeterministicAndSensitive) {
    std::vector<std::uint8_t> data(1000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 37 + 11);
    const std::uint32_t c0 = net::frame_checksum(data);
    EXPECT_EQ(c0, net::frame_checksum(data));  // deterministic
    // A single flipped bit anywhere changes the sum — probe a few offsets
    // across lane boundaries and the < 64-byte tail.
    for (std::size_t off : {std::size_t{0}, std::size_t{7}, std::size_t{63},
                            std::size_t{64}, std::size_t{961}, data.size() - 1}) {
        auto corrupt = data;
        corrupt[off] ^= 0x01;
        EXPECT_NE(net::frame_checksum(corrupt), c0) << "offset " << off;
    }
    // Length extension: the empty and 1-byte prefixes differ too.
    EXPECT_NE(net::frame_checksum(std::span<const std::uint8_t>(data.data(), 0)),
              net::frame_checksum(std::span<const std::uint8_t>(data.data(), 1)));
}

// --- Framing / assembler ------------------------------------------------

TEST(NetWire, FrameRoundTripsThroughAssembler) {
    std::vector<std::uint8_t> payload{1, 2, 3, 4, 5, 6, 7};
    const auto frame = net::encode_frame(net::FrameType::kRequest, 42, payload);
    ASSERT_EQ(frame.size(), net::FrameHeader::kSize + payload.size());

    net::FrameAssembler asm_(1 << 20);
    asm_.feed(frame);
    auto res = asm_.next_view();
    ASSERT_EQ(res.status, net::FrameAssembler::Status::kFrame);
    EXPECT_EQ(res.header.type, static_cast<std::uint16_t>(net::FrameType::kRequest));
    EXPECT_EQ(res.header.request_id, 42u);
    EXPECT_EQ(payload_of(res), payload);
    EXPECT_EQ(asm_.next_view().status, net::FrameAssembler::Status::kNeedMore);
}

TEST(NetWire, ByteAtATimeDeliveryNeedsMoreUntilComplete) {
    std::vector<std::uint8_t> payload(33, 0xAB);
    const auto frame = net::encode_frame(net::FrameType::kResponse, 7, payload);
    net::FrameAssembler asm_(1 << 20);
    for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
        asm_.feed(std::span<const std::uint8_t>(&frame[i], 1));
        EXPECT_EQ(asm_.next_view().status, net::FrameAssembler::Status::kNeedMore);
    }
    asm_.feed(std::span<const std::uint8_t>(&frame.back(), 1));
    auto res = asm_.next_view();
    ASSERT_EQ(res.status, net::FrameAssembler::Status::kFrame);
    EXPECT_EQ(payload_of(res), payload);
}

TEST(NetWire, NextViewAliasesStreamAndMatchesNext) {
    std::vector<std::uint8_t> p1(100, 0x11), p2(50, 0x22);
    net::FrameAssembler asm_(1 << 20);
    asm_.feed(net::encode_frame(net::FrameType::kRequest, 1, p1));
    asm_.feed(net::encode_frame(net::FrameType::kRequest, 2, p2));
    auto r1 = asm_.next_view();
    ASSERT_EQ(r1.status, net::FrameAssembler::Status::kFrame);
    // Zero-copy: the payload lives in place inside the pinned slab.
    ASSERT_TRUE(r1.slab);
    EXPECT_GE(r1.view.data(), r1.slab.data());
    EXPECT_LE(r1.view.data() + r1.view.size(), r1.slab.data() + r1.slab.capacity());
    EXPECT_EQ(payload_of(r1), p1);
    auto r2 = asm_.next_view();
    ASSERT_EQ(r2.status, net::FrameAssembler::Status::kFrame);
    EXPECT_EQ(r2.header.request_id, 2u);
    EXPECT_EQ(payload_of(r2), p2);
    EXPECT_EQ(asm_.next_view().status, net::FrameAssembler::Status::kNeedMore);
    // Held pins keep both views intact across later ingest.
    const std::vector<std::uint8_t> p3(8000, 0x33);
    asm_.feed(net::encode_frame(net::FrameType::kRequest, 3, p3));
    EXPECT_EQ(payload_of(r1), p1);
    EXPECT_EQ(payload_of(r2), p2);
}

TEST(NetWire, WritableCommitIngestEqualsFeed) {
    std::vector<std::uint8_t> payload(4096, 0x5A);
    const auto frame = net::encode_frame(net::FrameType::kRequest, 9, payload);
    net::FrameAssembler asm_(1 << 20);
    std::size_t off = 0;
    while (off < frame.size()) {
        auto dst = asm_.writable(1000);
        const std::size_t n = std::min(dst.size(), frame.size() - off);
        std::memcpy(dst.data(), frame.data() + off, n);
        asm_.commit(n);
        off += n;
    }
    auto res = asm_.next_view();
    ASSERT_EQ(res.status, net::FrameAssembler::Status::kFrame);
    EXPECT_EQ(payload_of(res), payload);
}

TEST(NetWire, BadMagicAndBadVersionAreTerminal) {
    {
        std::vector<std::uint8_t> junk(net::FrameHeader::kSize, 0xEE);
        net::FrameAssembler asm_(1 << 20);
        asm_.feed(junk);
        EXPECT_EQ(asm_.next_view().status, net::FrameAssembler::Status::kBadMagic);
    }
    {
        auto frame = net::encode_frame(net::FrameType::kHello, 0, net::encode_hello());
        frame[4] = 0xFF;  // version field (little-endian u16 at offset 4)
        frame[5] = 0xFF;
        net::FrameAssembler asm_(1 << 20);
        asm_.feed(frame);
        EXPECT_EQ(asm_.next_view().status, net::FrameAssembler::Status::kBadVersion);
    }
}

TEST(NetWire, OversizeFrameIsSkippedAndStreamRecovers) {
    std::vector<std::uint8_t> big(2048, 0x33);
    const auto oversize = net::encode_frame(net::FrameType::kRequest, 5, big);
    std::vector<std::uint8_t> small{9, 9, 9};
    const auto good = net::encode_frame(net::FrameType::kRequest, 6, small);

    net::FrameAssembler asm_(1024);  // limit below `big`
    // Deliver the oversize frame in two chunks so the skip spans commits.
    asm_.feed(std::span<const std::uint8_t>(oversize.data(), 100));
    EXPECT_EQ(asm_.next_view().status, net::FrameAssembler::Status::kOversize);
    asm_.feed(std::span<const std::uint8_t>(oversize.data() + 100, oversize.size() - 100));
    asm_.feed(good);
    auto res = asm_.next_view();
    ASSERT_EQ(res.status, net::FrameAssembler::Status::kFrame);
    EXPECT_EQ(res.header.request_id, 6u);
    EXPECT_EQ(payload_of(res), small);
}

TEST(NetWire, PendingFrameBytesPeeksTheInLimitHeadFrame) {
    std::vector<std::uint8_t> payload(300, 0x42);
    const auto frame = net::encode_frame(net::FrameType::kRequest, 7, payload);

    net::FrameAssembler asm_(1024);
    EXPECT_EQ(asm_.pending_frame_bytes(), 0u);  // empty
    asm_.feed(std::span<const std::uint8_t>(frame.data(), 10));
    EXPECT_EQ(asm_.pending_frame_bytes(), 0u);  // partial header
    asm_.feed(std::span<const std::uint8_t>(frame.data() + 10,
                                            net::FrameHeader::kSize + 50 - 10));
    // Full header + partial payload: the total frame size is known.
    EXPECT_EQ(asm_.pending_frame_bytes(), net::FrameHeader::kSize + payload.size());
    EXPECT_EQ(asm_.next_view().status, net::FrameAssembler::Status::kNeedMore);
    asm_.feed(std::span<const std::uint8_t>(frame.data() + net::FrameHeader::kSize + 50,
                                            frame.size() - net::FrameHeader::kSize - 50));
    EXPECT_EQ(asm_.pending_frame_bytes(), frame.size());
    EXPECT_EQ(asm_.next_view().status, net::FrameAssembler::Status::kFrame);
    EXPECT_EQ(asm_.pending_frame_bytes(), 0u);  // stream drained

    // Oversize and garbage headers report 0 — they never justify reading
    // past the soft buffer cap.
    std::vector<std::uint8_t> big(2048, 0x33);
    asm_.feed(net::encode_frame(net::FrameType::kRequest, 8, big));
    EXPECT_EQ(asm_.pending_frame_bytes(), 0u);
    EXPECT_EQ(asm_.next_view().status, net::FrameAssembler::Status::kOversize);
    net::FrameAssembler junk(1024);
    const std::vector<std::uint8_t> noise(net::FrameHeader::kSize, 0x5A);
    junk.feed(noise);
    EXPECT_EQ(junk.pending_frame_bytes(), 0u);  // bad magic
}

TEST(NetWire, ChecksumMismatchDropsTheFrameOnly) {
    std::vector<std::uint8_t> payload(64, 0x77);
    auto bad = net::encode_frame(net::FrameType::kRequest, 3, payload);
    bad.back() ^= 0xFF;  // corrupt the payload after the checksum was computed
    const auto good = net::encode_frame(net::FrameType::kRequest, 4, payload);

    net::FrameAssembler asm_(1 << 20);
    asm_.feed(bad);
    asm_.feed(good);
    EXPECT_EQ(asm_.next_view().status, net::FrameAssembler::Status::kBadChecksum);
    auto res = asm_.next_view();
    ASSERT_EQ(res.status, net::FrameAssembler::Status::kFrame);
    EXPECT_EQ(res.header.request_id, 4u);
}

// --- Payload codecs -----------------------------------------------------

TEST(NetWire, RequestCodecRoundTrips) {
    auto req = make_request(11, 0.02);
    req.deadline_model_s = 1.5e-3;
    req.priority = 3;
    const auto payload = net::encode_request(req);
    const auto back = net::decode_request_view(payload, zc::SlabHandle{});
    EXPECT_EQ(back.orig.dims().h, req.orig.dims().h);
    EXPECT_EQ(back.orig.dims().l, req.orig.dims().l);
    ASSERT_EQ(back.orig.data().size(), req.orig.data().size());
    EXPECT_TRUE(std::equal(back.orig.data().begin(), back.orig.data().end(),
                           req.orig.data().begin()));
    EXPECT_TRUE(std::equal(back.dec.data().begin(), back.dec.data().end(),
                           req.dec.data().begin()));
    EXPECT_EQ(back.cfg.ssim_window, req.cfg.ssim_window);
    EXPECT_DOUBLE_EQ(back.deadline_model_s, req.deadline_model_s);
    EXPECT_EQ(back.priority, req.priority);
    EXPECT_TRUE(back.sz_stream.empty());
}

TEST(NetWire, ResponseCodecRoundTripsBitIdenticalReport) {
    auto req = make_request(13);
    serve::AssessService service;
    auto resp = service.submit(std::move(req)).get();
    resp.shed = {"ssim"};
    resp.retries = 2;
    const auto payload = net::encode_response(resp);
    const auto back = net::decode_response(payload);
    EXPECT_EQ(back.cache_hit, resp.cache_hit);
    EXPECT_EQ(back.rejected, resp.rejected);
    EXPECT_EQ(back.retries, resp.retries);
    ASSERT_EQ(back.shed.size(), 1u);
    EXPECT_EQ(back.shed[0], "ssim");
    // Bit identity via the canonical report encoding.
    EXPECT_EQ(net::encode_report(back.result.report), net::encode_report(resp.result.report));

    // The server frames its own rejections with encode_response_frame:
    // the same bytes as framing the encoded payload.
    serve::AssessResponse rejected;
    rejected.rejected = true;
    rejected.error = "frame checksum mismatch";
    EXPECT_EQ(net::encode_response_frame(rejected, 77),
              net::encode_frame(net::FrameType::kResponse, 77, net::encode_response(rejected)));
}

TEST(NetWire, TruncatedPayloadsThrowInsteadOfOverreading) {
    const auto payload = net::encode_request(make_request(17));
    // Every proper prefix must throw WireError — never crash or accept.
    for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                            payload.size() / 2, payload.size() - 1}) {
        EXPECT_THROW((void)net::decode_request_view(
                         std::span<const std::uint8_t>(payload.data(), len), zc::SlabHandle{}),
                     net::WireError)
            << "prefix " << len;
    }
    // Trailing garbage is rejected too.
    auto padded = payload;
    padded.push_back(0);
    EXPECT_THROW((void)net::decode_request_view(padded, zc::SlabHandle{}), net::WireError);
}

TEST(NetWire, HelloHandshakeValidatesProtocolName) {
    EXPECT_NO_THROW(net::decode_hello(net::encode_hello()));
    for (const char* name : {"cuzc-wire-v0", "cuzc-wire-v1"}) {
        net::Writer w;
        w.str(name);
        EXPECT_THROW(net::decode_hello(w.view()), net::WireError) << name;
    }

    net::HelloAck ack;
    ack.max_frame_payload = 123;
    ack.max_inflight_per_connection = 7;
    const auto back = net::decode_hello_ack(net::encode_hello_ack(ack));
    EXPECT_EQ(back.max_frame_payload, 123u);
    EXPECT_EQ(back.max_inflight_per_connection, 7u);

    // The retired revision's ack: its name plus two limits, no stream cap.
    net::Writer v1_ack;
    v1_ack.str("cuzc-wire-v1");
    v1_ack.u64(123);
    v1_ack.u64(7);
    EXPECT_THROW((void)net::decode_hello_ack(v1_ack.view()), net::WireError);
}

// --- Loopback end-to-end ------------------------------------------------

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

TEST(NetServer, LoopbackAssessMatchesDirectBitForBit) {
    net::NetServer server(loopback_config());
    server.start();
    net::NetClient client(client_config(server.port()));
    EXPECT_GT(client.server_max_inflight(), 0u);

    auto req = make_request(21);
    const zc::AssessmentReport expected = direct_report(req);
    const auto resp = client.assess(req);
    EXPECT_FALSE(resp.rejected) << resp.error;
    EXPECT_EQ(net::encode_report(resp.result.report), net::encode_report(expected));
    client.close();
}

TEST(NetServer, OversizedSsimWindowIsAnsweredWithoutSsim) {
    // The wire accepts SSIM windows far beyond what the pattern-3 kernel's
    // shared memory holds; the server must answer with the other metrics
    // (and the same report as a direct assess) instead of overrunning it.
    net::NetServer server(loopback_config());
    server.start();
    net::NetClient client(client_config(server.port()));

    serve::AssessRequest req;
    req.orig = tst::smooth_field({32, 32, 32}, 12);
    req.dec = tst::perturbed(req.orig, 0.01, 112);
    req.cfg.ssim_window = 12;
    const zc::AssessmentReport expected = direct_report(req);
    const auto resp = client.assess(req);
    EXPECT_FALSE(resp.rejected) << resp.error;
    EXPECT_EQ(resp.result.report.ssim.windows, 0u);
    EXPECT_EQ(net::encode_report(resp.result.report), net::encode_report(expected));
    client.close();
}

TEST(NetServer, OversizedPdfBinsIsAnsweredWithoutPdfs) {
    // The wire accepts pdf_bins up to 2^20, far beyond what pattern 1's
    // block-local histograms hold in shared memory; the server must answer
    // with the reductions and empty PDFs (the same report as a direct
    // assess) instead of aborting.
    net::NetServer server(loopback_config());
    server.start();
    net::NetClient client(client_config(server.port()));

    for (const int bins : {2000, 1 << 20}) {
        auto req = make_request(23);
        req.cfg.pdf_bins = bins;
        const zc::AssessmentReport expected = direct_report(req);
        const auto resp = client.assess(req);
        EXPECT_FALSE(resp.rejected) << resp.error;
        EXPECT_TRUE(resp.result.report.reduction.err_pdf.empty()) << bins;
        EXPECT_TRUE(resp.result.report.reduction.pwr_err_pdf.empty()) << bins;
        EXPECT_EQ(resp.result.report.reduction.entropy, 0.0) << bins;
        EXPECT_GT(resp.result.report.reduction.psnr_db, 0.0) << bins;
        EXPECT_EQ(net::encode_report(resp.result.report), net::encode_report(expected)) << bins;
    }
    client.close();
}

TEST(NetServer, PipelinedRequestsSettleOutOfOrderWaits) {
    net::NetServer server(loopback_config());
    server.start();
    net::NetClient client(client_config(server.port()));

    std::vector<std::uint64_t> ids;
    std::vector<serve::AssessRequest> reqs;
    for (std::uint64_t s = 0; s < 6; ++s) reqs.push_back(make_request(100 + s));
    for (const auto& r : reqs) ids.push_back(client.submit(r));
    EXPECT_EQ(client.outstanding(), reqs.size());

    // Wait newest-first: responses for other ids must be retained.
    for (std::size_t i = ids.size(); i-- > 0;) {
        const auto resp = client.wait(ids[i]);
        EXPECT_FALSE(resp.rejected) << resp.error;
        EXPECT_EQ(net::encode_report(resp.result.report),
                  net::encode_report(direct_report(reqs[i])));
    }
    EXPECT_EQ(client.outstanding(), 0u);
}

TEST(NetServer, CacheHitBehindSlowMissIsDeliveredFirst) {
    // Responses leave in completion order: a cache hit submitted behind a
    // slow miss on the same connection does not wait for the miss.
    auto cfg = loopback_config();
    cfg.service.devices = 2;
    net::NetServer server(cfg);
    server.start();
    net::NetClient client(client_config(server.port()));

    const auto small = make_request(41);
    ASSERT_FALSE(client.assess(small).rejected);  // warm the cache

    serve::AssessRequest miss;
    miss.orig = tst::smooth_field({64, 64, 64}, 42);
    miss.dec = tst::perturbed(miss.orig, 0.01, 142);
    miss.cfg = zc::MetricsConfig::all();
    const std::uint64_t miss_id = client.submit(miss);
    const std::uint64_t hit_id = client.submit(small);

    std::optional<std::pair<std::uint64_t, serve::AssessResponse>> first;
    const auto t0 = std::chrono::steady_clock::now();
    while (!(first = client.take_response())) {
        ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(60));
        client.pump(0.05);
    }
    EXPECT_EQ(first->first, hit_id);
    EXPECT_TRUE(first->second.cache_hit);
    const auto slow = client.wait(miss_id);
    EXPECT_FALSE(slow.rejected) << slow.error;
    EXPECT_FALSE(slow.cache_hit);
}

TEST(NetServer, HostileSzStreamIsRejectedAndTheConnectionServesOn) {
    // SZ streams come off the wire and decode on a service worker: each
    // hostile one gets a rejected response, and the same connection then
    // serves a valid request.
    net::NetServer server(loopback_config());
    server.start();
    net::NetClient client(client_config(server.port()));

    const auto valid = make_request(31);
    const auto expected = net::encode_report(direct_report(valid));
    const std::vector<std::vector<std::uint8_t>> hostile = {
        {0x43, 0x53, 0x5a, 0x43},  // the magic and nothing else
        // No code matches a 1 bit.
        tst::one_symbol_sz_stream(kDims, std::vector<std::uint8_t>(kDims.volume() / 8 + 1, 0xFF)),
        // More elements than the one payload byte can code.
        tst::one_symbol_sz_stream(kDims, {0x00}),
        // A shape whose volume wraps to 0.
        tst::one_symbol_sz_stream({1ull << 32, 1ull << 32, 1}, {0x00}),
    };
    for (const auto& bytes : hostile) {
        serve::AssessRequest req;
        req.orig = valid.orig;
        req.cfg = valid.cfg;
        req.sz_stream = bytes;
        const auto resp = client.assess(req);
        EXPECT_TRUE(resp.rejected);
        EXPECT_NE(resp.error.find("SZ stream"), std::string::npos) << resp.error;

        const auto ok = client.assess(valid);
        EXPECT_FALSE(ok.rejected) << ok.error;
        EXPECT_EQ(net::encode_report(ok.result.report), expected);
    }
    const auto tele = server.telemetry();
    EXPECT_EQ(tele.requests_completed, 2 * hostile.size());
    EXPECT_EQ(tele.frames_rejected, 0u);
}

TEST(NetServer, InflightCapBackpressureStillCompletesEverything) {
    auto cfg = loopback_config();
    cfg.max_inflight_per_connection = 2;  // force the POLLIN-drop path
    net::NetServer server(cfg);
    server.start();
    net::NetClient client(client_config(server.port()));

    std::vector<std::uint64_t> ids;
    for (std::uint64_t s = 0; s < 12; ++s) ids.push_back(client.submit(make_request(s % 3)));
    for (const auto id : ids) {
        const auto resp = client.wait(id);
        EXPECT_FALSE(resp.rejected) << resp.error;
    }
    const auto tele = server.telemetry();
    EXPECT_EQ(tele.requests_accepted, ids.size());
    EXPECT_EQ(tele.requests_completed, ids.size());
    EXPECT_EQ(tele.requests_failed, 0u);
    EXPECT_EQ(tele.requests_in_flight, 0u);
}

TEST(NetServer, FrameLargerThanReadBufferStillCompletes) {
    // A valid request frame bigger than max_read_buffer (but inside the
    // advertised max_frame_payload) must finish assembling: the read gate
    // stays open while the in-limit head frame needs more bytes.
    // Regression: the gate used to drop POLLIN permanently at the soft cap,
    // wedging the connection with the payload half-buffered.
    auto cfg = loopback_config();
    cfg.max_read_buffer = 4096;
    net::NetServer server(cfg);
    server.start();
    auto ccfg = client_config(server.port());
    ccfg.response_timeout_s = 30.0;
    net::NetClient client(ccfg);

    serve::AssessRequest req;
    const zc::Dims3 big{32, 32, 32};  // ~256 KiB frame payload
    req.orig = tst::smooth_field(big, 77);
    req.dec = tst::perturbed(req.orig, 0.01, 177);
    req.cfg.ssim_window = 4;
    const zc::AssessmentReport expected = direct_report(req);

    const auto resp = client.assess(req);
    EXPECT_FALSE(resp.rejected) << resp.error;
    EXPECT_EQ(net::encode_report(resp.result.report), net::encode_report(expected));

    const auto tele = server.telemetry();
    EXPECT_EQ(tele.requests_accepted, 1u);
    EXPECT_EQ(tele.requests_completed, 1u);
    EXPECT_GT(tele.bytes_rx, cfg.max_read_buffer);
}

TEST(NetServer, ConcurrentClientsEachGetTheirOwnAnswers) {
    net::NetServer server(loopback_config());
    server.start();
    const std::uint16_t port = server.port();

    constexpr int kClients = 3, kPerClient = 4;
    std::vector<std::thread> threads;
    std::vector<std::string> errors(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([c, port, &errors] {
            try {
                net::NetClient client(client_config(port));
                for (int i = 0; i < kPerClient; ++i) {
                    auto req = make_request(static_cast<std::uint64_t>(c * 100 + i));
                    const auto expected = net::encode_report(direct_report(req));
                    const auto resp = client.assess(req);
                    if (resp.rejected) throw std::runtime_error(resp.error);
                    if (net::encode_report(resp.result.report) != expected)
                        throw std::runtime_error("report mismatch");
                }
            } catch (const std::exception& e) {
                errors[static_cast<std::size_t>(c)] = e.what();
            }
        });
    }
    for (auto& t : threads) t.join();
    for (const auto& e : errors) EXPECT_TRUE(e.empty()) << e;

    const auto tele = server.telemetry();
    EXPECT_EQ(tele.requests_accepted, static_cast<std::uint64_t>(kClients * kPerClient));
    EXPECT_EQ(tele.requests_accepted,
              tele.requests_completed + tele.requests_failed + tele.requests_in_flight);
}

TEST(NetServer, DrainWhileInflightSettlesEveryAcceptedRequest) {
    net::NetServer server(loopback_config());
    server.start();
    net::NetClient client(client_config(server.port()));

    constexpr std::size_t kN = 8;
    std::vector<std::uint64_t> ids;
    for (std::uint64_t s = 0; s < kN; ++s) ids.push_back(client.submit(make_request(200 + s)));
    client.pump(0.0);  // flush the submit burst to the socket

    // Wait until the server has decoded + admitted every request, so the
    // drain genuinely races in-flight work rather than unread bytes.
    while (server.telemetry().requests_accepted < kN) client.pump(0.001);
    server.shutdown();

    // Drain semantics: every accepted request is settled and its response
    // flushed before the listener closes.
    for (const auto id : ids) {
        const auto resp = client.wait(id);
        EXPECT_FALSE(resp.rejected) << resp.error;
    }
    const auto tele = server.telemetry();
    EXPECT_EQ(tele.requests_accepted, kN);
    EXPECT_EQ(tele.requests_completed, kN);
    EXPECT_EQ(tele.requests_in_flight, 0u);
}

/// Raw TCP connect to the loopback server (no Hello), or -1.
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

/// True when the peer cleanly closed the stream (EOF without data) within
/// `timeout_ms`.
bool peer_closed(int fd, int timeout_ms) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) != 1) return false;
    char buf[64];
    return ::recv(fd, buf, sizeof(buf), 0) == 0;
}

TEST(NetClient, DuplicateSettleForAnIdIsDroppedNotDoubleCounted) {
    // Found by the session fuzz sweep: a server that (buggily or
    // maliciously) settles the same request id twice used to double-push
    // the client's take_response() order queue. The second entry then had
    // no response behind it, so the canonical `while (take_response())`
    // drain loop stopped early and stranded every later response. The
    // client must keep the first settle and drop the repeat.
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::listen(lfd, 1), 0);
    socklen_t alen = sizeof(addr);
    ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
    const std::uint16_t port = ntohs(addr.sin_port);

    // A hand-rolled peer speaking just enough of the protocol: ack the
    // hello, then answer every request — the first one twice.
    std::thread peer([lfd] {
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) return;
        const auto send_all = [fd](std::span<const std::uint8_t> bytes) {
            std::size_t off = 0;
            while (off < bytes.size()) {
                const ssize_t n =
                    ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
                if (n <= 0) return;
                off += static_cast<std::size_t>(n);
            }
        };
        net::FrameAssembler frames(64ull << 20);
        std::uint8_t buf[4096];
        bool first_request = true;
        int served = 0;
        while (served < 2) {
            auto res = frames.next_view();
            if (res.status == net::FrameAssembler::Status::kNeedMore) {
                const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
                if (n <= 0) break;
                frames.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
                continue;
            }
            if (res.status != net::FrameAssembler::Status::kFrame) break;
            const auto type = static_cast<net::FrameType>(res.header.type);
            if (type == net::FrameType::kHello) {
                net::decode_hello(res.view);
                net::HelloAck ack;
                ack.max_frame_payload = 64ull << 20;
                ack.max_inflight_per_connection = 8;
                send_all(net::encode_frame(net::FrameType::kHelloAck, 0,
                                           net::encode_hello_ack(ack)));
            } else if (type == net::FrameType::kRequest) {
                serve::AssessResponse resp;
                const auto frame = net::encode_response_frame(resp, res.header.request_id);
                send_all(frame);
                if (first_request) {
                    send_all(frame);  // the duplicate settle under test
                    first_request = false;
                }
                ++served;
            }
        }
        // Hold the connection open until the client hangs up, so its
        // pumps see responses rather than a premature EOF.
        while (::recv(fd, buf, sizeof(buf), 0) > 0) {
        }
        ::close(fd);
    });

    try {
        net::NetClientConfig ccfg;
        ccfg.port = port;
        net::NetClient client(ccfg);
        const auto id1 = client.submit(make_request(1));
        const auto id2 = client.submit(make_request(2));
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (client.outstanding() > 0 && std::chrono::steady_clock::now() < deadline) {
            client.pump(0.01);
        }
        // The duplicate precedes id2's settle on the wire, so give the
        // socket a little extra pumping to make sure every sent frame is in.
        for (int i = 0; i < 20; ++i) client.pump(0.005);

        std::vector<std::uint64_t> drained;
        while (const auto r = client.take_response()) drained.push_back(r->first);
        ASSERT_EQ(drained.size(), 2u) << "phantom order entry truncated the drain";
        EXPECT_EQ(drained[0], id1);
        EXPECT_EQ(drained[1], id2);
        EXPECT_EQ(client.outstanding(), 0u);
    } catch (const std::exception& e) {
        ADD_FAILURE() << "client threw: " << e.what();
    }
    peer.join();
    ::close(lfd);
}

TEST(NetServer, HandshakeTimeoutClosesSilentConnections) {
    auto cfg = loopback_config();
    cfg.handshake_timeout_s = 0.05;
    net::NetServer server(cfg);
    server.start();

    const int fd = raw_connect(server.port());
    ASSERT_GE(fd, 0);
    // Say nothing; the server must hang up within the timeout (+ slack).
    EXPECT_TRUE(peer_closed(fd, 5000)) << "server never closed the silent connection";
    ::close(fd);
}

TEST(NetServer, PreHandshakeOversizeFrameClosesWithoutResponse) {
    // Integrity violations before the Hello handshake are treated like any
    // other pre-Hello protocol violation: the connection is closed, no
    // Response frame is sent to a peer that never handshook.
    auto cfg = loopback_config();
    cfg.max_frame_payload = 1024;
    cfg.handshake_timeout_s = 30.0;  // the close must come from the frame
    net::NetServer server(cfg);
    server.start();

    const int fd = raw_connect(server.port());
    ASSERT_GE(fd, 0);
    const std::vector<std::uint8_t> big(2048, 0x11);  // over the 1 KiB limit
    const auto frame = net::encode_frame(net::FrameType::kRequest, 1, big);
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    EXPECT_TRUE(peer_closed(fd, 5000)) << "expected a close, not a reject frame";
    ::close(fd);
    EXPECT_GE(server.telemetry().frames_rejected, 1u);
}

TEST(NetServer, PreHandshakeCorruptFrameClosesWithoutResponse) {
    auto cfg = loopback_config();
    cfg.handshake_timeout_s = 30.0;
    net::NetServer server(cfg);
    server.start();

    const int fd = raw_connect(server.port());
    ASSERT_GE(fd, 0);
    const std::vector<std::uint8_t> payload(64, 0x22);
    auto frame = net::encode_frame(net::FrameType::kHello, 0, payload);
    frame.back() ^= 0xFF;  // corrupt the payload after checksumming
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    EXPECT_TRUE(peer_closed(fd, 5000)) << "expected a close, not a reject frame";
    ::close(fd);
    EXPECT_GE(server.telemetry().frames_rejected, 1u);
}

TEST(NetServer, TelemetryReconcilesUnderFaultInjection) {
    auto cfg = loopback_config();
    cfg.service.faults = vgpu::FaultPlan::parse("seed=7,kernel=0.3,max=6");
    cfg.service.max_retries = 1;  // let some requests exhaust retries -> rejected
    net::NetServer server(cfg);
    server.start();
    net::NetClient client(client_config(server.port()));

    serve::TraceGenConfig gen;
    gen.requests = 24;
    gen.distinct = 6;
    const auto trace = serve::generate_trace(gen);
    std::vector<std::uint64_t> ids;
    for (const auto& e : trace) ids.push_back(client.submit(serve::to_request(e)));

    std::uint64_t rejected = 0;
    for (const auto id : ids) rejected += client.wait(id).rejected;

    const auto tele = server.telemetry();
    EXPECT_EQ(tele.requests_accepted, trace.size());
    EXPECT_EQ(tele.requests_accepted,
              tele.requests_completed + tele.requests_failed + tele.requests_in_flight);
    EXPECT_EQ(tele.requests_in_flight, 0u);
    EXPECT_EQ(tele.requests_failed, 0u);  // the client stayed connected
    EXPECT_GE(tele.frames_rx, trace.size() + 1);  // requests + Hello
    EXPECT_GE(tele.frames_tx, trace.size() + 1);  // responses + HelloAck
    EXPECT_GT(tele.bytes_rx, 0u);
    EXPECT_GT(tele.bytes_tx, 0u);

    // Wire rejections (if the fault plan produced any) surface as served
    // responses with rejected=true, not as dropped frames.
    const auto stele = server.service_telemetry();
    EXPECT_EQ(stele.queued, trace.size());
    EXPECT_EQ(stele.served + stele.rejected, stele.queued);
    EXPECT_EQ(stele.rejected, rejected);
}

TEST(NetServer, TelemetryJsonCarriesWireSchema) {
    net::NetServer server(loopback_config());
    server.start();
    {
        net::NetClient client(client_config(server.port()));
        (void)client.assess(make_request(31));
    }
    const auto tele = server.telemetry();
    std::ostringstream json;
    json << tele.json();
    const std::string s = json.str();
    EXPECT_NE(s.find("\"schema\": \"cuzc-wire-v2\""), std::string::npos);
    EXPECT_NE(s.find("\"requests_accepted\": 1"), std::string::npos);
    EXPECT_NE(s.find("\"frames_rejected\": 0"), std::string::npos);
    EXPECT_NE(s.find("\"streams_opened\": 0"), std::string::npos);
    EXPECT_NE(s.find("\"data_plane\": {"), std::string::npos);
    EXPECT_NE(s.find("\"bytes_copied\": "), std::string::npos);
}

// --- Zero-copy data plane -----------------------------------------------
// Aliased-buffer lifetime scenarios (run under ASan/TSan in CI): payload
// views handed to workers must survive the connection, the stream, and the
// ingest buffer that produced them.

TEST(NetWire, ReaderRejectsElementCountsWhoseByteSizeWraps) {
    // Regression for the 32-bit narrowing hole: an f32 run declaring
    // 2^62 + 2 elements (n * sizeof(float) wraps to 8) and a byte run
    // declaring 2^32 + 7 bytes (size_t truncates to 7) must both throw,
    // not alias past the payload. Patch a valid request payload in place.
    serve::AssessRequest victim;
    const zc::Dims3 dims{2, 2, 2};
    victim.orig = tst::smooth_field(dims, 1);
    victim.dec = tst::smooth_field(dims, 2);
    const std::vector<std::uint8_t> payload = net::encode_request(victim);
    const std::size_t span_bytes = 8 + dims.volume() * sizeof(float);
    const std::size_t cfg_bytes = payload.size() - 24 - 8 - 4 - 2 * span_bytes - 8;
    const auto poke_u64 = [](std::vector<std::uint8_t>& buf, std::size_t off,
                             std::uint64_t v) {
        for (std::size_t i = 0; i < 8; ++i) {
            buf[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
    };
    auto overcount = payload;
    poke_u64(overcount, 24 + cfg_bytes + 8 + 4, 0x4000000000000002ull);
    EXPECT_THROW((void)net::decode_request_view(overcount, zc::SlabHandle{}), net::WireError);
    auto overbytes = payload;
    poke_u64(overbytes, overbytes.size() - 8, (1ull << 32) + 7);
    EXPECT_THROW((void)net::decode_request_view(overbytes, zc::SlabHandle{}), net::WireError);
}

TEST(NetDataPlane, DecodeRequestViewAliasesTheIngestSlab) {
    const auto frame = net::encode_request_frame(make_request(41), 1);
    net::FrameAssembler asm_(1 << 20);
    asm_.feed(frame);
    auto res = asm_.next_view();
    ASSERT_EQ(res.status, net::FrameAssembler::Status::kFrame);
    ASSERT_TRUE(res.slab);

    zc::reset_data_plane_stats();
    const auto req = net::decode_request_view(res.view, res.slab);
    const auto* base = reinterpret_cast<const float*>(res.slab.data());
    const auto* end = base + res.slab.capacity() / sizeof(float);
    // Both fields alias storage inside the assembler's slab — no copy.
    EXPECT_GE(req.orig.data().data(), base);
    EXPECT_LT(req.orig.data().data(), end);
    EXPECT_GE(req.dec.data().data(), base);
    EXPECT_LT(req.dec.data().data(), end);
    EXPECT_EQ(zc::data_plane_stats().bytes_copied, 0u);

    // The views pin the slab: even after the assembler moves on, the
    // decoded payload bytes stay valid and correct.
    const auto expected = make_request(41);
    res.slab.reset();
    asm_.feed(frame);  // may trigger compaction/migration internally
    EXPECT_TRUE(std::equal(req.orig.data().begin(), req.orig.data().end(),
                           expected.orig.data().begin()));
    EXPECT_TRUE(std::equal(req.dec.data().begin(), req.dec.data().end(),
                           expected.dec.data().begin()));
}

TEST(NetDataPlane, ConnectionTeardownWhileWorkerHoldsPayloadViews) {
    net::NetServer server(loopback_config());
    server.start();
    {
        net::NetClient client(client_config(server.port()));
        for (std::uint64_t s = 0; s < 4; ++s) (void)client.submit(make_request(300 + s));
        client.pump(0.0);  // flush the burst
        // Leave as soon as the server owns the requests; the client (and
        // its connection) die here while workers still hold payload views
        // into the connection's ingest slabs.
        while (server.telemetry().requests_accepted < 4) client.pump(0.001);
    }
    server.shutdown();  // drain settles the in-flight work without a reader
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server.telemetry().requests_in_flight > 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const auto tele = server.telemetry();
    EXPECT_EQ(tele.requests_accepted, 4u);
    EXPECT_EQ(tele.requests_accepted, tele.requests_completed + tele.requests_failed);
    EXPECT_EQ(tele.requests_in_flight, 0u);
}

TEST(NetDataPlane, StreamAbortAndDisconnectWhileChunksInFlight) {
    auto scfg = loopback_config();
    net::NetServer server(scfg);
    server.start();
    {
        net::NetClient client(client_config(server.port()));
        zc::MetricsConfig cfg;
        cfg.pattern2 = false;
        cfg.pattern3 = false;
        const zc::Dims3 dims{4, 4, 16};
        const zc::Field orig = tst::smooth_field(dims, 91);
        const zc::Field dec = tst::perturbed(orig, 0.01, 191);
        const auto id = client.stream_begin(dims, cfg, 4);
        client.stream_feed(id, orig.data().subspan(0, 64), dec.data().subspan(0, 64));
        client.pump(0.0);
        // Abort mid-stream, then drop the connection: the assessor's
        // chunk views must not dangle into the dead connection's buffers.
        client.stream_abort(id);
        client.pump(0.0);
        while (server.telemetry().streams_aborted < 1) client.pump(0.001);
    }
    server.shutdown();
    const auto tele = server.telemetry();
    EXPECT_EQ(tele.streams_opened, 1u);
    EXPECT_EQ(tele.streams_aborted, 1u);
    EXPECT_EQ(tele.requests_in_flight, 0u);
}

TEST(NetDataPlane, CacheEntryOutlivesOriginatingConnection) {
    net::NetServer server(loopback_config());
    server.start();
    serve::AssessResponse first;
    {
        net::NetClient client(client_config(server.port()));
        first = client.assess(make_request(55));
        ASSERT_FALSE(first.rejected) << first.error;
    }  // connection (and its ingest slabs) torn down here
    {
        net::NetClient client(client_config(server.port()));
        const auto second = client.assess(make_request(55));
        ASSERT_FALSE(second.rejected) << second.error;
        EXPECT_TRUE(second.cache_hit);
        EXPECT_EQ(net::encode_report(second.result.report),
                  net::encode_report(first.result.report));
    }
}

TEST(NetDataPlane, LoopbackRequestsAdoptInsteadOfCopying) {
    net::NetServer server(loopback_config());
    server.start();
    net::NetClient client(client_config(server.port()));
    zc::reset_data_plane_stats();
    const auto resp = client.assess(make_request(61));
    EXPECT_FALSE(resp.rejected) << resp.error;
    const auto tele = server.telemetry();
    // Both fields were decoded in place and adopted by the device buffers.
    EXPECT_GE(tele.data_plane.adoptions, 2u);
    // No field-payload-sized copy happened anywhere on the serve path.
    EXPECT_LT(tele.data_plane.bytes_copied, kDims.volume() * sizeof(float));
}

}  // namespace

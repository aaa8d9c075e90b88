// Stream-session state-machine fuzzing over a real socket. Each iteration
// synthesizes a byte script — a mix of well-formed request and stream
// frame sequences, protocol misuse (out-of-sequence chunks, id reuse,
// orphan ends, a Hello naming a retired protocol), raw garbage, and blind
// mutations — plays it against a live NetServer through
// a loopback connection, and checks the server-side invariants that must
// survive ANY input: the process answers only well-formed frames, a
// reject-settled stream id stays dead, the connection ledger reconciles,
// and the server drains to idle once the client disconnects (no leaked
// streams or in-flight requests).
//
// The script IS the reproducer: replay feeds the same bytes through the
// same engine, so minimized findings land in the corpus as regressions.

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/fuzz.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/rng.hpp"
#include "io/json.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "serve/request.hpp"
#include "zc/tensor.hpp"

namespace cuzc::fuzz {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kPayloadCap = 8ull << 20;

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

/// Rejected responses that do NOT settle an open stream (connection-level
/// refusals): a later success on the same id is legal after these. Every
/// abort_stream_rejected() message is absent from this list, so a
/// rejection not matching it marks the id as retired on this connection.
/// "bad stream-end frame" is deliberately here although one of its two
/// paths settles — the classification must never fabricate a finding.
bool is_non_settling_rejection(const std::string& error) {
    static const char* const kPrefixes[] = {
        "oversized frame",
        "frame checksum mismatch",
        "bad request frame",
        "bad stream-begin frame",
        "stream id already open",
        "per-connection stream limit",
        "stream-end for an unknown stream",
        "bad stream-end frame",
    };
    for (const char* p : kPrefixes) {
        if (error.rfind(p, 0) == 0) return true;
    }
    return false;
}

struct ScriptIds {
    std::set<std::uint64_t> streams;   ///< ids seen on kStreamBegin frames
    std::set<std::uint64_t> requests;  ///< ids seen on kRequest frames
};

/// Pre-scan the script with an assembler to learn which ids the engine may
/// treat as unambiguous stream ids (not also used by a whole-frame request,
/// whose service-level rejections share the response id space).
ScriptIds scan_script(std::span<const std::uint8_t> script) {
    ScriptIds ids;
    net::FrameAssembler pre(kPayloadCap);
    pre.feed(script);
    for (;;) {
        const auto r = pre.next_view();
        if (r.status == net::FrameAssembler::Status::kNeedMore) break;
        if (r.status == net::FrameAssembler::Status::kBadMagic ||
            r.status == net::FrameAssembler::Status::kBadVersion) {
            break;  // the server closes here; later frames never arrive
        }
        if (r.status != net::FrameAssembler::Status::kFrame) continue;
        if (r.header.type == static_cast<std::uint16_t>(net::FrameType::kStreamBegin)) {
            ids.streams.insert(r.header.request_id);
        }
        if (r.header.type == static_cast<std::uint16_t>(net::FrameType::kRequest)) {
            ids.requests.insert(r.header.request_id);
        }
    }
    return ids;
}

/// Play `script` against a fresh server and enforce the session invariants.
/// Throws FuzzFailure (carrying the script) on any violation.
void run_session_script(std::span<const std::uint8_t> script) {
    const std::vector<std::uint8_t> repro(script.begin(), script.end());
    auto fail = [&](const std::string& what) {
        throw FuzzFailure("session: " + what, repro, Oracle::kInvariant);
    };

    const ScriptIds ids = scan_script(script);

    net::NetServerConfig cfg;
    cfg.service.cache_capacity = 8;
    net::NetServer server(cfg);
    server.start();

    const int fd = raw_connect(server.port());
    if (fd < 0) fail("could not connect to the loopback server");

    net::FrameAssembler rx(64ull << 20);
    std::map<std::uint64_t, bool> stream_retired;
    bool peer_eof = false;

    // Decode one server frame; anything malformed coming OUT of the server
    // is itself the finding.
    auto handle_frame = [&](const net::FrameAssembler::Result& r) {
        switch (r.status) {
            case net::FrameAssembler::Status::kFrame: break;
            case net::FrameAssembler::Status::kNeedMore: return;
            default: fail("server emitted an unparsable frame");
        }
        if (r.header.type == static_cast<std::uint16_t>(net::FrameType::kHelloAck)) {
            try {
                (void)net::decode_hello_ack(r.view);
            } catch (const net::WireError& e) {
                fail(std::string("server hello-ack does not decode: ") + e.what());
            }
            return;
        }
        if (r.header.type != static_cast<std::uint16_t>(net::FrameType::kResponse)) {
            fail("server sent an unexpected frame type " + std::to_string(r.header.type));
        }
        serve::AssessResponse resp;
        try {
            resp = net::decode_response(r.view);
        } catch (const net::WireError& e) {
            fail(std::string("server response does not decode: ") + e.what());
        }
        const std::uint64_t id = r.header.request_id;
        if (ids.streams.count(id) == 0 || ids.requests.count(id) != 0) return;
        const auto it = stream_retired.emplace(id, false).first;
        if (it->second && !resp.rejected) {
            fail("stream id " + std::to_string(id) +
                 " settled successfully after a rejected settle (resurrected stream)");
        }
        if (resp.rejected && !is_non_settling_rejection(resp.error)) it->second = true;
    };

    auto drain = [&](int timeout_ms) {
        for (;;) {
            auto r = rx.next_view();
            while (r.status != net::FrameAssembler::Status::kNeedMore) {
                handle_frame(r);
                r = rx.next_view();
            }
            if (peer_eof) return;
            pollfd p{fd, POLLIN, 0};
            if (::poll(&p, 1, timeout_ms) != 1) return;
            std::uint8_t buf[4096];
            const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n <= 0) {
                peer_eof = true;
                return;
            }
            rx.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
            timeout_ms = 0;  // keep draining whatever is already queued
        }
    };

    // Send the script in a split schedule derived from its content, so a
    // campaign finding and its corpus replay hit the same read boundaries.
    Rng split_rng(net::fnv1a64(script) | 1);
    std::size_t off = 0;
    bool send_alive = true;
    while (off < script.size() && send_alive) {
        const std::size_t n =
            std::min<std::size_t>(script.size() - off, split_rng.range(1, 512));
        std::size_t sent = 0;
        while (sent < n) {
            const ssize_t w =
                ::send(fd, script.data() + off + sent, n - sent, MSG_NOSIGNAL);
            if (w <= 0) {
                send_alive = false;  // server closed on us: legal, keep checking
                break;
            }
            sent += static_cast<std::size_t>(w);
        }
        off += sent;
        drain(0);
    }

    // Collect the tail of responses until the line goes quiet.
    const auto read_deadline = Clock::now() + std::chrono::seconds(5);
    while (!peer_eof && Clock::now() < read_deadline) {
        const std::size_t before = rx.buffered();
        drain(150);
        if (rx.buffered() == before) break;
    }
    ::close(fd);

    // Disconnect must drain the server to idle: no leaked connections,
    // streams, or in-flight requests, no matter what the script did.
    const auto idle_deadline = Clock::now() + std::chrono::seconds(5);
    serve::NetTelemetry t;
    for (;;) {
        t = server.telemetry();
        if (t.connections_active == 0 && t.requests_in_flight == 0) break;
        if (Clock::now() >= idle_deadline) {
            fail("server wedged after disconnect: connections_active=" +
                 std::to_string(t.connections_active) + " requests_in_flight=" +
                 std::to_string(t.requests_in_flight));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!t.reconciles()) {
        std::ostringstream ledger;
        ledger << t.json();
        fail("server telemetry does not reconcile: " + ledger.str());
    }
    // ~NetServer drains and joins the loop thread.
}

// --- Script synthesis ---------------------------------------------------

void append(std::vector<std::uint8_t>& script, std::vector<std::uint8_t> frame) {
    script.insert(script.end(), std::make_move_iterator(frame.begin()),
                  std::make_move_iterator(frame.end()));
}

net::StreamBegin valid_begin(const zc::Dims3& dims, std::uint64_t chunks) {
    net::StreamBegin sb;
    sb.dims = dims;
    sb.cfg.pattern2 = false;
    sb.cfg.pattern3 = false;
    sb.cfg.pdf_bins = 16;
    sb.chunks = chunks;
    sb.total_bytes = dims.volume() * 2 * sizeof(float);
    return sb;
}

void append_begin(std::vector<std::uint8_t>& script, std::uint64_t sid,
                  const net::StreamBegin& sb) {
    append(script, net::encode_frame(net::FrameType::kStreamBegin, sid,
                                     net::encode_stream_begin(sb), net::kVersionStreaming));
}

void append_chunk(std::vector<std::uint8_t>& script, std::uint64_t sid, std::uint64_t seq,
                  std::span<const float> orig, std::span<const float> dec) {
    append(script, net::encode_stream_chunk_frame(sid, seq, orig, dec));
}

void append_end(std::vector<std::uint8_t>& script, std::uint64_t sid,
                std::uint64_t chunks, std::uint64_t elements) {
    net::StreamEnd se;
    se.chunks = chunks;
    se.elements = elements;
    append(script, net::encode_frame(net::FrameType::kStreamEnd, sid,
                                     net::encode_stream_end(se), net::kVersionStreaming));
}

std::vector<float> ramp(std::size_t n, float base) {
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = base + static_cast<float>(i) * 0.25f;
    return v;
}

std::vector<std::uint8_t> synthesize_script(Rng& rng) {
    std::vector<std::uint8_t> script;
    const double hello_roll = rng.unit();
    if (hello_roll < 0.85) {
        append(script, net::encode_frame(net::FrameType::kHello, 0, net::encode_hello()));
    } else if (hello_roll < 0.95) {
        // A Hello naming the retired revision: refused, connection closed.
        net::Writer retired;
        retired.str("cuzc-wire-v1");
        append(script, net::encode_frame(net::FrameType::kHello, 0, retired.view()));
    }  // else: no handshake at all — the server must still clean up

    const zc::Dims3 dims{2, 2, 4};
    const std::size_t half = dims.volume() / 2;
    const auto lo = ramp(half, 1.0f);
    const auto hi = ramp(half, 3.0f);

    const std::uint64_t actions = rng.range(2, 7);
    for (std::uint64_t a = 0; a < actions; ++a) {
        const std::uint64_t sid = rng.range(1, 3);
        switch (rng.below(8)) {
            case 0: {  // complete valid stream
                append_begin(script, sid, valid_begin(dims, 2));
                append_chunk(script, sid, 0, lo, lo);
                append_chunk(script, sid, 1, hi, hi);
                append_end(script, sid, 2, dims.volume());
                break;
            }
            case 1: {  // invalid begin declaration -> connection-level reject
                auto sb = valid_begin(dims, 2);
                if (rng.chance(0.5)) {
                    sb.chunks = rng.chance(0.5) ? 0 : dims.volume() + 1;
                } else {
                    sb.cfg.pdf_bins = 0x7fffffff;  // resource bomb
                }
                append_begin(script, sid, sb);
                break;
            }
            case 2: {  // out-of-sequence chunk -> reject-settles the stream
                append_begin(script, sid, valid_begin(dims, 2));
                append_chunk(script, sid, 1, lo, lo);
                break;
            }
            case 3: {  // abort mid-stream
                append_begin(script, sid, valid_begin(dims, 2));
                append_chunk(script, sid, 0, lo, lo);
                append(script, net::encode_frame(net::FrameType::kStreamAbort, sid, {},
                                                 net::kVersionStreaming));
                break;
            }
            case 4: {  // stream left open -> disconnect cleanup path
                append_begin(script, sid, valid_begin(dims, 2));
                append_chunk(script, sid, 0, lo, lo);
                break;
            }
            case 5: {  // plain whole-frame request rides along
                serve::AssessRequest req;
                req.orig = zc::Field(zc::Dims3{1, 2, 4});
                req.dec = req.orig;
                req.cfg.pattern2 = false;
                req.cfg.pattern3 = false;
                req.cfg.pdf_bins = 8;
                append(script, net::encode_request_frame(req, 100 + a));
                break;
            }
            case 6: {  // orphan end/chunk for a stream never begun
                if (rng.chance(0.5)) {
                    append_end(script, sid, 1, half);
                } else {
                    append_chunk(script, sid, 0, lo, lo);
                }
                break;
            }
            case 7: {  // raw garbage: desynchronizes the connection
                std::vector<std::uint8_t> junk(rng.range(1, 24));
                for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
                append(script, std::move(junk));
                break;
            }
        }
    }
    if (rng.chance(0.25) && !script.empty()) mutate_bytes(script, rng, 3);
    return script;
}

void session_iterate(std::uint64_t seed, std::uint64_t iter) {
    Rng rng(mix_seed(seed, iter, 0x73657373));  // "sess"
    const auto script = synthesize_script(rng);
    try {
        run_session_script(script);
    } catch (const FuzzFailure&) {
        throw;
    } catch (const std::exception& e) {
        throw FuzzFailure(std::string("session engine threw: ") + e.what(), script,
                          Oracle::kInvariant);
    }
}

void session_replay(std::span<const std::uint8_t> bytes, Oracle /*oracle*/) {
    // Every corpus entry is an invariant script: the engine throws on any
    // violation regardless of the filename prefix.
    run_session_script(bytes);
}

void session_corpus(CorpusWriter& w) {
    // The resurrected-stream bug: settle id 1 rejected (zero-chunk begin),
    // then reuse it for a fully valid stream. A server without retire
    // tracking accepts the second incarnation and settles it successfully.
    {
        std::vector<std::uint8_t> script;
        append(script, net::encode_frame(net::FrameType::kHello, 0, net::encode_hello()));
        const zc::Dims3 dims{2, 2, 4};
        auto bad = valid_begin(dims, 2);
        bad.chunks = 0;
        append_begin(script, 1, bad);
        // Reject-settle via protocol misuse on an OPEN stream: out-of-seq.
        append_begin(script, 1, valid_begin(dims, 2));
        append_chunk(script, 1, 1, ramp(8, 1.0f), ramp(8, 1.0f));
        // Reuse after the rejected settle: must stay rejected.
        append_begin(script, 1, valid_begin(dims, 2));
        append_chunk(script, 1, 0, ramp(8, 1.0f), ramp(8, 1.0f));
        append_chunk(script, 1, 1, ramp(8, 3.0f), ramp(8, 3.0f));
        append_end(script, 1, 2, dims.volume());
        w.add("reuse-after-reject-settle.bin", Oracle::kInvariant, script);
    }
    // The pdf-bins resource bomb inside a StreamBegin: the server must
    // reject the declaration instead of allocating 2^31 histogram bins.
    {
        std::vector<std::uint8_t> script;
        append(script, net::encode_frame(net::FrameType::kHello, 0, net::encode_hello()));
        auto sb = valid_begin(zc::Dims3{2, 2, 4}, 2);
        sb.cfg.pdf_bins = 0x7fffffff;
        append_begin(script, 1, sb);
        append_chunk(script, 1, 0, ramp(8, 1.0f), ramp(8, 1.0f));
        append_chunk(script, 1, 1, ramp(8, 3.0f), ramp(8, 3.0f));
        append_end(script, 1, 2, 16);
        w.add("streambegin-pdfbins-bomb.bin", Oracle::kInvariant, script);
    }
}

}  // namespace

void register_session_targets() {
    register_target(Target{
        "session",
        "live NetServer vs synthesized client scripts over a raw socket: no crash, no "
        "resurrected streams, ledger reconciles, drains to idle on disconnect",
        session_iterate,
        session_replay,
        session_corpus,
    });
}

}  // namespace cuzc::fuzz

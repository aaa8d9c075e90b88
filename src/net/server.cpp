#include "server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "wire.hpp"
#include "zc/streaming.hpp"

namespace cuzc::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

struct NetServer::Impl {
    /// Self-pipe that interrupts poll() when a completion is posted (and on
    /// shutdown).
    struct WakePipe {
        int r = -1, w = -1;
        WakePipe() {
            int fds[2] = {-1, -1};
            if (::pipe(fds) != 0) throw std::runtime_error("net: pipe() failed");
            r = fds[0];
            w = fds[1];
            set_nonblocking(r);
            set_nonblocking(w);
        }
        ~WakePipe() {
            if (r >= 0) ::close(r);
            if (w >= 0) ::close(w);
        }
    };

    explicit Impl(NetServerConfig c) : cfg(std::move(c)), service(cfg.service) {
        listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd < 0) throw std::runtime_error("net: socket() failed");
        const int one = 1;
        ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(cfg.port);
        if (::inet_pton(AF_INET, cfg.bind_address.c_str(), &addr.sin_addr) != 1) {
            ::close(listen_fd);
            throw std::runtime_error("net: bad bind address '" + cfg.bind_address + "'");
        }
        if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
            ::listen(listen_fd, 64) != 0) {
            const std::string why = std::strerror(errno);
            ::close(listen_fd);
            listen_fd = -1;
            throw std::runtime_error("net: cannot listen on " + cfg.bind_address + ":" +
                                     std::to_string(cfg.port) + " (" + why + ")");
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
        bound_port = ntohs(bound.sin_port);
        set_nonblocking(listen_fd);
    }

    ~Impl() {
        if (listen_fd >= 0) ::close(listen_fd);
        for (auto& [id, conn] : conns) ::close(conn.fd);
    }

    /// One open streaming session: chunks feed the incremental assessor
    /// as they arrive, so server memory stays bounded by the assessor's
    /// histograms regardless of the dataset size declared in StreamBegin.
    struct Stream {
        StreamBegin decl;
        std::uint64_t next_seq = 0;  ///< chunks applied so far
        std::uint64_t elements = 0;  ///< elements applied so far
        zc::StreamingAssessor assessor;

        explicit Stream(const StreamBegin& d) : decl(d), assessor(d.cfg) {}
    };

    struct Conn {
        int fd = -1;
        std::uint64_t id = 0;
        FrameAssembler assembler;
        std::deque<std::vector<std::uint8_t>> write_q;
        std::size_t write_bytes = 0;  ///< unsent bytes across write_q
        std::size_t front_off = 0;    ///< sent prefix of write_q.front()
        std::size_t inflight = 0;     ///< requests submitted, response not yet queued
        /// Open streaming sessions by stream id (the frames' request_id).
        /// Deliberately *not* part of the in-flight read gate: progressing
        /// a stream requires reading more chunks, so gating POLLIN on open
        /// streams would wedge them; max_streams_per_connection is their
        /// own admission bound.
        std::unordered_map<std::uint64_t, Stream> streams;
        /// Stream ids this server reject-settled while the peer may still
        /// have had frames for them in flight. A later StreamBegin reusing
        /// one of these ids must fail deterministically: the stale chunks
        /// racing down the pipe would otherwise feed the "new" stream and
        /// resurrect the state the settle was supposed to kill. Client
        /// aborts don't retire an id — TCP ordering guarantees no frame
        /// for the old incarnation can arrive after the abort.
        std::unordered_set<std::uint64_t> retired_streams;
        bool handshaken = false;
        bool goodbye = false;
        Clock::time_point opened;
        Clock::time_point last_activity;

        explicit Conn(std::size_t max_payload) : assembler(max_payload) {}
    };

    /// A service completion on its way back to its connection.
    struct Settled {
        std::uint64_t conn_id = 0;
        std::uint64_t request_id = 0;
        serve::AssessResponse resp;
    };

    NetServerConfig cfg;
    WakePipe wake;
    /// Completions posted by the service, in completion order; deliver()
    /// swaps them out. Declared before `service`, as `wake` is: the
    /// service's destructor drains and still runs completions.
    std::mutex settled_mu;
    std::vector<Settled> settled;
    serve::AssessService service;
    int listen_fd = -1;
    std::uint16_t bound_port = 0;

    std::unordered_map<std::uint64_t, Conn> conns;
    std::uint64_t next_conn_id = 1;
    /// Requests submitted to the service whose completion deliver() has
    /// not handled yet (event-loop thread only).
    std::size_t unsettled = 0;
    /// deliver()'s swap partner, kept so both vectors keep their capacity.
    std::vector<Settled> delivering;

    std::atomic<bool> draining{false};
    std::atomic<bool> loop_running{false};
    std::thread loop_thread;
    std::mutex start_mu;

    mutable std::mutex tele_mu;
    serve::NetTelemetry tele;

    // --- Event loop ----------------------------------------------------

    void run() {
        bool drain_seen = false;
        Clock::time_point drain_start{};
        for (;;) {
            if (draining.load(std::memory_order_acquire) && !drain_seen) {
                drain_seen = true;
                drain_start = Clock::now();
                if (listen_fd >= 0) {
                    ::close(listen_fd);
                    listen_fd = -1;
                }
                // Drain stops reading, so an open stream can never receive
                // its remaining chunks: settle each now with a rejected
                // response so the request ledger closes (in_flight -> 0)
                // and the client's wait() returns instead of timing out.
                std::vector<std::uint64_t> ids;
                ids.reserve(conns.size());
                for (auto& [id, conn] : conns) ids.push_back(id);
                for (std::uint64_t id : ids) {
                    settle_streams_rejected(id, "server draining");
                }
            }
            if (drain_seen) {
                // Drained: every accepted request settled and every
                // response flushed (or the grace expired on stuck peers).
                const bool flushed = std::all_of(
                    conns.begin(), conns.end(),
                    [](const auto& kv) { return kv.second.write_q.empty(); });
                const bool grace_over =
                    seconds_between(drain_start, Clock::now()) > kDrainGraceSeconds;
                if ((unsettled == 0 && flushed) || grace_over) {
                    std::vector<std::uint64_t> ids;
                    ids.reserve(conns.size());
                    for (auto& [id, conn] : conns) ids.push_back(id);
                    for (std::uint64_t id : ids) close_conn(id);
                    break;
                }
            }

            std::vector<pollfd> fds;
            std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (0 = control)
            fds.push_back({wake.r, POLLIN, 0});
            fd_conn.push_back(0);
            if (!drain_seen && listen_fd >= 0 && conns.size() < cfg.max_connections) {
                fds.push_back({listen_fd, POLLIN, 0});
                fd_conn.push_back(0);
            }
            for (auto& [id, conn] : conns) {
                short events = 0;
                const bool read_open = !drain_seen && !conn.goodbye &&
                                       conn.inflight < cfg.max_inflight_per_connection &&
                                       may_buffer_more(conn);
                if (read_open) events |= POLLIN;
                if (!conn.write_q.empty()) events |= POLLOUT;
                // Always watch for hangup/errors even when backpressured.
                fds.push_back({conn.fd, events, 0});
                fd_conn.push_back(id);
            }

            // Completed responses interrupt poll() through the wake pipe
            // (post()), so the loop can sleep a full quantum even with
            // requests outstanding instead of spinning a 1 ms busy-wait
            // against the worker on single-core hosts.
            const int timeout_ms = 25;
            const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
            if (rc < 0 && errno != EINTR) break;  // unrecoverable poll failure

            // Drain the pipe strictly before deliver() swaps `settled` out:
            // every completion posted before this read is taken by that
            // swap, and the first one posted after it finds the vector
            // empty and writes a byte that stays buffered for the next
            // poll. post() writes only then, and no wake-up is lost.
            if (fds[0].revents & POLLIN) {
                char buf[64];
                while (::read(wake.r, buf, sizeof(buf)) > 0) {
                }
            }
            for (std::size_t i = 1; i < fds.size(); ++i) {
                if (fd_conn[i] == 0) {
                    if (fds[i].revents & POLLIN) do_accept();
                    continue;
                }
                const std::uint64_t id = fd_conn[i];
                auto it = conns.find(id);
                if (it == conns.end()) continue;
                if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
                    close_conn(id);
                    continue;
                }
                if (fds[i].revents & POLLIN) {
                    if (!do_read(id)) continue;  // connection closed
                }
                it = conns.find(id);
                if (it != conns.end() && (fds[i].revents & POLLOUT)) flush(it->second);
            }

            deliver();
            // Delivered responses may have freed in-flight slots; frames
            // that were buffered while a connection sat at its cap parse
            // now.
            {
                std::vector<std::uint64_t> ids;
                ids.reserve(conns.size());
                for (auto& [id, conn] : conns) {
                    if (conn.assembler.buffered() >= FrameHeader::kSize) ids.push_back(id);
                }
                for (std::uint64_t id : ids) process_frames(id);
            }
            enforce_timers();
            reap_goodbyes();
        }
        loop_running.store(false, std::memory_order_release);
    }

    static constexpr double kDrainGraceSeconds = 10.0;

    /// Whether a connection may buffer more inbound bytes. max_read_buffer
    /// is a soft cap: a valid in-limit frame at the stream head may exceed
    /// it (the advertised max_frame_payload can be larger), so reads stay
    /// open until that frame is whole — otherwise a request in
    /// (max_read_buffer, max_frame_payload] could never finish assembling
    /// and the connection would wedge with POLLIN permanently dropped.
    /// The header peek runs only once the soft cap is hit.
    [[nodiscard]] bool may_buffer_more(const Conn& conn) const {
        const std::size_t buffered = conn.assembler.buffered();
        if (buffered < cfg.max_read_buffer) return true;
        return buffered < conn.assembler.pending_frame_bytes();
    }

    void do_accept() {
        for (;;) {
            if (conns.size() >= cfg.max_connections) return;
            const int fd = ::accept(listen_fd, nullptr, nullptr);
            if (fd < 0) return;  // EAGAIN or transient
            set_nonblocking(fd);
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            if (cfg.socket_buffer_bytes > 0) {
                const int sz = static_cast<int>(
                    std::min<std::size_t>(cfg.socket_buffer_bytes, 1ull << 30));
                ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &sz, sizeof(sz));
                ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sz, sizeof(sz));
            }
            const std::uint64_t id = next_conn_id++;
            Conn conn(cfg.max_frame_payload);
            conn.fd = fd;
            conn.id = id;
            conn.opened = conn.last_activity = Clock::now();
            conns.emplace(id, std::move(conn));
            std::lock_guard lk(tele_mu);
            ++tele.connections_accepted;
            ++tele.connections_active;
        }
    }

    /// Returns false when the connection was closed. All per-connection
    /// work is id-based: reject -> flush can disconnect a slow client and
    /// erase the Conn, so references are re-resolved after every call
    /// that might write.
    bool do_read(std::uint64_t id) {
        auto it = conns.find(id);
        if (it == conns.end()) return false;
        Conn& conn = it->second;
        constexpr std::size_t kChunk = 64 * 1024;
        std::size_t taken = 0;
        for (;;) {
            // recv() straight into the assembler's tail — no bounce buffer.
            const std::span<std::uint8_t> room = conn.assembler.writable(kChunk);
            const ssize_t n = ::recv(conn.fd, room.data(), room.size(), 0);
            if (n > 0) {
                conn.last_activity = Clock::now();
                {
                    std::lock_guard lk(tele_mu);
                    tele.bytes_rx += static_cast<std::uint64_t>(n);
                }
                conn.assembler.commit(static_cast<std::size_t>(n));
                taken += static_cast<std::size_t>(n);
                // Yield to frame processing before buffering unboundedly.
                if (taken >= 2 * kChunk || !may_buffer_more(conn)) break;
                continue;
            }
            if (n == 0) {  // peer closed
                close_conn(id);
                return false;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            close_conn(id);
            return false;
        }
        return process_frames(id);
    }

    /// Returns false when the connection was closed.
    bool process_frames(std::uint64_t id) {
        for (;;) {
            auto it = conns.find(id);
            if (it == conns.end()) return false;
            Conn& conn = it->second;
            // Backpressure: past the in-flight cap, leave buffered frames
            // unparsed; the poll loop also stops reading the socket, and
            // re-drives parsing after deliver() frees slots.
            if (conn.inflight >= cfg.max_inflight_per_connection) return true;
            // Zero-copy: handle_frame decodes res.view before the next
            // assembler call, so the payload is never extracted.
            FrameAssembler::Result res = conn.assembler.next_view();
            switch (res.status) {
                case FrameAssembler::Status::kNeedMore:
                    return true;
                case FrameAssembler::Status::kBadMagic:
                case FrameAssembler::Status::kBadVersion: {
                    // The stream cannot be resynchronized; drop the peer.
                    count_rejected_frame();
                    close_conn(id);
                    return false;
                }
                case FrameAssembler::Status::kOversize: {
                    count_rejected_frame();
                    // Pre-handshake peers get no protocol frames: close,
                    // like any other pre-Hello violation (a conforming
                    // client would otherwise see a Response before its
                    // HelloAck).
                    if (!conn.handshaken) {
                        close_conn(id);
                        return false;
                    }
                    reject(conn, res.header.request_id, "oversized frame rejected");
                    break;
                }
                case FrameAssembler::Status::kBadChecksum: {
                    count_rejected_frame();
                    if (!conn.handshaken) {
                        close_conn(id);
                        return false;
                    }
                    reject(conn, res.header.request_id, "frame checksum mismatch");
                    break;
                }
                case FrameAssembler::Status::kFrame: {
                    {
                        std::lock_guard lk(tele_mu);
                        ++tele.frames_rx;
                    }
                    // Last-resort containment: the decoders validate their
                    // inputs and throw WireError into handlers that catch
                    // it, but any exception escaping here (bad_alloc from a
                    // hostile-but-in-cap allocation, a future defect) must
                    // cost one connection, not the whole event loop —
                    // run() has no other catch and every other client dies
                    // with it.
                    try {
                        if (!handle_frame(id, res)) return false;
                    } catch (const std::exception&) {
                        count_rejected_frame();
                        close_conn(id);
                        return false;
                    }
                    break;
                }
            }
        }
    }

    /// Returns false when the connection was closed.
    bool handle_frame(std::uint64_t id, FrameAssembler::Result& res) {
        auto it = conns.find(id);
        if (it == conns.end()) return false;
        Conn& conn = it->second;
        const auto type = static_cast<FrameType>(res.header.type);
        if (!conn.handshaken) {
            if (type != FrameType::kHello) {
                count_rejected_frame();
                close_conn(id);
                return false;
            }
            try {
                decode_hello(res.view);
            } catch (const WireError&) {
                count_rejected_frame();
                close_conn(id);
                return false;
            }
            conn.handshaken = true;
            HelloAck ack;
            ack.max_frame_payload = cfg.max_frame_payload;
            ack.max_inflight_per_connection = cfg.max_inflight_per_connection;
            ack.max_streams_per_connection = cfg.max_streams_per_connection;
            enqueue_built_frame(conn, encode_frame(FrameType::kHelloAck, 0, encode_hello_ack(ack)));
            return conns.count(id) != 0;
        }
        switch (type) {
            case FrameType::kRequest: {
                serve::AssessRequest req;
                try {
                    // Zero-copy: the decoded fields alias the payload in
                    // place, pinned by the assembler slab, all the way to
                    // the worker's device.
                    req = decode_request_view(res.view, res.slab);
                } catch (const WireError& e) {
                    count_rejected_frame();
                    reject(conn, res.header.request_id,
                           std::string("bad request frame: ") + e.what());
                    return conns.count(id) != 0;
                }
                service.submit(std::move(req),
                               [this, id, rid = res.header.request_id](serve::AssessResponse r) {
                                   post({id, rid, std::move(r)});
                               });
                ++unsettled;
                ++conn.inflight;
                std::lock_guard lk(tele_mu);
                ++tele.requests_accepted;
                ++tele.requests_in_flight;
                return true;
            }
            case FrameType::kGoodbye:
                conn.goodbye = true;
                // Goodbye stops reads, so an open stream can never finish;
                // settle each with a rejected response before the drain of
                // the write queue lets reap_goodbyes close the socket.
                settle_streams_rejected(id, "goodbye with the stream still open");
                return conns.count(id) != 0;
            case FrameType::kStreamBegin:
            case FrameType::kStreamChunk:
            case FrameType::kStreamEnd:
            case FrameType::kStreamAbort:
                return handle_stream_frame(id, type, res);
            default:
                // A client must not send server-only frame types.
                count_rejected_frame();
                close_conn(id);
                return false;
        }
    }

    /// Returns false when the connection was closed. The header request_id
    /// of every stream frame is the stream id; the server settles a stream
    /// with exactly one kResponse frame echoing it (except client aborts,
    /// which are fire-and-forget).
    bool handle_stream_frame(std::uint64_t id, FrameType type, FrameAssembler::Result& res) {
        auto it = conns.find(id);
        if (it == conns.end()) return false;
        Conn& conn = it->second;
        const std::uint64_t sid = res.header.request_id;
        switch (type) {
            case FrameType::kStreamBegin: {
                StreamBegin sb;
                try {
                    sb = decode_stream_begin(res.view);
                } catch (const WireError& e) {
                    count_rejected_frame();
                    reject(conn, sid, std::string("bad stream-begin frame: ") + e.what());
                    return conns.count(id) != 0;
                }
                if (conn.streams.count(sid) != 0) {
                    count_rejected_frame();
                    reject(conn, sid, "stream id already open");
                    return conns.count(id) != 0;
                }
                if (conn.retired_streams.count(sid) != 0) {
                    count_rejected_frame();
                    reject(conn, sid, "stream id was already settled on this connection");
                    return conns.count(id) != 0;
                }
                if (conn.streams.size() >= cfg.max_streams_per_connection) {
                    count_rejected_frame();
                    reject(conn, sid, "per-connection stream limit reached");
                    return conns.count(id) != 0;
                }
                conn.streams.emplace(sid, Stream(sb));
                std::lock_guard lk(tele_mu);
                ++tele.streams_opened;
                ++tele.requests_accepted;
                ++tele.requests_in_flight;
                return true;
            }
            case FrameType::kStreamChunk: {
                auto sit = conn.streams.find(sid);
                if (sit == conn.streams.end()) {
                    // A chunk for a stream never opened (or already
                    // settled): drop it — the client learns the stream's
                    // fate from its settling response.
                    count_rejected_frame();
                    return true;
                }
                StreamChunkRef chunk;
                try {
                    // Zero-copy: the slices alias the payload in place and
                    // are consumed synchronously by the stream assessor.
                    chunk = decode_stream_chunk_ref(res.view, res.slab);
                } catch (const WireError& e) {
                    count_rejected_frame();
                    abort_stream_rejected(conn, sid,
                                          std::string("bad stream-chunk frame: ") + e.what());
                    return conns.count(id) != 0;
                }
                Stream& st = sit->second;
                const std::uint64_t volume = st.decl.dims.volume();
                if (chunk.seq != st.next_seq) {
                    abort_stream_rejected(conn, sid, "stream chunk out of sequence");
                    return conns.count(id) != 0;
                }
                if (st.next_seq >= st.decl.chunks) {
                    abort_stream_rejected(conn, sid, "more chunks than declared");
                    return conns.count(id) != 0;
                }
                if (st.elements + chunk.orig.size() > volume) {
                    abort_stream_rejected(conn, sid, "stream overruns the declared shape");
                    return conns.count(id) != 0;
                }
                st.assessor.feed(chunk.orig.data(), chunk.dec.data());
                ++st.next_seq;
                st.elements += chunk.orig.size();
                std::lock_guard lk(tele_mu);
                ++tele.stream_chunks;
                tele.stream_bytes += res.header.payload_len;
                return true;
            }
            case FrameType::kStreamEnd: {
                StreamEnd se;
                try {
                    se = decode_stream_end(res.view);
                } catch (const WireError& e) {
                    count_rejected_frame();
                    if (conn.streams.count(sid) != 0) {
                        abort_stream_rejected(conn, sid,
                                              std::string("bad stream-end frame: ") + e.what());
                    } else {
                        reject(conn, sid, std::string("bad stream-end frame: ") + e.what());
                    }
                    return conns.count(id) != 0;
                }
                auto sit = conn.streams.find(sid);
                if (sit == conn.streams.end()) {
                    count_rejected_frame();
                    reject(conn, sid, "stream-end for an unknown stream");
                    return conns.count(id) != 0;
                }
                Stream& st = sit->second;
                const std::uint64_t volume = st.decl.dims.volume();
                if (se.chunks != st.next_seq || se.elements != st.elements) {
                    abort_stream_rejected(conn, sid,
                                          "stream-end counts disagree with what arrived");
                    return conns.count(id) != 0;
                }
                if (st.next_seq != st.decl.chunks || st.elements != volume) {
                    abort_stream_rejected(conn, sid,
                                          "stream ended before the declared dataset arrived");
                    return conns.count(id) != 0;
                }
                serve::AssessResponse resp;
                resp.effective_cfg = st.decl.cfg;
                // Streaming computes the pattern-1 reduction family only;
                // the stencil/SSIM groups need whole-field neighborhoods.
                resp.effective_cfg.pattern2 = false;
                resp.effective_cfg.pattern3 = false;
                if (st.decl.cfg.pattern2) {
                    resp.degraded = true;
                    resp.shed.push_back("pattern2");
                }
                if (st.decl.cfg.pattern3) {
                    resp.degraded = true;
                    resp.shed.push_back("pattern3");
                }
                resp.result.report.reduction = st.assessor.finalize();
                conn.streams.erase(sit);
                {
                    std::lock_guard lk(tele_mu);
                    ++tele.requests_completed;
                    --tele.requests_in_flight;
                }
                enqueue_built_frame(conn, encode_response_frame(resp, sid));
                return conns.count(id) != 0;
            }
            case FrameType::kStreamAbort: {
                auto sit = conn.streams.find(sid);
                if (sit == conn.streams.end()) {
                    count_rejected_frame();
                    return true;
                }
                // Fire-and-forget by design: the client already moved on,
                // so no response frame — the request ledger records it as
                // failed (no delivery), mirroring a vanished peer.
                conn.streams.erase(sit);
                std::lock_guard lk(tele_mu);
                ++tele.streams_aborted;
                ++tele.requests_failed;
                --tele.requests_in_flight;
                return true;
            }
            default:
                return true;  // unreachable: the caller dispatched types 6..9
        }
    }

    /// Settle one open stream with a rejected response (server-detected
    /// stream error, drain, goodbye) and balance the request ledger. The
    /// response is a delivery, so the stream counts as completed.
    void abort_stream_rejected(Conn& conn, std::uint64_t stream_id, const std::string& why) {
        conn.streams.erase(stream_id);
        conn.retired_streams.insert(stream_id);
        {
            std::lock_guard lk(tele_mu);
            ++tele.streams_aborted;
            ++tele.requests_completed;
            --tele.requests_in_flight;
        }
        reject(conn, stream_id, why);
    }

    /// Reject-settle every open stream of one connection (id-based: each
    /// settle may flush and disconnect a slow client mid-loop).
    void settle_streams_rejected(std::uint64_t conn_id, const std::string& why) {
        for (;;) {
            auto it = conns.find(conn_id);
            if (it == conns.end() || it->second.streams.empty()) return;
            abort_stream_rejected(it->second, it->second.streams.begin()->first, why);
        }
    }

    /// The completion every submitted request carries: runs on a service
    /// worker, or on this thread for a submit-time rejection. The first
    /// completion into an empty vector writes the one wake byte the loop
    /// needs; later ones ride the same delivery.
    void post(Settled s) noexcept {
        bool was_empty = false;
        {
            std::lock_guard lk(settled_mu);
            was_empty = settled.empty();
            settled.push_back(std::move(s));
        }
        if (!was_empty) return;
        const char b = 1;
        [[maybe_unused]] const ssize_t n = ::write(wake.w, &b, 1);
    }

    /// Frame every posted completion, then flush each touched connection
    /// once — a settle burst becomes one send() per peer instead of one
    /// per response.
    void deliver() {
        {
            std::lock_guard lk(settled_mu);
            delivering.swap(settled);
        }
        std::vector<std::uint64_t> touched;
        for (Settled& s : delivering) {
            --unsettled;
            auto it = conns.find(s.conn_id);
            {
                std::lock_guard lk(tele_mu);
                --tele.requests_in_flight;
                if (it != conns.end()) {
                    ++tele.requests_completed;
                } else {
                    ++tele.requests_failed;  // peer vanished; response dropped
                }
            }
            if (it == conns.end()) continue;
            if (it->second.inflight > 0) --it->second.inflight;
            queue_frame(it->second, encode_response_frame(s.resp, s.request_id));
            if (std::find(touched.begin(), touched.end(), s.conn_id) == touched.end()) {
                touched.push_back(s.conn_id);
            }
        }
        delivering.clear();
        for (std::uint64_t id : touched) {
            auto it = conns.find(id);
            if (it != conns.end()) flush(it->second);
        }
    }

    void enforce_timers() {
        const auto now = Clock::now();
        std::vector<std::uint64_t> expired;
        for (auto& [id, conn] : conns) {
            if (!conn.handshaken && cfg.handshake_timeout_s > 0 &&
                seconds_between(conn.opened, now) > cfg.handshake_timeout_s) {
                expired.push_back(id);
            } else if (conn.handshaken && cfg.idle_timeout_s > 0 && conn.inflight == 0 &&
                       seconds_between(conn.last_activity, now) > cfg.idle_timeout_s) {
                // Deliberately fires with open-but-silent streams too: a
                // stalled stream holds assessor memory, and close_conn
                // settles its ledger entries as failed.
                expired.push_back(id);
            }
        }
        for (std::uint64_t id : expired) close_conn(id);
    }

    void reap_goodbyes() {
        std::vector<std::uint64_t> done;
        for (auto& [id, conn] : conns) {
            if (conn.goodbye && conn.inflight == 0 && conn.streams.empty() &&
                conn.write_q.empty()) {
                done.push_back(id);
            }
        }
        for (std::uint64_t id : done) close_conn(id);
    }

    /// Answer `request_id` with a rejected response, the same frame a
    /// service rejection produces. May flush -> close_conn -> erase
    /// `conn`; callers re-resolve.
    void reject(Conn& conn, std::uint64_t request_id, std::string why) {
        serve::AssessResponse resp;
        resp.rejected = true;
        resp.error = std::move(why);
        enqueue_built_frame(conn, encode_response_frame(resp, request_id));
    }

    /// Queue without flushing (batched senders flush once afterwards).
    void queue_frame(Conn& conn, std::vector<std::uint8_t> frame) {
        conn.write_q.push_back(std::move(frame));
        conn.write_bytes += conn.write_q.back().size();
        std::lock_guard lk(tele_mu);
        ++tele.frames_tx;
    }

    void enqueue_built_frame(Conn& conn, std::vector<std::uint8_t> frame) {
        queue_frame(conn, std::move(frame));
        flush(conn);
    }

    void flush(Conn& conn) {
        while (!conn.write_q.empty()) {
            // Scatter-gather across queued frames: a settle burst goes out
            // in one syscall instead of one per response.
            iovec iov[64];
            int n_iov = 0;
            std::size_t off = conn.front_off;
            for (auto it = conn.write_q.begin(); it != conn.write_q.end() && n_iov < 64; ++it) {
                iov[n_iov].iov_base = it->data() + off;
                iov[n_iov].iov_len = it->size() - off;
                ++n_iov;
                off = 0;
            }
            msghdr msg{};
            msg.msg_iov = iov;
            msg.msg_iovlen = static_cast<std::size_t>(n_iov);
            const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK) break;
                if (errno == EINTR) continue;
                close_conn(conn.id);
                return;
            }
            conn.last_activity = Clock::now();
            conn.write_bytes -= static_cast<std::size_t>(n);
            {
                std::lock_guard lk(tele_mu);
                tele.bytes_tx += static_cast<std::uint64_t>(n);
            }
            std::size_t left = static_cast<std::size_t>(n);
            while (left > 0) {
                const std::size_t avail = conn.write_q.front().size() - conn.front_off;
                if (left >= avail) {
                    left -= avail;
                    conn.write_q.pop_front();
                    conn.front_off = 0;
                } else {
                    conn.front_off += left;
                    left = 0;
                }
            }
        }
        // Slow-client disconnect: the peer is not draining its responses
        // and the bounded write queue is exhausted.
        if (conn.write_bytes > cfg.max_write_buffer) close_conn(conn.id);
    }

    void close_conn(std::uint64_t id) {
        auto it = conns.find(id);
        if (it == conns.end()) return;
        const std::uint64_t open_streams = it->second.streams.size();
        ::close(it->second.fd);
        conns.erase(it);
        // Requests of this connection still in the service count as failed
        // deliveries (requests_failed) in deliver(); open streams die with
        // the socket, so their ledger entries settle here.
        std::lock_guard lk(tele_mu);
        ++tele.connections_closed;
        --tele.connections_active;
        tele.streams_aborted += open_streams;
        tele.requests_failed += open_streams;
        tele.requests_in_flight -= open_streams;
    }

    void count_rejected_frame() {
        std::lock_guard lk(tele_mu);
        ++tele.frames_rejected;
    }
};

NetServer::NetServer(NetServerConfig cfg) : impl_(std::make_unique<Impl>(std::move(cfg))) {}

NetServer::~NetServer() {
    shutdown();
    if (impl_->loop_thread.joinable()) impl_->loop_thread.join();
}

std::uint16_t NetServer::port() const noexcept { return impl_->bound_port; }

void NetServer::run() {
    {
        std::lock_guard lk(impl_->start_mu);
        if (impl_->loop_running.exchange(true)) return;  // already running
    }
    impl_->run();
}

void NetServer::start() {
    std::lock_guard lk(impl_->start_mu);
    if (impl_->loop_running.exchange(true)) return;
    impl_->loop_thread = std::thread([this] { impl_->run(); });
}

void NetServer::shutdown() noexcept {
    impl_->draining.store(true, std::memory_order_release);
    const char b = 'x';
    [[maybe_unused]] const ssize_t n = ::write(impl_->wake.w, &b, 1);
}

serve::NetTelemetry NetServer::telemetry() const {
    serve::NetTelemetry t;
    {
        std::lock_guard lk(impl_->tele_mu);
        t = impl_->tele;
    }
    t.data_plane = zc::data_plane_stats();
    return t;
}

serve::ServiceTelemetry NetServer::service_telemetry() const { return impl_->service.telemetry(); }

}  // namespace cuzc::net

#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "wire.hpp"

namespace cuzc::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

struct NetClient::Impl {
    NetClientConfig cfg;
    int fd = -1;
    FrameAssembler assembler;
    std::deque<std::vector<std::uint8_t>> write_q;
    std::size_t front_off = 0;
    std::size_t write_bytes = 0;  ///< unsent bytes across write_q
    std::uint64_t next_request_id = 1;
    std::unordered_map<std::uint64_t, serve::AssessResponse> responses;
    std::deque<std::uint64_t> response_order;
    std::size_t outstanding = 0;
    HelloAck server_limits{};
    bool hello_acked = false;
    /// Client-side view of an open streaming session, mirroring the
    /// StreamBegin declaration so violations fail fast locally.
    struct OpenStream {
        std::uint64_t volume = 0;
        std::uint64_t declared_chunks = 0;
        std::uint64_t next_seq = 0;
        std::uint64_t elements = 0;
    };
    std::unordered_map<std::uint64_t, OpenStream> streams;
    std::uint64_t n_bytes_tx = 0, n_bytes_rx = 0, n_frames_tx = 0, n_frames_rx = 0;

    explicit Impl(NetClientConfig c) : cfg(std::move(c)), assembler(cfg.max_frame_payload) {}

    void connect() {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) throw std::runtime_error("net: socket() failed");
        set_nonblocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        if (cfg.socket_buffer_bytes > 0) {
            const int sz = static_cast<int>(
                std::min<std::size_t>(cfg.socket_buffer_bytes, 1ull << 30));
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sz, sizeof(sz));
            ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &sz, sizeof(sz));
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(cfg.port);
        if (::inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) != 1) {
            // Not a literal address: resolve the name.
            addrinfo hints{};
            hints.ai_family = AF_INET;
            hints.ai_socktype = SOCK_STREAM;
            addrinfo* res = nullptr;
            if (::getaddrinfo(cfg.host.c_str(), nullptr, &hints, &res) != 0 || res == nullptr) {
                throw WireError("cannot resolve host '" + cfg.host + "'");
            }
            addr.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
            ::freeaddrinfo(res);
        }
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
            errno != EINPROGRESS) {
            throw WireError(std::string("connect failed: ") + std::strerror(errno));
        }
        pollfd p{fd, POLLOUT, 0};
        const int rc = ::poll(&p, 1, static_cast<int>(cfg.connect_timeout_s * 1000));
        if (rc <= 0) throw WireError("connect timed out");
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
            throw WireError(std::string("connect failed: ") + std::strerror(err));
        }
    }

    void handshake() {
        enqueue(FrameType::kHello, 0, encode_hello());
        const auto t0 = Clock::now();
        while (!hello_acked) {
            pump_once(0.05);
            if (cfg.response_timeout_s > 0 && seconds_since(t0) > cfg.response_timeout_s) {
                throw WireError("handshake timed out");
            }
        }
    }

    void enqueue(FrameType type, std::uint64_t id, std::vector<std::uint8_t> payload) {
        enqueue_frame(encode_frame(type, id, payload));
    }

    void enqueue_frame(std::vector<std::uint8_t> frame) {
        queue_frame(std::move(frame));
        flush();
    }

    void queue_frame(std::vector<std::uint8_t> frame) {
        write_bytes += frame.size();
        write_q.push_back(std::move(frame));
        ++n_frames_tx;
    }

    /// Nonblocking write pass (scatter-gather across queued frames);
    /// throws on a hard socket error.
    void flush() {
        while (!write_q.empty()) {
            iovec iov[64];
            int n_iov = 0;
            std::size_t off = front_off;
            for (auto it = write_q.begin(); it != write_q.end() && n_iov < 64; ++it) {
                iov[n_iov].iov_base = it->data() + off;
                iov[n_iov].iov_len = it->size() - off;
                ++n_iov;
                off = 0;
            }
            msghdr msg{};
            msg.msg_iov = iov;
            msg.msg_iovlen = static_cast<std::size_t>(n_iov);
            const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK) return;
                if (errno == EINTR) continue;
                throw WireError(std::string("send failed: ") + std::strerror(errno));
            }
            n_bytes_tx += static_cast<std::uint64_t>(n);
            write_bytes -= static_cast<std::size_t>(n);
            std::size_t left = static_cast<std::size_t>(n);
            while (left > 0) {
                const std::size_t avail = write_q.front().size() - front_off;
                if (left >= avail) {
                    left -= avail;
                    write_q.pop_front();
                    front_off = 0;
                } else {
                    front_off += left;
                    left = 0;
                }
            }
        }
    }

    /// One poll round servicing both directions. Returns true when at
    /// least one response frame was received.
    bool pump_once(double timeout_s) {
        if (fd < 0) throw WireError("connection closed");
        flush();
        pollfd p{fd, POLLIN, 0};
        if (!write_q.empty()) p.events |= POLLOUT;
        const int rc = ::poll(&p, 1, std::max(0, static_cast<int>(timeout_s * 1000)));
        if (rc < 0) {
            if (errno == EINTR) return false;
            throw WireError(std::string("poll failed: ") + std::strerror(errno));
        }
        if (rc == 0) return false;
        if (p.revents & POLLOUT) flush();
        bool got = false;
        if (p.revents & (POLLIN | POLLHUP | POLLERR)) got = read_pass();
        return got;
    }

    /// Nonblocking recv pass draining whatever the socket holds right now.
    bool read_pass() {
        if (fd < 0) throw WireError("connection closed");
        for (;;) {
            const std::span<std::uint8_t> room = assembler.writable(64 * 1024);
            const ssize_t n = ::recv(fd, room.data(), room.size(), 0);
            if (n > 0) {
                n_bytes_rx += static_cast<std::uint64_t>(n);
                assembler.commit(static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0) {
                ::close(fd);
                fd = -1;
                break;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            ::close(fd);
            fd = -1;
            break;
        }
        const bool got = drain_frames();
        if (fd < 0 && !got) {
            throw WireError("server closed the connection");
        }
        return got;
    }

    bool drain_frames() {
        bool got = false;
        for (;;) {
            FrameAssembler::Result res = assembler.next_view();
            switch (res.status) {
                case FrameAssembler::Status::kNeedMore:
                    return got;
                case FrameAssembler::Status::kBadMagic:
                case FrameAssembler::Status::kBadVersion:
                    throw WireError("server sent an unrecognized frame header");
                case FrameAssembler::Status::kOversize:
                case FrameAssembler::Status::kBadChecksum:
                    throw WireError("server frame failed integrity checks");
                case FrameAssembler::Status::kFrame: {
                    ++n_frames_rx;
                    const auto type = static_cast<FrameType>(res.header.type);
                    if (type == FrameType::kHelloAck) {
                        server_limits = decode_hello_ack(res.view);
                        hello_acked = true;
                    } else if (type == FrameType::kResponse) {
                        // A duplicate settle for an id still held would
                        // double-push the take_response() order and
                        // double-decrement the pipelining window; keep the
                        // first response, drop the repeat.
                        if (responses.emplace(res.header.request_id, decode_response(res.view))
                                .second) {
                            response_order.push_back(res.header.request_id);
                            if (outstanding > 0) --outstanding;
                            got = true;
                        }
                    } else {
                        throw WireError("server sent an unexpected frame type");
                    }
                    break;
                }
            }
        }
    }
};

NetClient::NetClient(NetClientConfig cfg) : impl_(std::make_unique<Impl>(std::move(cfg))) {
    try {
        impl_->connect();
        impl_->handshake();
    } catch (...) {
        if (impl_->fd >= 0) ::close(impl_->fd);
        impl_->fd = -1;
        throw;
    }
}

NetClient::~NetClient() {
    try {
        close();
    } catch (...) {  // destructor must not throw
    }
}

std::uint64_t NetClient::submit(const serve::AssessRequest& req) {
    const std::uint64_t id = impl_->next_request_id++;
    impl_->queue_frame(encode_request_frame(req, id));
    ++impl_->outstanding;
    // Defer the flush until a batch accumulates — one scatter-gather send
    // per ~128 KiB instead of one syscall per request. pump()/wait() flush
    // whatever remains before sleeping.
    if (impl_->write_bytes >= 128 * 1024) {
        impl_->flush();
        // Drain the read side opportunistically (one nonblocking recv pass,
        // no poll) so a pipelined burst never wedges against server
        // backpressure. Piggybacked on the flush cadence: frames still
        // queued locally can't have responses in flight yet, so per-submit
        // recv passes would mostly be wasted syscalls.
        impl_->read_pass();
    }
    return id;
}

std::uint64_t NetClient::stream_begin(const zc::Dims3& dims, const zc::MetricsConfig& cfg,
                                      std::uint64_t chunks) {
    const std::uint64_t volume = dims.volume();
    if (chunks == 0 || chunks > volume) {
        throw WireError("stream_begin: chunk count cannot tile the declared shape");
    }
    StreamBegin sb;
    sb.dims = dims;
    sb.cfg = cfg;
    sb.chunks = chunks;
    sb.total_bytes = volume * 2 * sizeof(float);
    const std::uint64_t id = impl_->next_request_id++;
    impl_->queue_frame(
        encode_frame(FrameType::kStreamBegin, id, encode_stream_begin(sb), kVersionStreaming));
    ++impl_->outstanding;
    impl_->streams.emplace(id, Impl::OpenStream{volume, chunks, 0, 0});
    impl_->flush();
    return id;
}

void NetClient::stream_feed(std::uint64_t id, std::span<const float> orig,
                            std::span<const float> dec) {
    auto it = impl_->streams.find(id);
    if (it == impl_->streams.end()) throw WireError("stream_feed: unknown stream id");
    Impl::OpenStream& st = it->second;
    if (orig.empty() || orig.size() != dec.size()) {
        throw WireError("stream_feed: chunks must be non-empty and paired");
    }
    if (st.next_seq >= st.declared_chunks) {
        throw WireError("stream_feed: more chunks than declared");
    }
    if (st.elements + orig.size() > st.volume) {
        throw WireError("stream_feed: chunk overruns the declared shape");
    }
    // 8 (seq) + two count-prefixed f32 spans; stay within both sides'
    // frame-payload limits so the server never has to oversize-reject.
    const std::size_t payload = 24 + orig.size_bytes() + dec.size_bytes();
    if (payload > impl_->cfg.max_frame_payload ||
        (impl_->server_limits.max_frame_payload > 0 &&
         payload > impl_->server_limits.max_frame_payload)) {
        throw WireError("stream_feed: chunk exceeds the frame payload limit");
    }
    impl_->queue_frame(encode_stream_chunk_frame(id, st.next_seq, orig, dec));
    ++st.next_seq;
    st.elements += orig.size();
    // Same deferred-flush + opportunistic-drain cadence as submit(): the
    // read pass keeps a long chunk train from wedging against a server
    // that has settled our other requests.
    if (impl_->write_bytes >= 128 * 1024) {
        impl_->flush();
        impl_->read_pass();
    }
}

void NetClient::stream_finish(std::uint64_t id) {
    auto it = impl_->streams.find(id);
    if (it == impl_->streams.end()) throw WireError("stream_finish: unknown stream id");
    StreamEnd se;
    se.chunks = it->second.next_seq;
    se.elements = it->second.elements;
    impl_->streams.erase(it);
    impl_->queue_frame(
        encode_frame(FrameType::kStreamEnd, id, encode_stream_end(se), kVersionStreaming));
    impl_->flush();
}

void NetClient::stream_abort(std::uint64_t id) {
    auto it = impl_->streams.find(id);
    if (it == impl_->streams.end()) throw WireError("stream_abort: unknown stream id");
    impl_->streams.erase(it);
    impl_->queue_frame(encode_frame(FrameType::kStreamAbort, id, {}, kVersionStreaming));
    // No response will come; settle the outstanding window locally.
    if (impl_->outstanding > 0) --impl_->outstanding;
    impl_->flush();
}

serve::AssessResponse NetClient::stream_assess(const zc::Dims3& dims,
                                               std::span<const float> orig,
                                               std::span<const float> dec,
                                               const zc::MetricsConfig& cfg,
                                               std::size_t chunk_elems) {
    const std::size_t n = dims.volume();
    if (orig.size() != n || dec.size() != n) {
        throw WireError("stream_assess: fields disagree with the declared shape");
    }
    if (chunk_elems == 0) throw WireError("stream_assess: chunk_elems must be positive");
    const std::uint64_t chunks = (n + chunk_elems - 1) / chunk_elems;
    const std::uint64_t id = stream_begin(dims, cfg, chunks);
    for (std::size_t off = 0; off < n; off += chunk_elems) {
        const std::size_t len = std::min(chunk_elems, n - off);
        stream_feed(id, orig.subspan(off, len), dec.subspan(off, len));
    }
    stream_finish(id);
    return wait(id);
}

serve::AssessResponse NetClient::wait(std::uint64_t id) {
    const auto t0 = Clock::now();
    for (;;) {
        auto it = impl_->responses.find(id);
        if (it != impl_->responses.end()) {
            serve::AssessResponse resp = std::move(it->second);
            impl_->responses.erase(it);
            std::erase(impl_->response_order, id);
            return resp;
        }
        if (impl_->fd < 0) throw WireError("server closed the connection");
        impl_->pump_once(0.05);
        if (impl_->cfg.response_timeout_s > 0 &&
            seconds_since(t0) > impl_->cfg.response_timeout_s) {
            throw WireError("timed out waiting for response");
        }
    }
}

bool NetClient::pump(double timeout_s) { return impl_->pump_once(timeout_s); }

std::optional<std::pair<std::uint64_t, serve::AssessResponse>> NetClient::take_response() {
    if (impl_->response_order.empty()) return std::nullopt;
    const std::uint64_t id = impl_->response_order.front();
    impl_->response_order.pop_front();
    auto it = impl_->responses.find(id);
    if (it == impl_->responses.end()) return std::nullopt;
    serve::AssessResponse resp = std::move(it->second);
    impl_->responses.erase(it);
    return std::make_pair(id, std::move(resp));
}

std::size_t NetClient::outstanding() const noexcept { return impl_->outstanding; }

std::size_t NetClient::server_max_inflight() const noexcept {
    return impl_->server_limits.max_inflight_per_connection;
}

std::size_t NetClient::server_max_streams() const noexcept {
    return impl_->server_limits.max_streams_per_connection;
}

std::uint64_t NetClient::bytes_tx() const noexcept { return impl_->n_bytes_tx; }
std::uint64_t NetClient::bytes_rx() const noexcept { return impl_->n_bytes_rx; }
std::uint64_t NetClient::frames_tx() const noexcept { return impl_->n_frames_tx; }
std::uint64_t NetClient::frames_rx() const noexcept { return impl_->n_frames_rx; }

void NetClient::close() {
    if (impl_->fd < 0) return;
    try {
        impl_->enqueue(FrameType::kGoodbye, 0, {});
        // Best-effort flush of the goodbye within a short bound.
        const auto t0 = Clock::now();
        while (!impl_->write_q.empty() && seconds_since(t0) < 0.25) {
            pollfd p{impl_->fd, POLLOUT, 0};
            if (::poll(&p, 1, 50) <= 0) break;
            impl_->flush();
        }
    } catch (const WireError&) {  // peer already gone; nothing to drain
    }
    if (impl_->fd >= 0) ::close(impl_->fd);
    impl_->fd = -1;
}

}  // namespace cuzc::net

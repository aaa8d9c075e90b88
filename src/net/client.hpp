#pragma once

/// cuzc::net::NetClient — cuzc-wire client for remote assessment
/// (whole-frame requests, and streaming sessions for datasets larger than
/// one frame).
///
/// The client is single-threaded by design (one instance per driving
/// thread): submit() queues request frames, and every pump of the socket
/// services both directions, so a pipelined submit burst can never
/// deadlock against server backpressure — while the server stops reading
/// us (its per-connection in-flight cap), we keep draining its responses.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "serve/request.hpp"

namespace cuzc::net {

struct NetClientConfig {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    double connect_timeout_s = 5.0;
    /// Wall-clock ceiling for wait()/assess() (and the handshake); a pump
    /// that makes no progress for this long throws WireError. 0 = none.
    double response_timeout_s = 300.0;
    std::size_t max_frame_payload = 64ull << 20;
    /// SO_SNDBUF/SO_RCVBUF request (kernel clamps to wmem_max/rmem_max);
    /// sized so a pipelined request burst parks in the kernel instead of
    /// round-tripping through EAGAIN. 0 keeps the kernel default.
    std::size_t socket_buffer_bytes = 4ull << 20;
};

class NetClient {
public:
    /// Connects and completes the Hello handshake; throws WireError /
    /// std::runtime_error on refusal, timeout, or protocol mismatch.
    explicit NetClient(NetClientConfig cfg);
    ~NetClient();

    NetClient(const NetClient&) = delete;
    NetClient& operator=(const NetClient&) = delete;

    /// Queue one request; returns its wire request id. The outbound queue
    /// is flushed opportunistically (and fully by wait()/pump()).
    std::uint64_t submit(const serve::AssessRequest& req);

    /// Pump until the response for `id` arrives; out-of-order responses
    /// for other ids are retained for their own wait() calls.
    [[nodiscard]] serve::AssessResponse wait(std::uint64_t id);

    /// Synchronous round-trip convenience.
    [[nodiscard]] serve::AssessResponse assess(const serve::AssessRequest& req) {
        return wait(submit(req));
    }

    // --- Streaming sessions ---------------------------------------------

    /// Open a streaming session: the dataset's shape, the metrics config
    /// (only the pattern-1 reduction family is computed server-side), and
    /// the exact number of stream_feed() calls to follow. Returns the
    /// stream id — also the id wait() settles once stream_finish() is
    /// acknowledged. Throws WireError on a chunk count that cannot tile the
    /// declared shape.
    std::uint64_t stream_begin(const zc::Dims3& dims, const zc::MetricsConfig& cfg,
                               std::uint64_t chunks);

    /// Send the next paired slice (element order). Validated client-side
    /// against the declaration (sequence, element budget, frame-payload
    /// fit) so violations fail fast instead of as a remote rejection.
    void stream_feed(std::uint64_t id, std::span<const float> orig, std::span<const float> dec);

    /// Queue StreamEnd; the server's settling response arrives via
    /// wait(id) (rejected responses carry the reason in `error`).
    void stream_finish(std::uint64_t id);

    /// Abandon the stream (fire-and-forget; no response will arrive).
    void stream_abort(std::uint64_t id);

    /// Synchronous convenience: begin → feed `chunk_elems`-sized slices →
    /// finish → wait. orig/dec must both hold dims.volume() elements.
    [[nodiscard]] serve::AssessResponse stream_assess(const zc::Dims3& dims,
                                                      std::span<const float> orig,
                                                      std::span<const float> dec,
                                                      const zc::MetricsConfig& cfg,
                                                      std::size_t chunk_elems);

    /// One bounded poll round: flush pending writes, read what's there.
    /// Returns true if any response arrived.
    bool pump(double timeout_s);

    /// Take any already-received response (no socket activity).
    [[nodiscard]] std::optional<std::pair<std::uint64_t, serve::AssessResponse>> take_response();

    /// Requests submitted whose responses have not been received yet
    /// (received-but-untaken responses do not count; this is the wire
    /// in-flight window that replay pacing bounds).
    [[nodiscard]] std::size_t outstanding() const noexcept;

    /// Server limits learned from the HelloAck.
    [[nodiscard]] std::size_t server_max_inflight() const noexcept;
    /// Concurrent streams the server allows per connection.
    [[nodiscard]] std::size_t server_max_streams() const noexcept;

    [[nodiscard]] std::uint64_t bytes_tx() const noexcept;
    [[nodiscard]] std::uint64_t bytes_rx() const noexcept;
    [[nodiscard]] std::uint64_t frames_tx() const noexcept;
    [[nodiscard]] std::uint64_t frames_rx() const noexcept;

    /// Send Goodbye and close the socket (also done by the destructor).
    void close();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace cuzc::net

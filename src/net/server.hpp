#pragma once

/// cuzc::net::NetServer — the socket front-end of the assessment service.
///
/// A single poll()-driven event-loop thread owns the listening socket and
/// every connection; decoded requests are submitted to an embedded
/// serve::AssessService (which runs its own device-worker pool), each with
/// a completion that posts its response back to the loop, which frames it
/// onto the request's connection. See DESIGN.md §7 for the protocol,
/// backpressure, and drain semantics.

#include <cstdint>
#include <memory>
#include <string>

#include "serve/service.hpp"
#include "serve/telemetry.hpp"

namespace cuzc::net {

struct NetServerConfig {
    std::string bind_address = "127.0.0.1";
    /// 0 binds an ephemeral port; NetServer::port() reports the real one.
    std::uint16_t port = 0;
    std::size_t max_connections = 64;
    /// Admission backpressure: a connection with this many requests in
    /// flight stops being read (POLLIN interest dropped) until responses
    /// drain; TCP flow control pushes back on the client from there.
    std::size_t max_inflight_per_connection = 64;
    /// Frames whose payload exceeds this are rejected (and skipped)
    /// without closing the connection.
    std::size_t max_frame_payload = 64ull << 20;
    /// Concurrent streaming sessions one connection may hold open; a
    /// StreamBegin past the cap is settled immediately with a rejected
    /// response. Streams are deliberately outside the in-flight read gate
    /// (feeding a stream *requires* reading), so this is their own
    /// admission bound.
    std::size_t max_streams_per_connection = 8;
    /// Unparsed inbound bytes a connection may buffer before it stops
    /// being read (second backpressure stage, before frame decode).
    std::size_t max_read_buffer = 8ull << 20;
    /// Outbound bytes a connection may queue before it is declared a slow
    /// client and disconnected.
    std::size_t max_write_buffer = 64ull << 20;
    /// A connection must complete the Hello handshake within this wall
    /// clock or it is closed. 0 disables the check.
    double handshake_timeout_s = 5.0;
    /// A handshaken connection with no traffic in either direction for
    /// this long is closed. 0 disables the check.
    double idle_timeout_s = 0;
    /// SO_RCVBUF/SO_SNDBUF request for accepted sockets (the kernel clamps
    /// to its rmem_max/wmem_max). Frames carry whole fields, so a buffer
    /// that can absorb a pipelined burst saves drain round-trips.
    /// 0 keeps the kernel default.
    std::size_t socket_buffer_bytes = 4ull << 20;
    /// The embedded assessment service (devices, cache, faults, ...).
    serve::ServiceConfig service{};
};

class NetServer {
public:
    /// Binds and listens (throws std::runtime_error on failure); the event
    /// loop does not run until run() or start() is called.
    explicit NetServer(NetServerConfig cfg);
    /// Initiates a drain if still running, then joins.
    ~NetServer();

    NetServer(const NetServer&) = delete;
    NetServer& operator=(const NetServer&) = delete;

    /// The bound port (resolves an ephemeral request).
    [[nodiscard]] std::uint16_t port() const noexcept;

    /// Run the event loop on the calling thread until shutdown() — the
    /// graceful-drain sequence finishes before it returns.
    void run();
    /// Spawn the event loop on a background thread (no-op if running).
    void start();

    /// Initiate graceful drain from any thread or a signal handler (only
    /// async-signal-safe calls): stop accepting, settle every in-flight
    /// request, flush responses, then close. Idempotent.
    void shutdown() noexcept;

    [[nodiscard]] serve::NetTelemetry telemetry() const;
    [[nodiscard]] serve::ServiceTelemetry service_telemetry() const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace cuzc::net

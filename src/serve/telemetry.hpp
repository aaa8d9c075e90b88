#pragma once

#include <array>
#include <cstdint>

#include "zc/field_buffer.hpp"

namespace cuzc::io {
class Json;
}

namespace cuzc::serve {

/// Log2-bucketed latency histogram (microsecond granularity): bucket i
/// counts requests with total latency in [2^(i-1), 2^i) microseconds,
/// bucket 0 everything under 1 us, the last bucket everything above.
struct LatencyHistogram {
    static constexpr std::size_t kBuckets = 24;  // up to ~8.4 s

    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    double sum_s = 0;
    double max_s = 0;

    void record(double seconds);
    [[nodiscard]] double mean_s() const noexcept { return count ? sum_s / static_cast<double>(count) : 0.0; }
    /// Upper bound (exclusive) of bucket `i`, in microseconds.
    [[nodiscard]] static double bucket_le_us(std::size_t i) noexcept;
};

/// Service counters — the observable contract of cuzc::serve. Every
/// submission is `queued`; every completed one is `served`; every refused
/// one (admission control, malformed input, device failure, timeout) is
/// `rejected`, and every rejection still fulfills the submitter's future.
///
/// Reconciliation invariants, which hold at every telemetry() snapshot
/// (each transition is a single critical section), not just after drain:
///   queued == served + rejected + queue_depth + inflight
///   served == cache_hits + cache_misses,  shed <= served
///   latency.count == served + rejected   (rejections record a span too)
/// After drain(), queue_depth == inflight == 0, so
/// queued == served + rejected.
struct ServiceTelemetry {
    std::uint64_t queued = 0;
    std::uint64_t served = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t shed = 0;      ///< requests that degraded (>=1 group shed)
    std::uint64_t rejected = 0;  ///< admission / malformed / failed / timed out
    std::uint64_t batches = 0;   ///< upload epochs executed
    std::uint64_t coalesced = 0; ///< requests that rode an epoch beyond its first
    std::uint64_t uploads = 0;   ///< H2D field stagings
    std::uint64_t buffer_allocs = 0;  ///< device-buffer (re)allocations
    std::uint64_t max_queue_depth = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t cache_size = 0;

    // Sharded serving (see DESIGN.md §6, "Sharded serving").
    std::uint64_t shards = 0;          ///< device-shards run by sharded requests
    std::uint64_t exchange_bytes = 0;  ///< modeled allreduce traffic of sharded runs
    std::uint64_t shard_retries = 0;   ///< per-slab retries inside sharded runs

    // Fault containment and recovery (see DESIGN.md §6, "Fault model").
    std::uint64_t faults_injected = 0;  ///< injections observed on worker devices
    std::uint64_t retries = 0;          ///< device attempts beyond each request's first
    std::uint64_t timeouts = 0;         ///< rejections due to the wall-clock ceiling
    std::uint64_t breaker_opens = 0;    ///< cumulative breaker open transitions
    std::uint64_t breaker_open = 0;     ///< workers currently quarantined (gauge)

    // Queue gauges at snapshot time (close the at-all-times invariant).
    std::uint64_t queue_depth = 0;
    std::uint64_t inflight = 0;
    double modeled_backlog_s = 0;  ///< modeled device-seconds still owed

    // Sums of the per-request span phases (seconds).
    double queue_s = 0;
    double upload_s = 0;
    double kernel_s = 0;
    double report_s = 0;

    LatencyHistogram latency;

    /// Zero-copy data-plane ledger at snapshot time (process-wide:
    /// bytes_copied, slab reuse, device adoptions, pool high-water — see
    /// zc::data_plane_stats()).
    zc::DataPlaneStats data_plane;

    /// The reconciliation invariants above, at this snapshot.
    [[nodiscard]] bool reconciles() const noexcept;

    /// The JSON object, schema "cuzc-serve-telemetry-v2" (v2 added the
    /// nested "data_plane" block).
    [[nodiscard]] io::Json json() const;
};

/// Counters of the socket front-end (cuzc::net::NetServer) speaking
/// cuzc-wire-v2 (whole-frame requests and streaming sessions).
/// They sit *in front of* ServiceTelemetry: every wire request the server
/// accepts becomes exactly one AssessService submission, so
/// `requests_accepted` here reconciles with the service's own `queued`
/// counter for a network-only service — except streaming sessions, which
/// are assessed in the front-end itself (bounded-memory incremental
/// reduction) and never reach the service queue; they still count as
/// requests here so the request ledger covers all wire work.
///
/// Reconciliation invariants, holding at every snapshot:
///   requests_accepted == requests_completed + requests_failed
///                        + requests_in_flight
///   connections_accepted == connections_active + connections_closed
///   streams_opened >= streams_aborted
/// A request is `completed` when its response frame was queued for
/// delivery (the service-level rejected flag travels *inside* the
/// response); it is `failed` only when the response could not be
/// delivered because its connection died first. A streaming session is
/// accepted at StreamBegin, in-flight until its settling response (or its
/// abort/disconnect), and aborted sessions settled with a rejected
/// response count as completed — the response was delivered.
struct NetTelemetry {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t connections_active = 0;  ///< gauge
    std::uint64_t requests_accepted = 0;   ///< decoded + submitted to the service
    std::uint64_t requests_completed = 0;  ///< response frame queued to a live peer
    std::uint64_t requests_failed = 0;     ///< future settled after its peer vanished
    std::uint64_t requests_in_flight = 0;  ///< gauge: submitted, future not settled
    std::uint64_t frames_rx = 0;           ///< well-formed frames decoded
    std::uint64_t frames_tx = 0;           ///< frames queued for send
    std::uint64_t frames_rejected = 0;     ///< bad magic/version/checksum/oversize/decode
    std::uint64_t bytes_rx = 0;
    std::uint64_t bytes_tx = 0;

    // Streaming sessions.
    std::uint64_t streams_opened = 0;      ///< StreamBegin frames admitted
    std::uint64_t stream_chunks = 0;       ///< StreamChunk frames applied
    std::uint64_t stream_bytes = 0;        ///< payload bytes of applied chunks
    std::uint64_t streams_aborted = 0;     ///< client aborts + server-side stream errors

    /// Zero-copy data-plane ledger at snapshot time (shared process-wide
    /// counters; the same numbers ServiceTelemetry reports).
    zc::DataPlaneStats data_plane;

    /// The reconciliation invariants above, at this snapshot.
    [[nodiscard]] bool reconciles() const noexcept;

    /// The JSON object; `"schema": "cuzc-wire-v2"` names the protocol the
    /// counters describe, and a nested "data_plane" block carries the
    /// data-plane ledger.
    [[nodiscard]] io::Json json() const;
};

}  // namespace cuzc::serve

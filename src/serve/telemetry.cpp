#include "telemetry.hpp"

#include <algorithm>
#include <cmath>

#include "io/json.hpp"

namespace cuzc::serve {

void LatencyHistogram::record(double seconds) {
    ++count;
    sum_s += seconds;
    max_s = std::max(max_s, seconds);
    const double us = seconds * 1e6;
    std::size_t b = 0;
    if (us >= 1.0) {
        b = static_cast<std::size_t>(std::floor(std::log2(us))) + 1;
        b = std::min(b, kBuckets - 1);
    }
    ++buckets[b];
}

double LatencyHistogram::bucket_le_us(std::size_t i) noexcept {
    return std::ldexp(1.0, static_cast<int>(i));  // 2^i us
}

namespace {

io::Json data_plane_json(const zc::DataPlaneStats& dp) {
    return io::Json::Object{{"bytes_copied", dp.bytes_copied}, {"slab_allocs", dp.slab_allocs},
                            {"slab_reuses", dp.slab_reuses}, {"adoptions", dp.adoptions},
                            {"pool_high_water_bytes", dp.pool_high_water_bytes}};
}

}  // namespace

bool ServiceTelemetry::reconciles() const noexcept {
    return queued == served + rejected + queue_depth + inflight &&
           served == cache_hits + cache_misses && shed <= served &&
           latency.count == served + rejected;
}

io::Json ServiceTelemetry::json() const {
    io::Json::Array bucket_bounds, bucket_counts;
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
        bucket_bounds.emplace_back(LatencyHistogram::bucket_le_us(i));
        bucket_counts.emplace_back(latency.buckets[i]);
    }
    return io::Json::Object{
        {"schema", "cuzc-serve-telemetry-v2"}, {"queued", queued}, {"served", served},
        {"cache_hits", cache_hits}, {"cache_misses", cache_misses}, {"shed", shed},
        {"rejected", rejected}, {"batches", batches}, {"coalesced", coalesced},
        {"uploads", uploads}, {"buffer_allocs", buffer_allocs},
        {"max_queue_depth", max_queue_depth}, {"cache_evictions", cache_evictions},
        {"cache_size", cache_size}, {"shards", shards}, {"exchange_bytes", exchange_bytes},
        {"shard_retries", shard_retries}, {"faults_injected", faults_injected},
        {"retries", retries}, {"timeouts", timeouts}, {"breaker_opens", breaker_opens},
        {"breaker_open", breaker_open}, {"queue_depth", queue_depth}, {"inflight", inflight},
        {"modeled_backlog_s", modeled_backlog_s},
        {"spans_s", io::Json::Object{{"queue", queue_s}, {"upload", upload_s},
                                     {"kernel", kernel_s}, {"report", report_s}}},
        {"latency", io::Json::Object{{"count", latency.count},
                                     {"mean_us", latency.mean_s() * 1e6},
                                     {"max_us", latency.max_s * 1e6},
                                     {"buckets_le_us", std::move(bucket_bounds)},
                                     {"bucket_counts", std::move(bucket_counts)}}},
        {"data_plane", data_plane_json(data_plane)}};
}

bool NetTelemetry::reconciles() const noexcept {
    return requests_accepted == requests_completed + requests_failed + requests_in_flight &&
           connections_accepted == connections_active + connections_closed &&
           streams_opened >= streams_aborted;
}

io::Json NetTelemetry::json() const {
    return io::Json::Object{
        {"schema", "cuzc-wire-v2"}, {"connections_accepted", connections_accepted},
        {"connections_closed", connections_closed}, {"connections_active", connections_active},
        {"requests_accepted", requests_accepted}, {"requests_completed", requests_completed},
        {"requests_failed", requests_failed}, {"requests_in_flight", requests_in_flight},
        {"frames_rx", frames_rx}, {"frames_tx", frames_tx}, {"frames_rejected", frames_rejected},
        {"bytes_rx", bytes_rx}, {"bytes_tx", bytes_tx}, {"streams_opened", streams_opened},
        {"stream_chunks", stream_chunks}, {"stream_bytes", stream_bytes},
        {"streams_aborted", streams_aborted}, {"data_plane", data_plane_json(data_plane)}};
}

}  // namespace cuzc::serve

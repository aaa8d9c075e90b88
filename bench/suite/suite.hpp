#pragma once

// Shared pieces of the benchmark binary: the clock, percentiles, the gate
// failure type, what one live window observed, the span records the trace
// is built from, and the per-layer walk.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/net.hpp"
#include "serve/serve.hpp"
#include "sz/sz_compressor.hpp"
#include "zc/zc.hpp"

namespace suite {

namespace net = cuzc::net;
namespace serve = cuzc::serve;
namespace sz = cuzc::sz;
namespace zc = cuzc::zc;

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);

/// A correctness or validity gate failed: the run's numbers are void.
struct GateFailure : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// Trace thread of the layer walk's spans; live spans use their
/// connection's index (0 or 1).
inline constexpr int kWalkTid = 2;

/// One span of the Chrome trace. Spans of one request share `request`;
/// `parent` indexes the enclosing span in the same vector (-1 for a root).
/// `placed` marks a duration the service reported without a start time,
/// laid out back to back inside its parent. Names are string literals.
struct Span {
    const char* name = "";
    std::uint64_t request = 0;
    double ts_s = 0;
    double dur_s = 0;
    std::int64_t parent = -1;
    int tid = 0;
    bool placed = false;
};

/// What one live window observed. Spans are kept only in traced windows;
/// an untraced window keeps latencies alone.
struct WindowStats {
    double elapsed_s = 0;
    std::uint64_t attempted = 0;  ///< requests and stream sessions sent
    std::uint64_t failed = 0;     ///< rejected responses
    std::uint64_t completed = 0;  ///< whole-frame requests answered, not rejected
    std::uint64_t sessions = 0;   ///< stream sessions answered, not rejected
    std::uint64_t field_bytes = 0;  ///< original + decompressed bytes assessed
    std::uint64_t wire_bytes = 0;   ///< client bytes sent + received
    std::vector<double> latency_s;  ///< whole-frame requests
    std::vector<double> gen_lag_s;  ///< open loop: send time minus due time
    std::vector<Span> spans;        ///< traced windows only

    // Service and data-plane counters accumulated over the window.
    std::uint64_t served = 0, cache_hits = 0, cache_misses = 0, shed = 0, coalesced = 0;
    std::uint64_t bytes_copied = 0, slab_reuses = 0, slab_allocs = 0;
    std::uint64_t frames_rejected = 0;

    /// Add `other`'s time, counts and samples to this window's.
    void merge(WindowStats&& other);
};

/// Named per-layer numbers, in the order they were added.
using LayerMetrics = std::vector<std::pair<std::string, double>>;

/// A server plus the clients one workload drives, connected and warmed up.
struct Live {
    std::unique_ptr<net::NetServer> server;
    std::vector<std::unique_ptr<net::NetClient>> clients;

    /// Close the clients, then drain and stop the server.
    void stop();
};

class Workload {
public:
    virtual ~Workload() = default;

    /// The latency percentile reported as the tail: the highest one a
    /// run's sample supports with at least ten samples beyond it.
    virtual double tail_quantile() const = 0;

    /// Start a server with program defaults, connect, and warm up: the
    /// benchmark's set-up, timed by the caller.
    virtual Live start() = 0;
    /// Drive one timed window on a started server.
    virtual WindowStats run_window(Live& live, double seconds, bool traced) = 0;
    /// Validity gates on one window's telemetry; throws GateFailure.
    virtual void check_window(const WindowStats& window) = 0;
    /// Compare the sampled responses of every window against in-process
    /// references; throws GateFailure.
    virtual void verify() = 0;
    /// Time each layer's public entry point on a fixed sample of this
    /// workload's inputs, appending the walk's spans to `spans`.
    virtual LayerMetrics walk(std::vector<Span>& spans) = 0;
};

/// Generate the inputs of workload `name` from `seed`; throws
/// std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

/// Elements per streamed chunk, on the wire and in the walk.
inline constexpr std::size_t kStreamChunk = 64 * 1024;

/// SZ REL 1e-3, the bound of every SZ stream the benchmark makes.
inline sz::SzConfig sz_rel_config() {
    sz::SzConfig c;
    c.use_rel_bound = true;
    c.rel_error_bound = 1e-3;
    return c;
}

/// The layer walk over whole-frame requests. The stream assessor is fed
/// 64 Ki-element chunks of the streamed pair when there is one, and of the
/// requests' fields otherwise.
struct WalkInput {
    std::vector<serve::AssessRequest> requests;
    std::span<const float> stream_orig, stream_dec;
};
LayerMetrics walk_layers(const WalkInput& in, std::vector<Span>& spans);

/// Chrome trace-event JSON of `spans`; throws std::runtime_error when the
/// file cannot be written.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

/// Median self time per span name: duration minus what its children cover.
std::map<std::string, std::pair<std::size_t, double>> self_times(const std::vector<Span>& spans);

}  // namespace suite

// The four benchmark workloads. Each drives an in-process NetServer (program
// defaults, one device) over loopback with NetClient from this process, and
// each exists to stress a different layer — see README.md for why.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <exception>
#include <limits>
#include <map>
#include <numeric>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "cuzc/coordinator.hpp"
#include "data/noise.hpp"
#include "suite.hpp"
#include "sz/sz_compressor.hpp"

namespace suite {

namespace {

namespace cz = cuzc::cuzc;

// hit_storm trace length, cycled: long enough that every seed's mix of
// shapes, configs and tight deadlines sits close to the generator's rates.
constexpr std::size_t kStormCycle = 4096;
constexpr std::size_t kStormDepth = 64;    // hit_storm pipeline, capped by the server
constexpr std::size_t kMissBases = 16;     // pre-generated 64^3 base pairs
constexpr std::size_t kMissEdge = 64;
constexpr std::size_t kMissDepth = 2;      // miss_64 / sz_miss closed-loop window
constexpr std::size_t kMissWarmUp = 2;
constexpr std::size_t kVerifyStride = 16;  // miss workloads check every 16th response
constexpr std::size_t kStreamEdge = 128;
constexpr double kOpenRate = 200;          // stream_mix small requests per second
constexpr std::size_t kWalkSamples = 16;
constexpr double kNever = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();

/// Smooth field with a seed-dependent phase plus a little hashed noise, so
/// SZ streams carry unpredictable detail (about 85 KB per 64^3 field at
/// REL 1e-3).
zc::Field synth_field(zc::Dims3 d, std::uint64_t seed) {
    using cuzc::data::mix64;
    using cuzc::data::to_unit;
    zc::Field f(d);
    const double phase = to_unit(mix64(seed)) * 6.283185307179586;
    std::size_t i = 0;
    for (std::size_t x = 0; x < d.h; ++x) {
        for (std::size_t y = 0; y < d.w; ++y) {
            for (std::size_t z = 0; z < d.l; ++z, ++i) {
                const double v = std::sin(0.11 * static_cast<double>(x) + phase) +
                                 0.5 * std::cos(0.17 * static_cast<double>(y) - phase) +
                                 0.25 * std::sin(0.29 * static_cast<double>(z) + 0.5 * phase) +
                                 0.01 * (to_unit(mix64(seed ^ (i * 0x9e3779b97f4a7c15ull))) - 0.5);
                f.data()[i] = static_cast<float>(v);
            }
        }
    }
    return f;
}

auto cfg_key(const zc::MetricsConfig& c) {
    return std::make_tuple(c.pattern1, c.pattern2, c.pattern3, c.pdf_bins, c.autocorr_max_lag,
                           c.deriv_orders, c.ssim_window, c.ssim_step, c.pwr_eps);
}
using CfgKey = decltype(cfg_key(zc::MetricsConfig{}));

auto entry_key(const serve::TraceEntry& e) {
    return std::make_tuple(e.dims.h, e.dims.w, e.dims.l, e.seed, e.noise, cfg_key(e.metrics()),
                           e.deadline_us, e.priority);
}

std::vector<std::uint8_t> reference_report(const zc::Tensor3f& orig, const zc::Tensor3f& dec,
                                           const zc::MetricsConfig& cfg) {
    cuzc::vgpu::Device dev;
    return net::encode_report(cz::assess(dev, orig, dec, cfg).report);
}

std::uint64_t pair_bytes(const serve::AssessRequest& r) {
    return 2 * r.orig.size() * sizeof(float);
}

/// Span request ids: the connection in the top byte, the wire id below.
std::uint64_t span_id(int tid, std::uint64_t id) {
    return (static_cast<std::uint64_t>(tid) << 56) | id;
}

/// Account one whole-frame response. `t_start` is when the request was due
/// (open loop) or submitted (closed loop); `t_sent` when it was submitted.
void record(WindowStats& w, const serve::AssessResponse& r, std::uint64_t bytes, double t_start,
            double t_sent, double t_end, int tid, std::uint64_t id, bool traced) {
    if (r.rejected) {
        ++w.failed;
        return;
    }
    ++w.completed;
    w.field_bytes += bytes;
    w.latency_s.push_back(t_end - t_start);
    if (!traced) return;
    const std::uint64_t rid = span_id(tid, id);
    const auto root = static_cast<std::int64_t>(w.spans.size());
    w.spans.push_back({"client.request", rid, t_start, t_end - t_start, -1, tid, false});
    if (t_sent > t_start) {
        w.spans.push_back({"gen.lag", rid, t_start, t_sent - t_start, root, tid, false});
    }
    double at = t_sent;
    for (const auto& [name, dur] : {std::pair{"serve.queue", r.spans.queue_s},
                                    std::pair{"serve.upload", r.spans.upload_s},
                                    std::pair{"serve.kernel", r.spans.kernel_s},
                                    std::pair{"serve.report", r.spans.report_s}}) {
        w.spans.push_back({name, rid, at, dur, root, tid, true});
        at += dur;
    }
}

/// Keep `depth` requests in flight on one connection until `t_end` or
/// until `limit` requests were sent, then drain. `make(i)` builds request
/// i; `check(i, resp)` sees every response as it arrives. The generator's
/// lateness is how long a freed window slot waited for its next submit.
template <class Make, class Check>
void closed_loop(net::NetClient& c, std::size_t depth, std::uint64_t& next, std::size_t limit,
                 double t_end, bool traced, int tid, WindowStats& w, Make&& make,
                 Check&& check) {
    struct Flight {
        std::uint64_t i;
        std::uint64_t bytes;
        double t0;
    };
    std::unordered_map<std::uint64_t, Flight> flight;
    std::deque<double> freed(depth, now_s());
    std::size_t sent = 0;
    for (;;) {
        while (flight.size() < depth && sent < limit && now_s() < t_end) {
            const std::uint64_t i = next++;
            auto&& req = make(i);
            const double t0 = now_s();
            flight.emplace(c.submit(req), Flight{i, pair_bytes(req), t0});
            w.gen_lag_s.push_back(t0 - freed.front());
            freed.pop_front();
            ++sent;
            ++w.attempted;
        }
        if (flight.empty()) break;
        c.pump(0.05);
        while (auto got = c.take_response()) {
            const double t1 = now_s();
            const auto it = flight.find(got->first);
            if (it == flight.end()) throw GateFailure("response for an id never submitted");
            const Flight f = it->second;
            flight.erase(it);
            freed.push_back(t1);
            check(f.i, got->second);
            record(w, got->second, f.bytes, f.t0, f.t0, t1, tid, got->first, traced);
        }
    }
}

/// Send requests on a fixed schedule of `rate` per second from `t_start`
/// until `stop` is set, whether or not earlier ones have returned, then
/// drain. Latency runs from when each request was due.
template <class Make, class Check>
void open_loop(net::NetClient& c, double rate, double t_start, const std::atomic<bool>& stop,
               bool traced, int tid, WindowStats& w, Make&& make, Check&& check) {
    struct Flight {
        std::uint64_t i;
        std::uint64_t bytes;
        double due, sent;
    };
    std::unordered_map<std::uint64_t, Flight> flight;
    std::uint64_t k = 0;
    for (;;) {
        const double due = t_start + static_cast<double>(k) / rate;
        const bool more = !stop.load(std::memory_order_acquire);
        if (more && now_s() >= due) {
            auto&& req = make(k);
            const double sent = now_s();
            flight.emplace(c.submit(req), Flight{k, pair_bytes(req), due, sent});
            c.pump(0);  // flush now: submit() defers small frames
            w.gen_lag_s.push_back(sent - due);
            ++w.attempted;
            ++k;
            continue;
        }
        if (!more && flight.empty()) break;
        const double wait = more ? due - now_s() : 0.05;
        if (wait >= 0.001) {
            c.pump(std::min(wait, 0.05));
        } else if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        while (auto got = c.take_response()) {
            const double t1 = now_s();
            const auto it = flight.find(got->first);
            if (it == flight.end()) throw GateFailure("response for an id never submitted");
            const Flight f = it->second;
            flight.erase(it);
            check(f.i, got->second);
            record(w, got->second, f.bytes, f.due, f.sent, t1, tid, got->first, traced);
        }
    }
}

Live start_live(std::size_t connections) {
    Live live;
    live.server = std::make_unique<net::NetServer>(net::NetServerConfig{});
    live.server->start();
    for (std::size_t i = 0; i < connections; ++i) {
        net::NetClientConfig cc;
        cc.port = live.server->port();
        live.clients.push_back(std::make_unique<net::NetClient>(cc));
    }
    return live;
}

std::uint64_t wire_bytes(const Live& live) {
    std::uint64_t n = 0;
    for (const auto& c : live.clients) n += c->bytes_tx() + c->bytes_rx();
    return n;
}

/// Bracket a window with the telemetry snapshots its per-layer ratios use.
template <class Body>
WindowStats timed_window(Live& live, double seconds, Body&& body) {
    WindowStats w;
    const serve::ServiceTelemetry svc0 = live.server->service_telemetry();
    const zc::DataPlaneStats dp0 = zc::data_plane_stats();
    const std::uint64_t wire0 = wire_bytes(live);
    const double t0 = now_s();
    body(w, t0, t0 + seconds);
    w.elapsed_s = now_s() - t0;
    w.wire_bytes = wire_bytes(live) - wire0;
    const serve::ServiceTelemetry svc1 = live.server->service_telemetry();
    const zc::DataPlaneStats dp1 = zc::data_plane_stats();
    w.served = svc1.served - svc0.served;
    w.cache_hits = svc1.cache_hits - svc0.cache_hits;
    w.cache_misses = svc1.cache_misses - svc0.cache_misses;
    w.shed = svc1.shed - svc0.shed;
    w.coalesced = svc1.coalesced - svc0.coalesced;
    w.bytes_copied = dp1.bytes_copied - dp0.bytes_copied;
    w.slab_reuses = dp1.slab_reuses - dp0.slab_reuses;
    w.slab_allocs = dp1.slab_allocs - dp0.slab_allocs;
    w.frames_rejected = live.server->telemetry().frames_rejected;
    return w;
}

void check_frames(const WindowStats& w) {
    if (w.frames_rejected != 0) {
        throw GateFailure("server rejected " + std::to_string(w.frames_rejected) + " frames");
    }
}

double window_hit_frac(const WindowStats& w) {
    const auto lookups = static_cast<double>(w.cache_hits + w.cache_misses);
    return lookups > 0 ? static_cast<double>(w.cache_hits) / lookups : 0.0;
}

// --- Request sources ----------------------------------------------------

/// The default serve::generate_trace mix (3 small shapes, 32 distinct
/// combos, 10% tight deadlines), cycled. Every response must encode to the
/// same bytes as the first response to the same (entry, effective config);
/// after the window each of those is compared with an in-process
/// cuzc::assess, so every response is checked against one reference per
/// distinct combination.
class StormMix {
public:
    explicit StormMix(std::uint64_t seed) {
        serve::TraceGenConfig gen;
        gen.requests = kStormCycle;
        gen.seed = seed;
        std::map<decltype(entry_key(serve::TraceEntry{})), std::size_t> slot_of;
        for (const serve::TraceEntry& e : serve::generate_trace(gen)) {
            const auto [it, fresh] = slot_of.emplace(entry_key(e), requests_.size());
            if (fresh) requests_.push_back(serve::to_request(e));
            slot_.push_back(it->second);
        }
    }

    const serve::AssessRequest& request(std::uint64_t i) const {
        return requests_[slot_[i % slot_.size()]];
    }

    /// One pass over the trace cycle, which fills the cache with the
    /// distinct set. A pass is thousands of requests, so the occasional
    /// event-loop stall (see README.md) is a small share of set-up time.
    std::vector<std::uint64_t> warm_up_ids(std::uint64_t&) const {
        std::vector<std::uint64_t> ids(slot_.size());
        std::iota(ids.begin(), ids.end(), std::uint64_t{0});
        return ids;
    }

    /// The first trace position of each distinct request.
    std::vector<std::uint64_t> distinct_ids() const {
        std::vector<std::uint64_t> ids;
        std::vector<bool> seen(requests_.size());
        for (std::size_t e = 0; e < slot_.size(); ++e) {
            if (!seen[slot_[e]]) ids.push_back(e);
            seen[slot_[e]] = true;
        }
        return ids;
    }

    void observe(std::uint64_t i, const serve::AssessResponse& r) {
        if (r.rejected) return;
        std::vector<std::uint8_t> bytes = net::encode_report(r.result.report);
        const std::pair key{slot_[i % slot_.size()], cfg_key(r.effective_cfg)};
        const auto it = seen_.find(key);
        if (it == seen_.end()) {
            seen_.emplace(key, Seen{r.effective_cfg, std::move(bytes)});
        } else if (it->second.bytes != bytes) {
            throw GateFailure("trace mix: response diverged from an identical earlier request");
        }
    }

    void verify() const {
        for (const auto& [key, seen] : seen_) {
            const serve::AssessRequest& req = requests_[key.first];
            if (reference_report(req.orig.view(), req.dec.view(), seen.cfg) != seen.bytes) {
                throw GateFailure("trace mix: response differs from in-process cuzc::assess");
            }
        }
    }

    /// After warm-up the whole working set is cached.
    static void check_window(const WindowStats& w) {
        if (window_hit_frac(w) < 0.99) {
            throw GateFailure("hit_storm: cache hit fraction " +
                              std::to_string(window_hit_frac(w)) + " < 0.99");
        }
    }

private:
    struct Seen {
        zc::MetricsConfig cfg;
        std::vector<std::uint8_t> bytes;
    };
    std::vector<serve::AssessRequest> requests_;  ///< one per distinct trace entry
    std::vector<std::size_t> slot_;               ///< trace position -> requests_ index
    std::map<std::pair<std::size_t, CfgKey>, Seen> seen_;
};

/// 64^3 pairs built from 16 pre-generated bases (the decompressed field is
/// the SZ REL 1e-3 round trip of the original), with one element perturbed
/// by request index so content never repeats and the cache never hits.
/// With `use_sz`, the decompressed field travels as its SZ stream and the
/// original carries the perturbation.
class MissMix {
public:
    MissMix(std::uint64_t seed, bool use_sz) : sz_(use_sz) {
        const zc::Dims3 d{kMissEdge, kMissEdge, kMissEdge};
        for (std::size_t k = 0; k < kMissBases; ++k) {
            zc::Field orig = synth_field(d, seed * 1000 + k);
            streams_.push_back(sz::compress(orig.view(), sz_rel_config()).bytes);
            dec_.push_back(sz::decompress(streams_.back()));
            orig_.push_back(std::move(orig));
        }
    }

    serve::AssessRequest request(std::uint64_t i) const {
        auto [orig, dec] = fields(i);
        serve::AssessRequest req;
        req.orig = std::move(orig);
        if (sz_) {
            req.sz_stream = streams_[i % kMissBases];
        } else {
            req.dec = std::move(dec);
        }
        req.cfg = cfg_;
        return req;
    }

    /// Two fresh requests.
    static std::vector<std::uint64_t> warm_up_ids(std::uint64_t& next) {
        std::vector<std::uint64_t> ids;
        for (std::size_t k = 0; k < kMissWarmUp; ++k) ids.push_back(next++);
        return ids;
    }

    void observe(std::uint64_t i, const serve::AssessResponse& r) {
        if (i % kVerifyStride != 0 || r.rejected) return;
        kept_.push_back({i, r.effective_cfg, net::encode_report(r.result.report)});
    }

    /// Compares the kept responses; references decode the SZ stream first.
    void verify() const {
        if (kept_.empty()) throw GateFailure(name() + ": no response was sampled");
        for (const Kept& k : kept_) {
            auto [orig, dec] = fields(k.i);
            if (sz_) dec = sz::decompress(streams_[k.i % kMissBases]);
            if (reference_report(orig.view(), dec.view(), k.cfg) != k.bytes) {
                throw GateFailure(name() + ": response " + std::to_string(k.i) +
                                  " differs from in-process cuzc::assess");
            }
        }
    }

    /// Content is unique, so the cache must never hit.
    void check_window(const WindowStats& w) const {
        if (w.cache_hits != 0) {
            throw GateFailure(name() + ": the result cache hit on unique content");
        }
    }

private:
    std::string name() const { return sz_ ? "sz_miss" : "miss_64"; }

    /// The (original, decompressed) pair request i carries.
    std::pair<zc::Field, zc::Field> fields(std::uint64_t i) const {
        const std::size_t k = i % kMissBases;
        const std::size_t j = (i / kMissBases) % orig_[k].size();
        const auto copy = [](const zc::Field& f) {
            return zc::Field(f.dims(), std::vector<float>(f.data().begin(), f.data().end()));
        };
        zc::Field orig = copy(orig_[k]);
        zc::Field dec = copy(dec_[k]);
        (sz_ ? orig : dec).data()[j] += 1e-3f;
        return {std::move(orig), std::move(dec)};
    }

    struct Kept {
        std::uint64_t i;
        zc::MetricsConfig cfg;
        std::vector<std::uint8_t> bytes;
    };
    bool sz_;
    zc::MetricsConfig cfg_{};  // the paper's configuration
    std::vector<zc::Field> orig_, dec_;
    std::vector<std::vector<std::uint8_t>> streams_;
    std::vector<Kept> kept_;
};

// --- Workloads ----------------------------------------------------------

/// Closed loop on one connection. hit_storm runs StormMix 64 deep and warms
/// up with one pass over the trace cycle, after which every request hits
/// the result cache: per-request overhead alone. miss_64 and sz_miss run
/// MissMix with window 2 and warm up with two requests: kernels dominate
/// and the cache never hits.
template <class Mix>
class ClosedLoop final : public Workload {
public:
    ClosedLoop(Mix mix, std::size_t depth, double tail)
        : mix_(std::move(mix)), depth_(depth), tail_(tail) {}

    double tail_quantile() const override { return tail_; }

    Live start() override {
        Live live = start_live(1);
        net::NetClient& c = *live.clients[0];
        const std::vector<std::uint64_t> ids = mix_.warm_up_ids(next_);
        WindowStats warm;
        std::uint64_t k = 0;
        closed_loop(
            c, depth(c), k, ids.size(), kNever, false, 0, warm,
            [&](std::uint64_t j) -> decltype(auto) { return mix_.request(ids[j]); },
            [&](std::uint64_t j, const serve::AssessResponse& r) { mix_.observe(ids[j], r); });
        return live;
    }

    WindowStats run_window(Live& live, double seconds, bool traced) override {
        net::NetClient& c = *live.clients[0];
        return timed_window(live, seconds, [&](WindowStats& w, double, double t_end) {
            closed_loop(
                c, depth(c), next_, kNoLimit, t_end, traced, 0, w,
                [this](std::uint64_t i) -> decltype(auto) { return mix_.request(i); },
                [this](std::uint64_t i, const serve::AssessResponse& r) { mix_.observe(i, r); });
        });
    }

    void check_window(const WindowStats& w) override {
        check_frames(w);
        mix_.check_window(w);
    }

    void verify() override { mix_.verify(); }

    LayerMetrics walk(std::vector<Span>& spans) override {
        WalkInput in;
        for (std::size_t i = 0; i < kWalkSamples; ++i) in.requests.push_back(mix_.request(i));
        return walk_layers(in, spans);
    }

private:
    std::size_t depth(const net::NetClient& c) const {
        return std::min(depth_, c.server_max_inflight());
    }

    Mix mix_;
    std::size_t depth_;
    double tail_;
    std::uint64_t next_ = 0;
};

/// Two connections from two threads: back-to-back streaming sessions of a
/// 128^3 pair beside the hit_storm mix sent open loop at 200 requests/s.
/// Shows how much bulk streams delay small requests on the event loop.
class StreamMix final : public Workload {
public:
    explicit StreamMix(std::uint64_t seed) : mix_(seed) {
        const zc::Dims3 d{kStreamEdge, kStreamEdge, kStreamEdge};
        orig_ = synth_field(d, seed * 1000 + 999);
        dec_ = zc::Field(d);
        for (std::size_t i = 0; i < dec_.size(); ++i) {
            const double u =
                cuzc::data::to_unit(cuzc::data::mix64(seed ^ (i * 0x2545f4914f6cdd1dull)));
            dec_.data()[i] = orig_.data()[i] + static_cast<float>((u * 2.0 - 1.0) * 1e-3);
        }
        cfg_ = zc::MetricsConfig::only(zc::Pattern::kGlobalReduction);
        zc::StreamingAssessor ref(cfg_);
        for (std::size_t off = 0; off < orig_.size(); off += kStreamChunk) {
            const std::size_t n = std::min(kStreamChunk, orig_.size() - off);
            ref.feed(orig_.data().subspan(off, n), dec_.data().subspan(off, n));
        }
        zc::AssessmentReport report;
        report.reduction = ref.finalize();
        reference_ = net::encode_report(report);
    }

    double tail_quantile() const override { return 0.99; }

    Live start() override {
        Live live = start_live(2);
        WindowStats warm;
        // The small requests' distinct set goes into the cache first, as on
        // hit_storm, so the open loop sends the same all-hit mix.
        const std::vector<std::uint64_t> ids = mix_.distinct_ids();
        std::uint64_t k = 0;
        closed_loop(
            *live.clients[1], kStormDepth, k, ids.size(), kNever, false, 1, warm,
            [&](std::uint64_t j) -> const serve::AssessRequest& { return mix_.request(ids[j]); },
            [&](std::uint64_t j, const serve::AssessResponse& r) { mix_.observe(ids[j], r); });
        session(*live.clients[0], false, warm);
        return live;
    }

    WindowStats run_window(Live& live, double seconds, bool traced) override {
        return timed_window(live, seconds, [&](WindowStats& w, double t0, double t_end) {
            // The small requests keep coming until the last session ends, so
            // every one of them is sent beside a stream.
            WindowStats small;
            std::atomic<bool> streams_done{false};
            std::exception_ptr stream_failure, small_failure;
            std::thread streams([&] {
                try {
                    while (now_s() < t_end) session(*live.clients[0], traced, w);
                } catch (...) {
                    stream_failure = std::current_exception();
                }
                streams_done.store(true, std::memory_order_release);
            });
            try {
                open_loop(*live.clients[1], kOpenRate, t0, streams_done, traced, 1, small,
                          [this](std::uint64_t i) -> const serve::AssessRequest& {
                              return mix_.request(i);
                          },
                          [this](std::uint64_t i, const serve::AssessResponse& r) {
                              mix_.observe(i, r);
                          });
            } catch (...) {
                small_failure = std::current_exception();
            }
            streams.join();
            if (stream_failure) std::rethrow_exception(stream_failure);
            if (small_failure) std::rethrow_exception(small_failure);
            w.merge(std::move(small));
        });
    }

    void check_window(const WindowStats& w) override {
        check_frames(w);
        if (w.sessions == 0) throw GateFailure("stream_mix: no stream session completed");
    }

    void verify() override { mix_.verify(); }

    LayerMetrics walk(std::vector<Span>& spans) override {
        WalkInput in;
        for (std::size_t i = 0; i < kWalkSamples; ++i) in.requests.push_back(mix_.request(i));
        in.stream_orig = orig_.data();
        in.stream_dec = dec_.data();
        return walk_layers(in, spans);
    }

private:
    /// One streaming session, checked against the in-process
    /// StreamingAssessor fed with the same chunking.
    void session(net::NetClient& c, bool traced, WindowStats& w) {
        const double t0 = now_s();
        const serve::AssessResponse r =
            c.stream_assess(orig_.dims(), orig_.data(), dec_.data(), cfg_, kStreamChunk);
        const double t1 = now_s();
        ++w.attempted;
        if (r.rejected) {
            ++w.failed;
            return;
        }
        if (net::encode_report(r.result.report) != reference_) {
            throw GateFailure("stream_mix: session differs from in-process StreamingAssessor");
        }
        ++w.sessions;
        w.field_bytes += 2 * orig_.size() * sizeof(float);
        if (traced) {
            w.spans.push_back({"client.stream_session", span_id(0, w.sessions), t0, t1 - t0, -1,
                               0, false});
        }
    }

    StormMix mix_;
    zc::Field orig_, dec_;
    zc::MetricsConfig cfg_;
    std::vector<std::uint8_t> reference_;
};

}  // namespace

void WindowStats::merge(WindowStats&& other) {
    elapsed_s += other.elapsed_s;
    attempted += other.attempted;
    failed += other.failed;
    completed += other.completed;
    sessions += other.sessions;
    field_bytes += other.field_bytes;
    wire_bytes += other.wire_bytes;
    latency_s.insert(latency_s.end(), other.latency_s.begin(), other.latency_s.end());
    gen_lag_s.insert(gen_lag_s.end(), other.gen_lag_s.begin(), other.gen_lag_s.end());
    const auto offset = static_cast<std::int64_t>(spans.size());
    for (Span s : other.spans) {
        if (s.parent >= 0) s.parent += offset;
        spans.push_back(s);
    }
    served += other.served;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    shed += other.shed;
    coalesced += other.coalesced;
    bytes_copied += other.bytes_copied;
    slab_reuses += other.slab_reuses;
    slab_allocs += other.slab_allocs;
    frames_rejected += other.frames_rejected;
}

void Live::stop() {
    for (auto& c : clients) c->close();
    clients.clear();
    if (server) server->shutdown();
    server.reset();
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
    if (name == "hit_storm") {
        return std::make_unique<ClosedLoop<StormMix>>(StormMix(seed), kStormDepth, 0.99);
    }
    if (name == "miss_64" || name == "sz_miss") {
        return std::make_unique<ClosedLoop<MissMix>>(MissMix(seed, name == "sz_miss"),
                                                     kMissDepth, 0.90);
    }
    if (name == "stream_mix") return std::make_unique<StreamMix>(seed);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace suite

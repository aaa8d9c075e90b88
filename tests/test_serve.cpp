// Tests of cuzc::serve — the in-process multi-device assessment service.
//
// The acceptance bar: service results are deterministic and equal a direct
// `cuzc::assess` under the effective config (for cache hits AND misses),
// deadline-shed requests report degraded=true with the shed list, and the
// telemetry counters reconcile with the submitted trace.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cuzc/cuzc.hpp"
#include "io/json.hpp"
#include "serve/serve.hpp"
#include "sz/sz.hpp"
#include "test_helpers.hpp"
#include "zc/zc.hpp"

namespace {

namespace serve = ::cuzc::serve;
namespace czc = ::cuzc::cuzc;
namespace zc = ::cuzc::zc;
namespace sz = ::cuzc::sz;
namespace vgpu = ::cuzc::vgpu;
namespace tst = ::cuzc::testing;

constexpr zc::Dims3 kDims{10, 12, 14};

zc::MetricsConfig small_cfg() {
    zc::MetricsConfig cfg;
    cfg.ssim_window = 4;
    return cfg;
}

serve::AssessRequest make_request(std::uint64_t seed, double noise = 0.01,
                                  zc::MetricsConfig cfg = small_cfg()) {
    serve::AssessRequest req;
    req.orig = tst::smooth_field(kDims, seed);
    req.dec = tst::perturbed(req.orig, noise, seed + 100);
    req.cfg = cfg;
    return req;
}

zc::AssessmentReport direct_report(const serve::AssessRequest& req,
                                   const zc::MetricsConfig& cfg) {
    vgpu::Device dev;
    return czc::assess(dev, req.orig.view(), req.dec.view(), cfg).report;
}

TEST(Serve, MissEqualsDirectAssess) {
    serve::AssessService service;
    auto req = make_request(3);
    const zc::AssessmentReport expected = direct_report(req, req.cfg);
    auto resp = service.submit(std::move(req)).get();
    EXPECT_FALSE(resp.cache_hit);
    EXPECT_FALSE(resp.degraded);
    EXPECT_FALSE(resp.rejected);
    tst::expect_reports_close(resp.result.report, expected, 0.0);
}

TEST(Serve, HitEqualsDirectAssessAndSkipsDevice) {
    serve::ServiceConfig cfg;
    cfg.start_paused = true;
    serve::AssessService service(cfg);
    auto first = service.submit(make_request(5));
    auto second = service.submit(make_request(5));  // identical bytes + config
    service.start();
    const auto r1 = first.get();
    const auto r2 = second.get();
    EXPECT_FALSE(r1.cache_hit);
    EXPECT_TRUE(r2.cache_hit);
    tst::expect_reports_close(r2.result.report, r1.result.report, 0.0);
    tst::expect_reports_close(r2.result.report, direct_report(make_request(5), small_cfg()),
                              0.0);
    const auto tele = service.telemetry();
    EXPECT_EQ(tele.cache_hits, 1u);
    EXPECT_EQ(tele.cache_misses, 1u);
    EXPECT_EQ(tele.uploads, 2u);  // one upload pair total; the hit cost none
}

TEST(Serve, DifferentConfigIsADifferentCacheEntry) {
    serve::AssessService service;
    auto req1 = make_request(7);
    zc::MetricsConfig no_p3 = small_cfg();
    no_p3.pattern3 = false;
    auto req2 = make_request(7, 0.01, no_p3);
    const auto r1 = service.submit(std::move(req1)).get();
    const auto r2 = service.submit(std::move(req2)).get();
    EXPECT_FALSE(r2.cache_hit);  // same bytes, different config
    EXPECT_GT(r1.result.report.ssim.windows, 0);
    EXPECT_EQ(r2.result.report.ssim.windows, 0);
}

TEST(Serve, DeadlineShedsSsimFirstAndReportsDegraded) {
    serve::AssessService service;
    auto req = make_request(11);
    // Modeled cost of the full config, so we can set a deadline that fits
    // everything except SSIM.
    vgpu::GpuCostModel model({}, {});
    const double full = serve::modeled_request_cost(kDims, req.cfg, model).total();
    zc::MetricsConfig no_p3 = req.cfg;
    no_p3.pattern3 = false;
    const double without_ssim = serve::modeled_request_cost(kDims, no_p3, model).total();
    ASSERT_LT(without_ssim, full);
    req.deadline_model_s = (without_ssim + full) / 2;
    const zc::AssessmentReport expected = direct_report(req, no_p3);

    const auto resp = service.submit(std::move(req)).get();
    EXPECT_TRUE(resp.degraded);
    ASSERT_EQ(resp.shed.size(), 1u);
    EXPECT_EQ(resp.shed[0], "ssim");
    EXPECT_FALSE(resp.effective_cfg.pattern3);
    EXPECT_LE(resp.modeled_cost_s, resp.spans.total() + full);  // sanity: finite
    // Degraded result still equals a direct assess under the shed config.
    tst::expect_reports_close(resp.result.report, expected, 0.0);
}

TEST(Serve, ImpossibleDeadlineWalksTheWholeShedLadder) {
    serve::AssessService service;
    auto req = make_request(13);
    req.deadline_model_s = 1e-12;
    const auto resp = service.submit(std::move(req)).get();
    EXPECT_TRUE(resp.degraded);
    ASSERT_EQ(resp.shed.size(), 3u);
    EXPECT_EQ(resp.shed[0], "ssim");
    EXPECT_EQ(resp.shed[1], "autocorr");
    EXPECT_EQ(resp.shed[2], "deriv2");
    EXPECT_FALSE(resp.effective_cfg.pattern3);
    EXPECT_EQ(resp.effective_cfg.autocorr_max_lag, 0);
    EXPECT_EQ(resp.effective_cfg.deriv_orders, 1);
    // Pattern1 is never shed.
    EXPECT_GT(resp.result.report.reduction.psnr_db, 0.0);
}

TEST(Serve, NoDeadlineNeverDegrades) {
    serve::AssessService service;
    const auto resp = service.submit(make_request(17)).get();
    EXPECT_FALSE(resp.degraded);
    EXPECT_TRUE(resp.shed.empty());
}

TEST(Serve, CoalescesSameShapeRequestsOntoOneEpoch) {
    serve::ServiceConfig cfg;
    cfg.start_paused = true;
    cfg.cache_capacity = 0;  // force every request onto the device
    serve::AssessService service(cfg);
    std::vector<std::future<serve::AssessResponse>> futures;
    for (std::uint64_t s = 0; s < 4; ++s) {
        futures.push_back(service.submit(make_request(20 + s)));
    }
    service.start();
    std::vector<serve::AssessResponse> resps;
    for (auto& f : futures) resps.push_back(f.get());
    for (const auto& r : resps) EXPECT_EQ(r.batch_epoch, resps[0].batch_epoch);

    const auto tele = service.telemetry();
    EXPECT_EQ(tele.batches, 1u);
    EXPECT_EQ(tele.coalesced, 3u);
    // Buffer reuse across the epoch: one allocation pair, N upload pairs.
    EXPECT_EQ(tele.buffer_allocs, 2u);
    EXPECT_EQ(tele.uploads, 8u);
}

TEST(Serve, CoalesceOffProcessesOneAtATime) {
    serve::ServiceConfig cfg;
    cfg.start_paused = true;
    cfg.coalesce = false;
    cfg.cache_capacity = 0;
    serve::AssessService service(cfg);
    std::vector<std::future<serve::AssessResponse>> futures;
    for (std::uint64_t s = 0; s < 3; ++s) {
        futures.push_back(service.submit(make_request(30 + s)));
    }
    service.start();
    for (auto& f : futures) (void)f.get();
    const auto tele = service.telemetry();
    EXPECT_EQ(tele.batches, 3u);
    EXPECT_EQ(tele.coalesced, 0u);
}

TEST(Serve, AdmissionControlRejectsBeyondQueueLimit) {
    serve::ServiceConfig cfg;
    cfg.start_paused = true;
    cfg.max_queue_depth = 2;
    serve::AssessService service(cfg);
    auto f1 = service.submit(make_request(40));
    auto f2 = service.submit(make_request(41));
    auto f3 = service.submit(make_request(42));  // over the limit
    const auto r3 = f3.get();                    // resolved without workers
    EXPECT_TRUE(r3.rejected);
    EXPECT_NE(r3.error.find("queue full"), std::string::npos);
    service.start();
    EXPECT_FALSE(f1.get().rejected);
    EXPECT_FALSE(f2.get().rejected);
    const auto tele = service.telemetry();
    EXPECT_EQ(tele.queued, 3u);
    EXPECT_EQ(tele.served, 2u);
    EXPECT_EQ(tele.rejected, 1u);
}

TEST(Serve, MalformedRequestRejectedImmediately) {
    serve::AssessService service;
    serve::AssessRequest req;
    req.orig = tst::smooth_field({4, 4, 4}, 1);
    req.dec = tst::smooth_field({4, 4, 5}, 1);  // shape mismatch
    const auto resp = service.submit(std::move(req)).get();
    EXPECT_TRUE(resp.rejected);
    EXPECT_NE(resp.error.find("mismatch"), std::string::npos);
}

TEST(Serve, CallbackSubmitCompletesOnceAfterTelemetrySettles) {
    // One request: by the time its completion runs, the telemetry already
    // counts it as served, with nothing left in flight.
    {
        serve::AssessService service;
        std::promise<serve::ServiceTelemetry> seen;
        service.submit(make_request(61), [&](serve::AssessResponse resp) {
            EXPECT_FALSE(resp.rejected) << resp.error;
            seen.set_value(service.telemetry());
        });
        const serve::ServiceTelemetry t = seen.get_future().get();
        EXPECT_EQ(t.served, 1u);
        EXPECT_EQ(t.inflight, 0u);
        EXPECT_EQ(t.latency.count, 1u);
    }

    // Many requests on two workers, some of them cache hits: each
    // completion runs exactly once, and every completion that has started
    // had its counters settled before it ran.
    constexpr std::size_t kN = 12;
    std::mutex mu;
    std::condition_variable cv;
    std::vector<int> calls(kN, 0);
    std::size_t started = 0;
    bool counted = true;
    {
        serve::ServiceConfig scfg;
        scfg.devices = 2;
        serve::AssessService service(scfg);
        for (std::size_t i = 0; i < kN; ++i) {
            service.submit(make_request(70 + i % 4), [&, i](serve::AssessResponse resp) {
                std::lock_guard lk(mu);
                ++calls[i];
                ++started;
                const serve::ServiceTelemetry t = service.telemetry();
                counted = counted && !resp.rejected && t.served >= started &&
                          t.latency.count >= started;
                cv.notify_all();
            });
        }
        std::unique_lock lk(mu);
        EXPECT_TRUE(cv.wait_for(lk, std::chrono::seconds(60), [&] { return started == kN; }));
    }  // the destructor joins the workers: a repeat completion has run by now
    EXPECT_TRUE(counted);
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(calls[i], 1) << i;
}

TEST(Serve, SubmitTimeRejectionCompletesOnTheCallingThread) {
    serve::ServiceConfig scfg;
    scfg.start_paused = true;
    scfg.max_queue_depth = 1;
    serve::AssessService service(scfg);

    // Invalid request (empty original) and queue full: both complete on
    // this thread before submit returns, already counted as rejected.
    service.submit(make_request(81), [](serve::AssessResponse) {});
    std::uint64_t rejections = 0;
    const auto expect_inline_rejection = [&](serve::AssessRequest req, const std::string& why) {
        std::optional<std::thread::id> ran_on;
        serve::AssessResponse got;
        std::uint64_t rejected_seen = 0;
        service.submit(std::move(req), [&](serve::AssessResponse resp) {
            ran_on = std::this_thread::get_id();
            rejected_seen = service.telemetry().rejected;
            got = std::move(resp);
        });
        ++rejections;
        ASSERT_TRUE(ran_on.has_value()) << why;
        EXPECT_EQ(*ran_on, std::this_thread::get_id());
        EXPECT_TRUE(got.rejected);
        EXPECT_EQ(got.error, why);
        EXPECT_EQ(rejected_seen, rejections);
    };
    expect_inline_rejection(serve::AssessRequest{}, "empty original field");
    expect_inline_rejection(make_request(82), "queue full (admission control)");
}

TEST(Serve, SzStreamRequestDecodesOnWorker) {
    auto base = make_request(51);
    sz::SzConfig scfg;
    scfg.abs_error_bound = 1e-3;
    const auto comp = sz::compress(base.orig.view(), scfg);
    const zc::Field dec = sz::decompress(comp.bytes);

    serve::AssessRequest req;
    req.orig = base.orig;
    req.sz_stream = comp.bytes;
    req.cfg = small_cfg();
    serve::AssessService service;
    const auto resp = service.submit(std::move(req)).get();
    EXPECT_FALSE(resp.rejected);

    vgpu::Device dev;
    const auto expected = czc::assess(dev, base.orig.view(), dec.view(), small_cfg());
    tst::expect_reports_close(resp.result.report, expected.report, 0.0);
}

TEST(Serve, TelemetryReconcilesWithGeneratedTrace) {
    serve::TraceGenConfig gen;
    gen.requests = 40;
    gen.distinct = 8;
    gen.tight_deadline_fraction = 0.2;
    const auto trace = serve::generate_trace(gen);
    ASSERT_EQ(trace.size(), 40u);

    serve::ServiceConfig cfg;
    cfg.start_paused = true;
    cfg.devices = 2;
    serve::AssessService service(cfg);
    std::vector<std::future<serve::AssessResponse>> futures;
    for (const auto& e : trace) futures.push_back(service.submit(serve::to_request(e)));
    service.start();

    std::uint64_t degraded = 0, hits = 0, rejected = 0;
    for (auto& f : futures) {
        const auto r = f.get();
        degraded += r.degraded;
        hits += r.cache_hit;
        rejected += r.rejected;
    }
    const auto tele = service.telemetry();
    EXPECT_EQ(tele.queued, trace.size());
    EXPECT_EQ(tele.served + tele.rejected, tele.queued);
    EXPECT_EQ(tele.rejected, rejected);
    EXPECT_EQ(tele.cache_hits + tele.cache_misses, tele.served);
    EXPECT_EQ(tele.cache_hits, hits);
    EXPECT_EQ(tele.shed, degraded);
    EXPECT_GT(tele.cache_hits, 0u);  // 8 distinct combos over 40 requests
    EXPECT_EQ(tele.latency.count, tele.served);
    EXPECT_EQ(tele.max_queue_depth, trace.size());  // paused: all enqueued first

    std::ostringstream json;
    json << tele.json();
    EXPECT_NE(json.str().find("\"schema\": \"cuzc-serve-telemetry-v2\""), std::string::npos);
    EXPECT_NE(json.str().find("\"bucket_counts\""), std::string::npos);
}

// Pull a `"key": N` integer out of the telemetry JSON; -1 if absent.
long long json_counter(const std::string& json, const std::string& key) {
    const std::string needle = "\"" + key + "\": ";
    const auto pos = json.find(needle);
    if (pos == std::string::npos) return -1;
    return std::atoll(json.c_str() + pos + needle.size());
}

TEST(Serve, TelemetryJsonParsesBackAndReconciles) {
    // The JSON artifact is what dashboards scrape — the accounting
    // invariant must hold on the *parsed-back* numbers, not just on the
    // in-memory struct. Pause the service so a known queue depth is
    // visible in the snapshot taken mid-flight.
    serve::ServiceConfig cfg;
    cfg.start_paused = true;
    serve::AssessService service(cfg);
    std::vector<std::future<serve::AssessResponse>> futures;
    for (std::uint64_t s = 0; s < 6; ++s) futures.push_back(service.submit(make_request(s)));

    const auto snapshot = [&service] {
        std::ostringstream os;
        os << service.telemetry().json();
        return os.str();
    };
    const std::string paused = snapshot();
    EXPECT_EQ(json_counter(paused, "queued"), 6);
    EXPECT_EQ(json_counter(paused, "queued"),
              json_counter(paused, "served") + json_counter(paused, "rejected") +
                  json_counter(paused, "queue_depth") + json_counter(paused, "inflight"));

    service.start();
    for (auto& f : futures) (void)f.get();
    const std::string drained = snapshot();
    EXPECT_EQ(json_counter(drained, "queued"), 6);
    EXPECT_EQ(json_counter(drained, "served") + json_counter(drained, "rejected"), 6);
    EXPECT_EQ(json_counter(drained, "queue_depth"), 0);
    EXPECT_EQ(json_counter(drained, "inflight"), 0);
    EXPECT_EQ(json_counter(drained, "queued"),
              json_counter(drained, "served") + json_counter(drained, "rejected") +
                  json_counter(drained, "queue_depth") + json_counter(drained, "inflight"));
}

TEST(ServeTelemetry, ServiceLedgerFailsWhenOneCounterIsOffByOne) {
    using T = serve::ServiceTelemetry;
    T t;
    t.queued = 10;
    t.served = 7;
    t.rejected = 1;
    t.queue_depth = 1;
    t.inflight = 1;
    t.cache_hits = 3;
    t.cache_misses = 4;
    t.shed = 7;
    t.latency.count = 8;
    ASSERT_TRUE(t.reconciles());
    // queued == served + rejected + queue_depth + inflight, and
    // served == cache_hits + cache_misses.
    for (std::uint64_t T::*c : {&T::queued, &T::served, &T::rejected, &T::queue_depth,
                                &T::inflight, &T::cache_hits, &T::cache_misses}) {
        T off = t;
        ++(off.*c);
        EXPECT_FALSE(off.reconciles());
    }
    T shed = t;  // shed <= served
    ++shed.shed;
    EXPECT_FALSE(shed.reconciles());
    T spans = t;  // latency.count == served + rejected
    ++spans.latency.count;
    EXPECT_FALSE(spans.reconciles());
}

TEST(ServeTelemetry, NetLedgerFailsWhenOneCounterIsOffByOne) {
    using T = serve::NetTelemetry;
    T t;
    t.requests_accepted = 5;
    t.requests_completed = 3;
    t.requests_failed = 1;
    t.requests_in_flight = 1;
    t.connections_accepted = 3;
    t.connections_active = 1;
    t.connections_closed = 2;
    t.streams_opened = 2;
    t.streams_aborted = 2;
    ASSERT_TRUE(t.reconciles());
    // The request ledger, the connection ledger and streams_opened >=
    // streams_aborted.
    for (std::uint64_t T::*c :
         {&T::requests_accepted, &T::requests_completed, &T::requests_failed,
          &T::requests_in_flight, &T::connections_accepted, &T::connections_active,
          &T::connections_closed, &T::streams_aborted}) {
        T off = t;
        ++(off.*c);
        EXPECT_FALSE(off.reconciles());
    }
}

TEST(Serve, ServiceMatchesDirectAssessAcrossTrace) {
    // Replays a small trace through the service and cross-checks every
    // non-degraded response against a direct assess of the same pair.
    serve::TraceGenConfig gen;
    gen.requests = 12;
    gen.distinct = 4;
    gen.tight_deadline_fraction = 0.0;
    const auto trace = serve::generate_trace(gen);
    serve::AssessService service;
    for (const auto& e : trace) {
        const auto resp = service.submit(serve::to_request(e)).get();
        ASSERT_FALSE(resp.rejected);
        auto [orig, dec] = serve::materialize(e);
        vgpu::Device dev;
        const auto expected = czc::assess(dev, orig.view(), dec.view(), e.metrics());
        tst::expect_reports_close(resp.result.report, expected.report, 0.0,
                                  e.pattern1, e.pattern2, e.pattern3);
    }
}

TEST(Serve, LruEvictsAndCounts) {
    serve::ServiceConfig cfg;
    cfg.cache_capacity = 2;
    serve::AssessService service(cfg);
    for (std::uint64_t s = 0; s < 4; ++s) {
        (void)service.submit(make_request(60 + s)).get();
    }
    const auto tele = service.telemetry();
    EXPECT_EQ(tele.cache_evictions, 2u);
    EXPECT_EQ(tele.cache_size, 2u);
    // Oldest entry is gone: asking for it again misses.
    const auto again = service.submit(make_request(60)).get();
    EXPECT_FALSE(again.cache_hit);
    // Newest is still cached.
    const auto newest = service.submit(make_request(63)).get();
    EXPECT_TRUE(newest.cache_hit);
}

TEST(Serve, TraceRoundTripsThroughText) {
    serve::TraceGenConfig gen;
    gen.requests = 10;
    const auto trace = serve::generate_trace(gen);
    std::stringstream ss;
    serve::write_trace(ss, trace);
    const auto back = serve::read_trace(ss);
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(back[i].dims, trace[i].dims);
        EXPECT_EQ(back[i].seed, trace[i].seed);
        EXPECT_DOUBLE_EQ(back[i].noise, trace[i].noise);
        EXPECT_EQ(back[i].pattern2, trace[i].pattern2);
        EXPECT_EQ(back[i].pattern3, trace[i].pattern3);
        EXPECT_EQ(back[i].deriv_orders, trace[i].deriv_orders);
        EXPECT_EQ(back[i].pdf_bins, trace[i].pdf_bins);
        EXPECT_EQ(back[i].ssim_step, trace[i].ssim_step);
        EXPECT_DOUBLE_EQ(back[i].deadline_us, trace[i].deadline_us);
        EXPECT_EQ(back[i].priority, trace[i].priority);
        // The round-tripped entry reproduces the full metrics config, so a
        // replayed trace hits the same cache keys as the original run.
        const auto a = trace[i].metrics();
        const auto b = back[i].metrics();
        EXPECT_EQ(a.pdf_bins, b.pdf_bins);
        EXPECT_EQ(a.deriv_orders, b.deriv_orders);
        EXPECT_EQ(a.ssim_step, b.ssim_step);
    }
    // The generator varies the round-tripped knobs (regression: these were
    // silently dropped by write_trace and reset to defaults on read).
    bool varied = false;
    for (const auto& e : trace) varied |= e.pdf_bins != 100 || e.ssim_step != 1;
    EXPECT_TRUE(varied);
}

TEST(Serve, ReadTraceRejectsMalformedLines) {
    const auto rejects = [](const std::string& line) {
        std::istringstream is(line + "\n");
        EXPECT_THROW((void)serve::read_trace(is), std::runtime_error) << line;
    };
    rejects("req dims=2x2 seed=1");       // two extents
    rejects("nope dims=2x2x2");           // wrong record tag
    rejects("req seed=abc");              // non-numeric
    rejects("req win=12abc");             // trailing garbage: no stoi truncation
    rejects("req win=0");                 // SSIM window must be positive
    rejects("req win=-3");
    rejects("req lag=-1");                // negative lag
    rejects("req deriv=0");
    rejects("req bins=0");
    rejects("req step=0");
    rejects("req noise=-0.5");            // negative amplitude
    rejects("req deadline_us=-1");
    rejects("req p1=2");                  // flags are strictly 0/1
    rejects("req prio=1.5");
    // Unknown keys still pass (forward compatibility), comments skipped.
    std::istringstream ok("# comment\n\nreq dims=2x2x2 seed=1 future_key=9\n");
    EXPECT_EQ(serve::read_trace(ok).size(), 1u);
    // Errors carry the offending line number.
    std::istringstream numbered("# cuzc-trace-v1\nreq dims=2x2x2 seed=1\nreq win=12abc\n");
    try {
        (void)serve::read_trace(numbered);
        FAIL() << "expected parse failure";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
    }
}

TEST(Serve, CacheKeyIsContentAddressed) {
    const zc::Field a = tst::smooth_field(kDims, 1);
    const zc::Field b = tst::perturbed(a, 0.01, 2);
    const auto cfg = small_cfg();
    const auto k1 = serve::result_cache_key(a.view(), b.view(), cfg);
    const auto k2 = serve::result_cache_key(a.view(), b.view(), cfg);
    EXPECT_EQ(k1, k2);
    // Single-bit content change changes the key.
    zc::Field b2 = b;
    b2.data()[0] = std::nextafter(b2.data()[0], 1e30f);
    EXPECT_NE(serve::result_cache_key(a.view(), b2.view(), cfg), k1);
    // Config changes change the key.
    auto cfg2 = cfg;
    cfg2.autocorr_max_lag = 3;
    EXPECT_NE(serve::result_cache_key(a.view(), b.view(), cfg2), k1);
    // Swapping orig/dec changes the key.
    EXPECT_NE(serve::result_cache_key(b.view(), a.view(), cfg), k1);
}

TEST(Serve, CacheKeyCoversShapeNotJustBytes) {
    // Regression: the key hashed the dec bytes but not the dec dims, so
    // two assessments over identical bytes reshaped differently (stencil
    // and SSIM results differ!) collided into one cache entry.
    const auto cfg = small_cfg();
    std::vector<float> orig_bytes(24), dec_bytes(24);
    for (std::size_t i = 0; i < orig_bytes.size(); ++i) {
        orig_bytes[i] = static_cast<float>(i) * 0.5f;
        dec_bytes[i] = orig_bytes[i] + 0.01f;
    }
    const zc::Dims3 tall{2, 3, 4}, wide{4, 3, 2};
    const auto k_tall = serve::result_cache_key(zc::Tensor3f(orig_bytes, tall),
                                                zc::Tensor3f(dec_bytes, tall), cfg);
    const auto k_wide = serve::result_cache_key(zc::Tensor3f(orig_bytes, wide),
                                                zc::Tensor3f(dec_bytes, wide), cfg);
    EXPECT_NE(k_tall, k_wide);

    // Mismatched orig/dec shapes can never be a valid cache identity; the
    // key refuses instead of hashing an inconsistent pair.
    EXPECT_THROW((void)serve::result_cache_key(zc::Tensor3f(orig_bytes, tall),
                                               zc::Tensor3f(dec_bytes, wide), cfg),
                 std::invalid_argument);
}

TEST(Serve, CacheKeyProperties) {
    const zc::MetricsConfig cfg;
    const auto key = [&](std::span<const float> o, std::span<const float> d, zc::Dims3 dims,
                         const zc::MetricsConfig& c) {
        return serve::result_cache_key(zc::Tensor3f(o, dims), zc::Tensor3f(d, dims), c);
    };
    std::uint64_t state = 0x5eed;
    const auto next = [&] { return ::cuzc::data::mix64(++state); };

    // Random pairs give distinct keys.
    {
        const zc::Dims3 dims{2, 3, 5};
        std::vector<float> o(30), d(30);
        std::unordered_set<serve::CacheKey, serve::CacheKeyHash> seen;
        for (int i = 0; i < 10000; ++i) {
            for (std::size_t j = 0; j < o.size(); ++j) {
                o[j] = static_cast<float>(next() >> 40);
                d[j] = static_cast<float>(next() >> 40);
            }
            EXPECT_TRUE(seen.insert(key(o, d, dims, cfg)).second) << "pair " << i;
        }
    }

    // 5x5x7 floats are 700 bytes: ten 64-byte rounds and a 60-byte tail.
    // Flipping any one bit of the first 64 bytes, the last 64 bytes (tail
    // included) or the tail alone, in either field, changes the key.
    const zc::Dims3 dims{5, 5, 7};
    std::vector<float> o(175), d(175);
    for (std::size_t j = 0; j < o.size(); ++j) {
        o[j] = static_cast<float>(j) * 0.25f;
        d[j] = o[j] + 0.01f;
    }
    const serve::CacheKey base = key(o, d, dims, cfg);
    const std::size_t bytes = o.size() * sizeof(float);
    for (std::vector<float>* field : {&o, &d}) {
        auto* raw = reinterpret_cast<unsigned char*>(field->data());
        for (const auto& [from, to] : {std::pair<std::size_t, std::size_t>{0, 64},
                                      {bytes - 64, bytes}, {640, bytes}}) {
            for (std::size_t b = from * 8; b < to * 8; ++b) {
                raw[b / 8] ^= static_cast<unsigned char>(1u << (b % 8));
                EXPECT_NE(key(o, d, dims, cfg), base) << "bit " << b;
                raw[b / 8] ^= static_cast<unsigned char>(1u << (b % 8));
            }
        }
    }
    ASSERT_EQ(key(o, d, dims, cfg), base);

    // The same bytes at another alignment give the same key.
    std::vector<float> shifted(2 * o.size() + 16);
    for (std::size_t at = 1; at < 16; ++at) {
        std::copy(o.begin(), o.end(), shifted.begin() + at);
        std::copy(d.begin(), d.end(), shifted.begin() + at + o.size());
        const std::span<const float> all(shifted);
        EXPECT_EQ(key(all.subspan(at, o.size()), all.subspan(at + o.size(), d.size()), dims, cfg),
                  base)
            << "float offset " << at;
    }

    // Every shape permutation over the same bytes, and every config knob,
    // gives its own key.
    std::vector<serve::CacheKey> keys;
    for (const zc::Dims3 p : {zc::Dims3{5, 5, 7}, {5, 7, 5}, {7, 5, 5}, {1, 25, 7}, {35, 5, 1},
                              {175, 1, 1}}) {
        keys.push_back(key(o, d, p, cfg));
    }
    for (int knob = 0; knob < 9; ++knob) {
        zc::MetricsConfig c = cfg;
        switch (knob) {
            case 0: c.pattern1 = !c.pattern1; break;
            case 1: c.pattern2 = !c.pattern2; break;
            case 2: c.pattern3 = !c.pattern3; break;
            case 3: c.pdf_bins += 1; break;
            case 4: c.autocorr_max_lag += 1; break;
            case 5: c.deriv_orders -= 1; break;
            case 6: c.ssim_window += 1; break;
            case 7: c.ssim_step += 1; break;
            case 8: c.pwr_eps *= 2; break;
        }
        keys.push_back(key(o, d, dims, c));
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (std::size_t j = i + 1; j < keys.size(); ++j) {
            EXPECT_NE(keys[i], keys[j]) << i << " " << j;
        }
    }
}

// ---------------------------------------------------------------------------
// Fault containment, retry/timeout ladder, and the circuit breaker.

serve::ServiceConfig fault_config(vgpu::FaultPlan plan) {
    serve::ServiceConfig cfg;
    cfg.faults = plan;
    cfg.retry_backoff_s = 1e-6;  // keep injected-failure tests fast
    return cfg;
}

TEST(ServeFaults, KernelThrowRejectsInsteadOfHanging) {
    vgpu::FaultPlan plan;
    plan.seed = 11;
    plan.kernel_throw = 1.0;  // every launch aborts
    auto cfg = fault_config(plan);
    cfg.max_retries = 0;
    cfg.breaker_threshold = 0;  // breaker off: isolate containment itself
    serve::AssessService service(cfg);
    const auto resp = service.submit(make_request(21)).get();  // must not hang
    EXPECT_TRUE(resp.rejected);
    EXPECT_FALSE(resp.timed_out);
    EXPECT_NE(resp.error.find("injected fault"), std::string::npos);
    EXPECT_GT(resp.faults, 0u);
    // The worker survived: the next fault-free request (cap the burst via a
    // second service) would still be served; here, telemetry reconciles.
    const auto tele = service.telemetry();
    EXPECT_EQ(tele.queued, 1u);
    EXPECT_EQ(tele.rejected, 1u);
    EXPECT_EQ(tele.served, 0u);
    EXPECT_EQ(tele.latency.count, 1u);
    EXPECT_EQ(tele.faults_injected, resp.faults);
}

TEST(ServeFaults, TransientFaultBurstRetriesToSuccess) {
    // Every launch aborts until the 3-injection burst is spent, so attempts
    // 1..3 fail and attempt 4 succeeds — fully deterministic.
    vgpu::FaultPlan plan;
    plan.seed = 11;
    plan.kernel_throw = 1.0;
    plan.max_faults = 3;
    auto cfg = fault_config(plan);
    cfg.max_retries = 5;
    serve::AssessService service(cfg);
    auto req = make_request(22);
    const zc::AssessmentReport expected = direct_report(req, req.cfg);
    const auto resp = service.submit(std::move(req)).get();
    ASSERT_FALSE(resp.rejected) << resp.error;
    EXPECT_EQ(resp.retries, 3u);
    EXPECT_EQ(resp.faults, 3u);
    // Kernel aborts fire before any block runs and buffers are re-staged
    // per attempt, so the recovered result is exact.
    tst::expect_reports_close(resp.result.report, expected, 0.0);
    const auto tele = service.telemetry();
    EXPECT_EQ(tele.retries, 3u);
    EXPECT_EQ(tele.served, 1u);
    EXPECT_EQ(tele.rejected, 0u);
}

TEST(ServeFaults, SeededInjectionIsDeterministicAcrossRuns) {
    serve::TraceGenConfig gen;
    gen.requests = 30;
    gen.distinct = 8;
    const auto trace = serve::generate_trace(gen);

    const auto replay = [&trace] {
        vgpu::FaultPlan plan;
        plan.seed = 99;
        plan.kernel_throw = 0.3;
        auto cfg = fault_config(plan);
        cfg.max_retries = 1;
        cfg.breaker_threshold = 0;
        cfg.start_paused = true;  // one worker, fixed pickup order
        serve::AssessService service(cfg);
        std::vector<std::future<serve::AssessResponse>> futures;
        for (const auto& e : trace) futures.push_back(service.submit(serve::to_request(e)));
        service.start();
        std::vector<std::pair<bool, std::uint64_t>> outcomes;
        for (auto& f : futures) {
            const auto r = f.get();
            outcomes.emplace_back(r.rejected, r.faults);
        }
        return outcomes;
    };
    const auto first = replay();
    const auto second = replay();
    EXPECT_EQ(first, second);
    // The plan actually fired on this trace (guards against a silently
    // disabled fault stream making the determinism check vacuous).
    std::size_t rejected = 0;
    for (const auto& [rej, faults] : first) rejected += rej;
    EXPECT_GT(rejected, 0u);
}

TEST(ServeFaults, BreakerOpensAfterThresholdAndClosesOnProbe) {
    // A 2-injection burst with no retries: requests 1 and 2 fail, tripping
    // the threshold-2 breaker; after the cooldown the half-open probe
    // (request 3) runs fault-free and closes it.
    vgpu::FaultPlan plan;
    plan.seed = 5;
    plan.kernel_throw = 1.0;
    plan.max_faults = 2;
    auto cfg = fault_config(plan);
    cfg.max_retries = 0;
    cfg.breaker_threshold = 2;
    cfg.breaker_cooldown_s = 5e-3;
    cfg.max_batch = 1;  // one request per batch so failures count one by one
    cfg.coalesce = false;
    serve::AssessService service(cfg);
    EXPECT_TRUE(service.submit(make_request(31)).get().rejected);
    EXPECT_TRUE(service.submit(make_request(32)).get().rejected);
    const auto probe = service.submit(make_request(33)).get();
    EXPECT_FALSE(probe.rejected) << probe.error;
    const auto tele = service.telemetry();
    EXPECT_EQ(tele.breaker_opens, 1u);
    EXPECT_EQ(tele.breaker_open, 0u);  // gauge: closed again after the probe
    EXPECT_EQ(tele.served, 1u);
    EXPECT_EQ(tele.rejected, 2u);
}

TEST(ServeFaults, TimeoutRejectsWithoutDeadlineInterference) {
    // Wall-clock ceiling fires: any nonzero queue wait exceeds 1 ns.
    serve::ServiceConfig cfg;
    cfg.request_timeout_s = 1e-9;
    serve::AssessService service(cfg);
    const auto resp = service.submit(make_request(41)).get();
    EXPECT_TRUE(resp.rejected);
    EXPECT_TRUE(resp.timed_out);
    const auto tele = service.telemetry();
    EXPECT_EQ(tele.timeouts, 1u);
    EXPECT_EQ(tele.rejected, 1u);
    EXPECT_EQ(tele.latency.count, 1u);  // timeouts record a span too
}

TEST(ServeFaults, DeadlineShedsUnderGenerousTimeout) {
    // The modeled-seconds deadline and the wall-clock timeout are separate
    // ladders: a tight deadline degrades, a generous timeout never fires.
    serve::ServiceConfig cfg;
    cfg.request_timeout_s = 30.0;
    serve::AssessService service(cfg);
    auto req = make_request(42);
    req.deadline_model_s = 1e-9;
    const auto resp = service.submit(std::move(req)).get();
    EXPECT_FALSE(resp.rejected);
    EXPECT_FALSE(resp.timed_out);
    EXPECT_TRUE(resp.degraded);
    const auto tele = service.telemetry();
    EXPECT_EQ(tele.timeouts, 0u);
    EXPECT_EQ(tele.breaker_opens, 0u);
    EXPECT_EQ(tele.shed, 1u);
}

TEST(ServeFaults, ModeledBacklogReleasesPerRequestAndDrainsToZero) {
    // Latency injection keeps the batch on-device long enough to observe
    // the backlog shrinking per completed request, not per finished batch.
    vgpu::FaultPlan plan;
    plan.seed = 3;
    plan.latency = 1.0;
    plan.latency_ms = 10.0;
    auto cfg = fault_config(plan);
    cfg.start_paused = true;
    serve::AssessService service(cfg);
    auto f0 = service.submit(make_request(51));
    auto f1 = service.submit(make_request(52, 0.02));  // distinct content
    const double backlog_at_submit = service.telemetry().modeled_backlog_s;
    EXPECT_GT(backlog_at_submit, 0.0);
    service.start();
    (void)f0.get();
    // First request complete, second still stalled on injected latency: its
    // backlog share must already be released (the old code held the whole
    // batch until the loop finished).
    const double backlog_mid = service.telemetry().modeled_backlog_s;
    EXPECT_LT(backlog_mid, backlog_at_submit);
    (void)f1.get();
    service.drain();
    EXPECT_EQ(service.telemetry().modeled_backlog_s, 0.0);
    EXPECT_EQ(service.telemetry().inflight, 0u);
}

TEST(ServeFaults, FaultedTraceReplayFulfillsEveryFutureAndReconciles) {
    // The acceptance scenario: a 200-request replay with kernel aborts
    // injected into a noticeable slice of launches. Every future must
    // resolve, fault-free responses must equal a direct assess, and the
    // counters must reconcile exactly.
    serve::TraceGenConfig gen;
    gen.requests = 200;
    gen.distinct = 32;
    const auto trace = serve::generate_trace(gen);

    vgpu::FaultPlan plan;
    plan.seed = 7;
    plan.kernel_throw = 0.12;
    auto cfg = fault_config(plan);
    cfg.devices = 2;
    cfg.max_retries = 1;
    cfg.breaker_threshold = 4;
    cfg.breaker_cooldown_s = 1e-3;
    serve::AssessService service(cfg);

    std::vector<std::future<serve::AssessResponse>> futures;
    for (const auto& e : trace) futures.push_back(service.submit(serve::to_request(e)));
    std::uint64_t rejected = 0, hits = 0, degraded = 0, faulted_ok = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(60)),
                  std::future_status::ready);  // no hangs, ever
        const auto r = futures[i].get();
        rejected += r.rejected;
        hits += r.cache_hit;
        degraded += !r.rejected && r.degraded;  // tele.shed counts served only
        if (r.rejected || r.degraded) continue;
        if (r.faults > 0) {
            ++faulted_ok;  // recovered via retry; still cross-checked below
        }
        auto [orig, dec] = serve::materialize(trace[i]);
        vgpu::Device dev;
        const auto expected = czc::assess(dev, orig.view(), dec.view(), trace[i].metrics());
        tst::expect_reports_close(r.result.report, expected.report, 0.0, trace[i].pattern1,
                                  trace[i].pattern2, trace[i].pattern3);
    }
    EXPECT_GT(rejected + faulted_ok, 0u);  // the plan really fired

    const auto tele = service.telemetry();
    EXPECT_EQ(tele.queued, trace.size());
    EXPECT_EQ(tele.queued, tele.served + tele.rejected + tele.queue_depth + tele.inflight);
    EXPECT_EQ(tele.served, tele.cache_hits + tele.cache_misses);
    EXPECT_EQ(tele.latency.count, tele.served + tele.rejected);
    EXPECT_EQ(tele.rejected, rejected);
    EXPECT_EQ(tele.cache_hits, hits);
    EXPECT_EQ(tele.shed, degraded);
    EXPECT_GT(tele.faults_injected, 0u);
}

TEST(ServeFaults, FaultPlanParsesSpecsStrictly) {
    const auto plan = vgpu::FaultPlan::parse(
        "seed=7,kernel=0.1,alloc=0.05,upload=0.01,latency=0.2,latency_ms=2,max=10");
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_DOUBLE_EQ(plan.kernel_throw, 0.1);
    EXPECT_DOUBLE_EQ(plan.alloc_fail, 0.05);
    EXPECT_DOUBLE_EQ(plan.upload_corrupt, 0.01);
    EXPECT_DOUBLE_EQ(plan.latency, 0.2);
    EXPECT_DOUBLE_EQ(plan.latency_ms, 2.0);
    EXPECT_EQ(plan.max_faults, 10u);
    EXPECT_TRUE(plan.enabled());
    EXPECT_FALSE(vgpu::FaultPlan{}.enabled());
    EXPECT_THROW((void)vgpu::FaultPlan::parse("seed=7,bogus=1"), std::runtime_error);
    EXPECT_THROW((void)vgpu::FaultPlan::parse("seed=7,kernel=1.5"), std::runtime_error);
    EXPECT_THROW((void)vgpu::FaultPlan::parse("seed=7,kernel=0.1abc"), std::runtime_error);
    EXPECT_THROW((void)vgpu::FaultPlan::parse("seed=7,kernel"), std::runtime_error);
}

TEST(Serve, DestructorDrainsAcceptedRequests) {
    std::future<serve::AssessResponse> future;
    {
        serve::ServiceConfig cfg;
        cfg.start_paused = true;
        serve::AssessService service(cfg);
        future = service.submit(make_request(71));
        // Never started; the destructor must still serve the backlog.
    }
    const auto resp = future.get();
    EXPECT_FALSE(resp.rejected);
    EXPECT_GT(resp.result.report.reduction.psnr_db, 0.0);
}

// Sharded serving: a request whose modeled cost clears the threshold fans
// out across every currently idle device via the parallel multi-GPU path.

TEST(ServeShards, ExpensiveRequestShardsAcrossIdleDevices) {
    serve::ServiceConfig cfg;
    cfg.devices = 4;
    cfg.shard_threshold_s = 1e-12;  // everything is "expensive"
    serve::AssessService service(cfg);
    auto req = make_request(80);
    const zc::AssessmentReport expected = direct_report(req, req.cfg);
    const auto resp = service.submit(std::move(req)).get();
    ASSERT_FALSE(resp.rejected) << resp.error;
    EXPECT_FALSE(resp.degraded);
    // A fresh service has every peer idle, so the one request takes the
    // whole pool.
    EXPECT_EQ(resp.shards, 4u);
    EXPECT_GT(resp.exchange_bytes, 0u);
    EXPECT_FALSE(resp.cache_hit);
    // Slab merges sum in device order — ulps from single-device, not bits.
    tst::expect_reports_close(resp.result.report, expected, 1e-9);

    const auto tele = service.telemetry();
    EXPECT_EQ(tele.shards, resp.shards);
    EXPECT_EQ(tele.exchange_bytes, resp.exchange_bytes);
    EXPECT_EQ(tele.served, 1u);
    EXPECT_EQ(tele.queued, tele.served + tele.rejected + tele.queue_depth + tele.inflight);
}

TEST(ServeShards, ShardedResultBypassesCache) {
    serve::ServiceConfig cfg;
    cfg.devices = 4;
    cfg.shard_threshold_s = 1e-12;
    serve::AssessService service(cfg);
    const auto r1 = service.submit(make_request(81)).get();
    const auto r2 = service.submit(make_request(81)).get();  // identical request
    ASSERT_FALSE(r1.rejected);
    ASSERT_FALSE(r2.rejected);
    EXPECT_GT(r1.shards, 1u);
    // The single-device cache contract promises bit-exact replay; a sharded
    // result's summation order differs, so it must never be served from —
    // or inserted into — the cache.
    EXPECT_FALSE(r1.cache_hit);
    EXPECT_FALSE(r2.cache_hit);
    EXPECT_EQ(service.telemetry().cache_hits, 0u);
}

TEST(ServeShards, ConcurrentSubmissionsShardAndReconcile) {
    // The TSan-facing test: many distinct requests racing over a small
    // device pool, with the sharder leasing whatever happens to be idle.
    // Every future must resolve with a correct report, and the shard
    // telemetry must equal the per-response view exactly.
    constexpr std::size_t kRequests = 12;
    serve::ServiceConfig cfg;
    cfg.devices = 4;
    cfg.shard_threshold_s = 1e-12;
    serve::AssessService service(cfg);
    std::vector<zc::AssessmentReport> expected;
    std::vector<std::future<serve::AssessResponse>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
        auto req = make_request(100 + i);
        expected.push_back(direct_report(req, req.cfg));
        futures.push_back(service.submit(std::move(req)));
    }
    std::uint64_t shards = 0, exchange = 0, shard_retries = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
        const auto resp = futures[i].get();
        ASSERT_FALSE(resp.rejected) << i << ": " << resp.error;
        tst::expect_reports_close(resp.result.report, expected[i], 1e-9);
        if (resp.shards > 1) shards += resp.shards;
        exchange += resp.exchange_bytes;
        shard_retries += resp.shard_retries;
    }
    const auto tele = service.telemetry();
    EXPECT_EQ(tele.served, kRequests);
    EXPECT_EQ(tele.shards, shards);
    EXPECT_EQ(tele.exchange_bytes, exchange);
    EXPECT_EQ(tele.shard_retries, shard_retries);
    EXPECT_EQ(tele.queued, tele.served + tele.rejected + tele.queue_depth + tele.inflight);
    EXPECT_EQ(tele.latency.count, tele.served + tele.rejected);
}

TEST(ServeShards, TransientShardFaultRetriesPerSlabNotPerRequest) {
    // Every pool device's first two launches abort (kernel_throw = 1,
    // max_faults = 2 per device), so each active shard retries its stage
    // twice and then succeeds — the request is served without a single
    // whole-request retry, and the per-slab retries surface in telemetry.
    vgpu::FaultPlan plan;
    plan.seed = 11;
    plan.kernel_throw = 1.0;
    plan.max_faults = 2;
    serve::ServiceConfig cfg;
    cfg.devices = 4;
    cfg.shard_threshold_s = 1e-12;
    cfg.faults = plan;
    cfg.max_retries = 5;
    cfg.retry_backoff_s = 1e-6;
    serve::AssessService service(cfg);
    auto req = make_request(82);
    const zc::AssessmentReport expected = direct_report(req, req.cfg);
    const auto resp = service.submit(std::move(req)).get();
    ASSERT_FALSE(resp.rejected) << resp.error;
    EXPECT_EQ(resp.shards, 4u);
    EXPECT_EQ(resp.retries, 0u) << "slab retries must not escalate to request retries";
    EXPECT_GE(resp.shard_retries, 2u);
    EXPECT_EQ(resp.faults, resp.shard_retries)
        << "every injected abort was absorbed by exactly one slab retry";
    // Kernel aborts fire before any block runs and stages re-run cleanly,
    // so the recovered result is the fault-free one.
    tst::expect_reports_close(resp.result.report, expected, 1e-9);
    const auto tele = service.telemetry();
    EXPECT_EQ(tele.shard_retries, resp.shard_retries);
    EXPECT_EQ(tele.faults_injected, resp.faults);
    EXPECT_EQ(tele.served, 1u);
}

}  // namespace

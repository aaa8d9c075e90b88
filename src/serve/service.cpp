#include "service.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "cost.hpp"
#include "cuzc/multigpu.hpp"
#include "sz/sz_compressor.hpp"
#include "vgpu/vgpu.hpp"
#include "zc/compression_stats.hpp"

namespace cuzc::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Internal control-flow exceptions of the request path. A validation
/// reject (bad stream, shape mismatch) is the request's fault, not the
/// device's, so it never feeds the circuit breaker; a timeout is the
/// wall-clock ceiling firing.
struct RequestReject {
    std::string message;
};
struct RequestTimeout {};

}  // namespace

struct AssessService::Impl {
    struct Pending {
        AssessRequest req;
        Completion done;
        Clock::time_point submitted;
        double backlog_at_submit_s = 0;
        double modeled_full_s = 0;
    };

    enum class Outcome { kServed, kRejected, kTimeout };

    explicit Impl(ServiceConfig cfg)
        : config(cfg),
          cache(cfg.cache_capacity),
          model(cfg.props, cfg.cost_params) {
        // The device registry outlives the workers: worker i owns pool[i]
        // while it processes, and releases its lease when idle so a
        // sharding worker can borrow the device for a large request.
        const std::size_t n = std::max<std::size_t>(config.devices, 1);
        for (std::size_t i = 0; i < n; ++i) {
            pool.emplace_back(config.props);
            if (config.faults.enabled()) {
                // Worker i draws from an offset seed: devices fail
                // independently of each other but reproducibly across runs.
                vgpu::FaultPlan plan = config.faults;
                plan.seed += i;
                pool.back().set_fault_plan(plan);
            }
        }
    }

    ServiceConfig config;
    ResultCache cache;
    vgpu::GpuCostModel model;
    /// One virtual device per worker (deque: stable addresses, Device is
    /// not movable). Exclusive use is mediated by Device's lease bit.
    std::deque<vgpu::Device> pool;

    mutable std::mutex mu;
    std::condition_variable work_cv;
    std::condition_variable drain_cv;
    std::deque<std::unique_ptr<Pending>> queue;
    std::vector<std::thread> workers;
    bool started = false;
    bool stop = false;
    std::size_t inflight = 0;
    double modeled_backlog_s = 0;
    std::uint64_t next_epoch = 0;
    ServiceTelemetry tele;

    void start_locked() {
        if (started) return;
        started = true;
        const std::size_t n = std::max<std::size_t>(config.devices, 1);
        workers.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            workers.emplace_back([this, i] { worker_loop(i); });
        }
    }

    void check_timeout(const Pending& p) const {
        if (config.request_timeout_s > 0 &&
            seconds_since(p.submitted) > config.request_timeout_s) {
            throw RequestTimeout{};
        }
    }

    void worker_loop(std::size_t widx) {
        vgpu::Device& dev = pool[widx];
        zc::Dims3 buf_dims{0, 0, 0};
        std::unique_ptr<vgpu::DeviceBuffer<float>> d_orig, d_dec;

        // Circuit breaker: worker-local state, telemetry under `mu`.
        std::size_t consecutive_failures = 0;
        bool half_open = false;

        for (;;) {
            std::vector<std::unique_ptr<Pending>> batch;
            std::uint64_t epoch = 0;
            {
                std::unique_lock lk(mu);
                // Wait for work *and* for this worker's own device: a
                // sharding peer may have borrowed it while we were idle.
                work_cv.wait(lk, [&] { return stop || (!queue.empty() && !dev.leased()); });
                if (queue.empty()) {
                    if (stop) return;
                    continue;
                }
                if (!dev.try_lease()) continue;  // lost a claim race; re-wait
                // Seed: highest priority, earliest submission.
                std::size_t pick = 0;
                for (std::size_t i = 1; i < queue.size(); ++i) {
                    if (queue[i]->req.priority > queue[pick]->req.priority) pick = i;
                }
                auto seed = std::move(queue[pick]);
                queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick));
                const zc::Dims3 dims = seed->req.orig.dims();
                batch.push_back(std::move(seed));
                // Coalesce: every queued same-shape request (any config)
                // rides this device/buffer epoch, in submission order. A
                // half-open worker probes with a single request.
                const std::size_t cap =
                    half_open ? 1 : std::max<std::size_t>(config.max_batch, 1);
                if (config.coalesce) {
                    for (auto it = queue.begin();
                         it != queue.end() && batch.size() < cap;) {
                        if ((*it)->req.orig.dims() == dims) {
                            batch.push_back(std::move(*it));
                            it = queue.erase(it);
                        } else {
                            ++it;
                        }
                    }
                }
                inflight += batch.size();
                epoch = ++next_epoch;
                ++tele.batches;
                tele.coalesced += batch.size() - 1;
            }

            for (auto& pending : batch) {
                const bool ok = process_one(dev, *pending, epoch, buf_dims, d_orig, d_dec);
                if (ok) {
                    consecutive_failures = 0;
                    half_open = false;
                } else {
                    ++consecutive_failures;
                }
            }
            // Idle (and quarantined) devices are borrowable by sharding
            // peers; only this worker ever waits on its own device, so the
            // release itself needs no notify.
            dev.release_lease();

            // Breaker: a failed half-open probe re-opens immediately; a
            // healthy worker opens after `breaker_threshold` consecutive
            // device-side failures.
            const bool trip =
                config.breaker_threshold > 0 && consecutive_failures > 0 &&
                (half_open || consecutive_failures >= config.breaker_threshold);
            if (trip) {
                consecutive_failures = 0;
                const auto until =
                    Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(config.breaker_cooldown_s));
                std::unique_lock lk(mu);
                ++tele.breaker_opens;
                ++tele.breaker_open;
                // Quarantine: stop pulling work until the cooldown passes;
                // healthy workers absorb this worker's queue share. A
                // shutdown cuts the quarantine short so the destructor's
                // drain guarantee holds even on an all-failing pool.
                work_cv.wait_until(lk, until, [&] { return stop; });
                --tele.breaker_open;
                half_open = true;
            }
        }
    }

    /// Opportunistic lease over every currently-idle device, taken for one
    /// sharded request. RAII: the destructor releases the borrowed leases
    /// (never the sharding worker's own device) and wakes workers that
    /// were waiting on their devices.
    struct ShardTeam {
        Impl* impl = nullptr;
        std::vector<vgpu::Device*> devs;      ///< team, ascending pool order
        std::vector<vgpu::Device*> borrowed;  ///< subset leased by this team

        ShardTeam() = default;
        ShardTeam(ShardTeam&& o) noexcept
            : impl(std::exchange(o.impl, nullptr)),
              devs(std::move(o.devs)),
              borrowed(std::move(o.borrowed)) {}
        ShardTeam& operator=(ShardTeam&&) = delete;
        ShardTeam(const ShardTeam&) = delete;
        ShardTeam& operator=(const ShardTeam&) = delete;
        ~ShardTeam() {
            if (impl == nullptr || borrowed.empty()) return;
            for (auto* d : borrowed) d->release_lease();
            impl->work_cv.notify_all();
        }
    };

    ShardTeam claim_idle(vgpu::Device& own) {
        ShardTeam team;
        team.impl = this;
        for (auto& d : pool) {
            if (&d == &own) {
                team.devs.push_back(&d);
            } else if (d.try_lease()) {
                team.devs.push_back(&d);
                team.borrowed.push_back(&d);
            }
        }
        return team;
    }

    /// Completes an abandoned request if every normal completion path was
    /// skipped (an exception escaping the handlers themselves): the
    /// submitter must never wait forever.
    struct CompletionGuard {
        Impl& impl;
        Pending& p;
        bool armed = true;
        ~CompletionGuard() {
            if (!armed) return;
            try {
                AssessResponse r;
                r.rejected = true;
                r.error = "internal error: request abandoned";
                impl.complete(p, std::move(r), Outcome::kRejected);
            } catch (...) {  // the guard must never throw
            }
        }
    };

    /// Serve one picked request end to end. Always completes the request
    /// and settles the accounting exactly once, whatever the request path
    /// throws. Returns false when the device itself failed (feeds the
    /// circuit breaker); served requests, validation rejects, and timeouts
    /// return true.
    bool process_one(vgpu::Device& dev, Pending& p, std::uint64_t epoch, zc::Dims3& buf_dims,
                     std::unique_ptr<vgpu::DeviceBuffer<float>>& d_orig,
                     std::unique_ptr<vgpu::DeviceBuffer<float>>& d_dec) {
        AssessResponse resp;
        resp.batch_epoch = epoch;
        resp.spans.queue_s = seconds_since(p.submitted);
        const std::uint64_t faults_before = dev.faults_injected();
        CompletionGuard guard{*this, p};
        try {
            run_request(dev, p, resp, buf_dims, d_orig, d_dec);
            // += so borrowed-device faults recorded by a sharded run stay.
            resp.faults += dev.faults_injected() - faults_before;
            guard.armed = false;
            complete(p, std::move(resp), Outcome::kServed);
            return true;
        } catch (const RequestTimeout&) {
            resp.timed_out = true;
            finish_rejected(guard, dev, faults_before, p, resp, Outcome::kTimeout,
                            "timed out: request exceeded the service's wall-clock ceiling");
            return true;
        } catch (const RequestReject& r) {
            finish_rejected(guard, dev, faults_before, p, resp, Outcome::kRejected, r.message);
            return true;
        } catch (const vgpu::FaultError& e) {
            finish_rejected(guard, dev, faults_before, p, resp, Outcome::kRejected, e.what());
            return false;
        } catch (const std::exception& e) {
            finish_rejected(guard, dev, faults_before, p, resp, Outcome::kRejected,
                            std::string("request failed: ") + e.what());
            return false;
        } catch (...) {
            finish_rejected(guard, dev, faults_before, p, resp, Outcome::kRejected,
                            "request failed: unknown exception");
            return false;
        }
    }

    void finish_rejected(CompletionGuard& guard, vgpu::Device& dev, std::uint64_t faults_before,
                         Pending& p, AssessResponse& resp, Outcome outcome,
                         std::string message) {
        resp.rejected = true;
        resp.error = std::move(message);
        resp.faults = dev.faults_injected() - faults_before;
        guard.armed = false;
        complete(p, std::move(resp), outcome);
    }

    /// The request path proper. Throws RequestReject / RequestTimeout /
    /// whatever the device or kernels throw; `process_one` contains it all.
    void run_request(vgpu::Device& dev, Pending& p, AssessResponse& resp, zc::Dims3& buf_dims,
                     std::unique_ptr<vgpu::DeviceBuffer<float>>& d_orig,
                     std::unique_ptr<vgpu::DeviceBuffer<float>>& d_dec) {
        check_timeout(p);  // at pickup: don't start work the ceiling already voids
        const zc::Dims3 dims = p.req.orig.dims();

        // SZ-stream requests decode on the worker (counted as upload time).
        const zc::Stopwatch decode_watch;
        zc::FieldRef dec_storage;
        const zc::FieldRef* dec = &p.req.dec;
        if (!p.req.sz_stream.empty()) {
            try {
                // Shape first: a stream declaring another field never
                // costs a decode.
                if (sz::stream_dims(p.req.sz_stream) != dims) {
                    throw RequestReject{"SZ stream shape disagrees with the original field"};
                }
                dec_storage = sz::decompress(p.req.sz_stream);
            } catch (const std::exception& e) {
                throw RequestReject{std::string("SZ stream decode failed: ") + e.what()};
            }
            dec = &dec_storage;
            resp.spans.upload_s += decode_watch.seconds();
        }

        // Deadline-aware degradation: the budget is what remains of the
        // deadline after the modeled backlog that was ahead at submit time.
        resp.effective_cfg = p.req.cfg;
        if (p.req.deadline_model_s > 0) {
            const double budget = p.req.deadline_model_s - p.backlog_at_submit_s;
            const ShedPlan plan = plan_degradation(dims, p.req.cfg, budget, model);
            resp.effective_cfg = plan.effective;
            resp.shed = plan.shed;
            resp.degraded = !plan.shed.empty();
            resp.modeled_cost_s = plan.modeled_s;
        } else {
            resp.modeled_cost_s = modeled_request_cost(dims, resp.effective_cfg, model).total();
        }

        // Content-addressed lookup under the effective config.
        CacheKey key{};
        const bool use_cache = config.cache_capacity > 0;
        if (use_cache) {
            key = result_cache_key(p.req.orig.view(), dec->view(), resp.effective_cfg);
            if (auto cached = cache.lookup(key)) {
                resp.result = std::move(*cached);
                resp.cache_hit = true;
                return;
            }
        }

        // Miss: stage onto the worker's device, reusing the buffer pair
        // across every same-shape request this worker ever sees. Transient
        // device faults (alloc failure, kernel abort) retry with backoff;
        // anything else propagates to process_one.
        std::size_t attempt = 0;
        for (;;) {
            check_timeout(p);
            try {
                // Sharding: past the modeled-cost threshold, fan the
                // request out across whatever devices are idle right now
                // (parallel multi-GPU slab path). Falls back to the
                // single-device path below when no peer is idle; a
                // transient shard failure that exhausts its slab retries
                // lands in the same catch as single-device faults and
                // re-claims a (possibly different) team on the next
                // attempt.
                if (config.shard_threshold_s > 0 && pool.size() > 1 &&
                    resp.modeled_cost_s >= config.shard_threshold_s) {
                    const ShardTeam team = claim_idle(dev);
                    if (team.devs.size() > 1) {
                        run_sharded(team, p, *dec, resp);
                        return;
                    }
                }

                const std::uint64_t corrupt_before =
                    dev.faults_injected(vgpu::FaultKind::kUploadCorrupt);
                const zc::Stopwatch upload_watch;
                if (!d_orig || buf_dims != dims) {
                    // Reset first: if the second alloc throws, a stale
                    // buffer must not masquerade as matching buf_dims.
                    d_orig.reset();
                    d_dec.reset();
                    buf_dims = {0, 0, 0};
                    d_orig = std::make_unique<vgpu::DeviceBuffer<float>>(dev, dims.volume());
                    d_dec = std::make_unique<vgpu::DeviceBuffer<float>>(dev, dims.volume());
                    buf_dims = dims;
                    std::lock_guard lk(mu);
                    tele.buffer_allocs += 2;
                }
                // Zero-copy staging: the persistent buffer pair aliases the
                // request's ref-counted payloads (same modeled H2D charge
                // and fault-stream draw as a memcpy upload).
                d_orig->adopt(p.req.orig);
                d_dec->adopt(*dec);
                {
                    std::lock_guard lk(mu);
                    tele.uploads += 2;
                }
                resp.spans.upload_s += upload_watch.seconds();

                const zc::Stopwatch kernel_watch;
                resp.result =
                    ::cuzc::cuzc::assess_device(dev, *d_orig, *d_dec, dims, resp.effective_cfg);
                resp.spans.kernel_s += kernel_watch.seconds();

                const zc::Stopwatch report_watch;
                // A corrupted upload yields a silently wrong result for
                // *this* request (that is the fault being modeled) — but
                // it must never poison the shared cache.
                const bool corrupted =
                    dev.faults_injected(vgpu::FaultKind::kUploadCorrupt) != corrupt_before;
                if (use_cache && !corrupted) cache.insert(key, resp.result);
                resp.spans.report_s += report_watch.seconds();
                return;
            } catch (const vgpu::FaultError& e) {
                if (!e.transient() || attempt >= config.max_retries) throw;
                // A failed attempt may leave the buffer pair half-built;
                // resync so the next attempt reallocates cleanly.
                d_orig.reset();
                d_dec.reset();
                buf_dims = {0, 0, 0};
                ++attempt;
                ++resp.retries;
                {
                    std::lock_guard lk(mu);
                    ++tele.retries;
                }
                const double backoff =
                    config.retry_backoff_s * static_cast<double>(1ull << (attempt - 1));
                if (backoff > 0) {
                    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
                }
            }
        }
    }

    /// Run one request across the team's devices via the parallel
    /// multi-GPU path. Sharded results bypass the result cache: the slab
    /// merge's summation order differs from the single-device contract by
    /// ulps, and the cache promises single-device-identical results.
    void run_sharded(const ShardTeam& team, Pending& p, const zc::FieldRef& dec,
                     AssessResponse& resp) {
        std::uint64_t borrowed_faults_before = 0;
        for (const auto* d : team.borrowed) borrowed_faults_before += d->faults_injected();

        const zc::Stopwatch kernel_watch;
        ::cuzc::cuzc::MultiGpuOptions mo;
        mo.parallel = true;
        mo.max_slab_retries = config.max_retries;
        mo.retry_backoff_s = config.retry_backoff_s;
        const auto mg = ::cuzc::cuzc::assess_multigpu(
            std::span<vgpu::Device* const>(team.devs), p.req.orig.view(), dec.view(),
            resp.effective_cfg, mo);
        resp.spans.kernel_s += kernel_watch.seconds();

        resp.result.report = mg.report;
        resp.result.pattern1 = mg.pattern1;
        resp.result.pattern2 = mg.pattern2;
        resp.result.pattern3 = mg.pattern3;
        resp.shards = static_cast<std::uint32_t>(team.devs.size());
        resp.exchange_bytes = mg.exchange_bytes;
        resp.shard_retries = mg.slab_retries;
        std::uint64_t borrowed_faults_after = 0;
        for (const auto* d : team.borrowed) borrowed_faults_after += d->faults_injected();
        resp.faults += borrowed_faults_after - borrowed_faults_before;
    }

    /// The single completion point for picked requests: settles every
    /// counter the request touched in one critical section, so the
    /// telemetry invariants hold at every intermediate snapshot, not just
    /// after drain, then runs the completion outside the lock. `done` must
    /// not throw: this runs inside process_one's try block, and a throw
    /// would complete the request a second time.
    void complete(Pending& p, AssessResponse resp, Outcome outcome) {
        {
            std::lock_guard lk(mu);
            if (outcome == Outcome::kServed) {
                ++tele.served;
                if (resp.cache_hit) {
                    ++tele.cache_hits;
                } else {
                    ++tele.cache_misses;
                }
                if (resp.degraded) ++tele.shed;
                if (resp.shards > 1) tele.shards += resp.shards;
                tele.exchange_bytes += resp.exchange_bytes;
                tele.shard_retries += resp.shard_retries;
            } else {
                ++tele.rejected;
                if (outcome == Outcome::kTimeout) ++tele.timeouts;
            }
            tele.faults_injected += resp.faults;
            tele.queue_s += resp.spans.queue_s;
            tele.upload_s += resp.spans.upload_s;
            tele.kernel_s += resp.spans.kernel_s;
            tele.report_s += resp.spans.report_s;
            tele.latency.record(resp.spans.total());
            // Release this request's share of the modeled backlog the
            // moment it completes — a cache hit releases immediately — so
            // a long batch doesn't inflate later requests' shed budgets.
            modeled_backlog_s = std::max(0.0, modeled_backlog_s - p.modeled_full_s);
            --inflight;
            if (queue.empty() && inflight == 0) drain_cv.notify_all();
        }
        p.done(std::move(resp));
    }
};

AssessService::AssessService(ServiceConfig cfg) : impl_(std::make_unique<Impl>(cfg)) {
    if (!cfg.start_paused) start();
}

AssessService::~AssessService() {
    {
        std::lock_guard lk(impl_->mu);
        // Never orphan accepted requests: a paused service with a backlog
        // spins its workers up to drain before shutdown.
        if (!impl_->queue.empty()) impl_->start_locked();
        impl_->stop = true;
    }
    impl_->work_cv.notify_all();
    for (auto& w : impl_->workers) w.join();
}

void AssessService::submit(AssessRequest req, Completion done) {
    auto pending = std::make_unique<Impl::Pending>();
    pending->submitted = Clock::now();
    pending->done = std::move(done);

    std::string invalid;
    if (req.orig.size() == 0) {
        invalid = "empty original field";
    } else if (req.sz_stream.empty() && req.dec.dims() != req.orig.dims()) {
        invalid = "original/decompressed shape mismatch";
    }

    AssessResponse rejected;
    {
        std::lock_guard lk(impl_->mu);
        ++impl_->tele.queued;
        if (invalid.empty() &&
            (impl_->config.max_queue_depth == 0 ||
             impl_->queue.size() < impl_->config.max_queue_depth)) {
            pending->modeled_full_s =
                modeled_request_cost(req.orig.dims(), req.cfg, impl_->model).total();
            pending->backlog_at_submit_s = impl_->modeled_backlog_s;
            impl_->modeled_backlog_s += pending->modeled_full_s;
            pending->req = std::move(req);
            impl_->queue.push_back(std::move(pending));
            impl_->tele.max_queue_depth =
                std::max<std::uint64_t>(impl_->tele.max_queue_depth, impl_->queue.size());
            impl_->work_cv.notify_one();
            return;
        }
        if (invalid.empty()) invalid = "queue full (admission control)";
        // Submit-time rejections settle inside the same critical section
        // that counted them as queued, and still record a latency span —
        // the invariants `queued == served + rejected + depth + inflight`
        // and `latency.count == served + rejected` hold at all times.
        ++impl_->tele.rejected;
        rejected.spans.queue_s = seconds_since(pending->submitted);
        impl_->tele.queue_s += rejected.spans.queue_s;
        impl_->tele.latency.record(rejected.spans.total());
    }
    rejected.rejected = true;
    rejected.error = invalid;
    pending->done(std::move(rejected));
}

std::future<AssessResponse> AssessService::submit(AssessRequest req) {
    auto promise = std::make_shared<std::promise<AssessResponse>>();
    auto future = promise->get_future();
    submit(std::move(req),
           [promise](AssessResponse resp) { promise->set_value(std::move(resp)); });
    return future;
}

void AssessService::start() {
    std::lock_guard lk(impl_->mu);
    impl_->start_locked();
}

void AssessService::drain() {
    std::unique_lock lk(impl_->mu);
    impl_->start_locked();  // a paused service would otherwise never drain
    impl_->drain_cv.wait(lk, [&] { return impl_->queue.empty() && impl_->inflight == 0; });
}

ServiceTelemetry AssessService::telemetry() const {
    ServiceTelemetry t;
    {
        std::lock_guard lk(impl_->mu);
        t = impl_->tele;
        t.queue_depth = impl_->queue.size();
        t.inflight = impl_->inflight;
        t.modeled_backlog_s = impl_->modeled_backlog_s;
    }
    t.cache_evictions = impl_->cache.evictions();
    t.cache_size = impl_->cache.size();
    t.data_plane = zc::data_plane_stats();
    return t;
}

const ServiceConfig& AssessService::config() const noexcept { return impl_->config; }

}  // namespace cuzc::serve

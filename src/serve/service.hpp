#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>

#include "cache.hpp"
#include "request.hpp"
#include "telemetry.hpp"
#include "vgpu/cost_model.hpp"
#include "vgpu/cost_params.hpp"
#include "vgpu/device_props.hpp"
#include "vgpu/fault.hpp"

namespace cuzc::serve {

struct ServiceConfig {
    /// Worker pool size: one thread, each owning one virtual device.
    std::size_t devices = 1;
    /// Result-cache entries; 0 disables caching.
    std::size_t cache_capacity = 128;
    /// Max requests coalesced into one upload epoch.
    std::size_t max_batch = 16;
    /// Coalesce same-shape requests onto one device/buffer epoch.
    bool coalesce = true;
    /// Admission control: submissions beyond this queue depth are rejected
    /// immediately (they complete with rejected=true). 0 = unlimited.
    std::size_t max_queue_depth = 0;
    /// Don't spawn workers in the constructor; callers submit first and
    /// call start() — this makes coalescing deterministic for tests.
    bool start_paused = false;
    /// Cost-model inputs for admission control and degradation planning.
    vgpu::DeviceProps props{};
    vgpu::GpuCostParams cost_params{};

    // --- Sharded serving ----------------------------------------------
    /// Modeled-cost threshold (device-seconds, post-degradation) above
    /// which a cache-missed request fans out across every *currently idle*
    /// device via the parallel multi-GPU path: the picking worker keeps its
    /// own device and opportunistically leases the others' idle devices for
    /// the duration of the request. A transient fault inside a shard
    /// retries only that slab (`max_retries` attempts, `retry_backoff_s`
    /// backoff); sharded results bypass the result cache (slab-merge
    /// summation order differs from the single-device contract by ulps).
    /// 0 disables sharding.
    double shard_threshold_s = 0;

    // --- Fault containment and recovery -------------------------------
    /// Wall-clock ceiling per request, measured from submit (seconds).
    /// Distinct from `AssessRequest::deadline_model_s`: the deadline is
    /// modeled device time and degrades the config; the timeout is host
    /// wall time and rejects. Checked when a worker picks the request up
    /// and before every device attempt, so a request stuck behind a
    /// quarantined or fault-looping device rejects instead of hanging; it
    /// is not preemptive (a kernel already running is never interrupted).
    /// 0 = no ceiling.
    double request_timeout_s = 0;
    /// Device attempts beyond the first for *transient* faults
    /// (vgpu::FaultError with transient() == true). Non-transient errors
    /// never retry.
    std::size_t max_retries = 2;
    /// Backoff before retry r: retry_backoff_s * 2^r.
    double retry_backoff_s = 100e-6;
    /// Consecutive device-side failures that open a worker's circuit
    /// breaker. 0 disables the breaker.
    std::size_t breaker_threshold = 5;
    /// Quarantine length once a breaker opens. The worker stops pulling
    /// work (healthy workers absorb its queue share), then serves one
    /// half-open probe: success closes the breaker, failure re-opens it.
    double breaker_cooldown_s = 50e-3;
    /// Deterministic fault injection armed on every worker's device
    /// (worker i runs the plan with seed + i, so devices fail
    /// independently but reproducibly). Disabled unless faults.enabled().
    vgpu::FaultPlan faults{};
};

/// In-process multi-device assessment service (the ROADMAP's "serving"
/// direction): a job queue feeding a pool of virtual devices, with
/// same-shape request coalescing onto shared upload epochs (the
/// assess_batch buffer-reuse path), a content-addressed result cache,
/// deadline-aware degradation via the cost model, and per-request span
/// telemetry.
///
/// Determinism contract: for any request, the returned report equals a
/// direct `cuzc::assess` of the same pair under the request's *effective*
/// (post-degradation) config, whether the result came from kernels or from
/// the cache.
///
/// Containment contract: every submitted request completes exactly once,
/// no matter what the request path throws — decode errors, allocation
/// failures, kernel aborts (injected or real) all resolve as
/// `rejected == true` with the error message; workers never die and the
/// telemetry invariants (see ServiceTelemetry) keep holding. Transient
/// device faults are retried with backoff, a repeatedly failing device is
/// quarantined by a per-worker circuit breaker, and an optional wall-clock
/// timeout bounds how long any request can wait.
class AssessService {
public:
    explicit AssessService(ServiceConfig cfg = {});
    /// Drains every accepted request, then joins the workers.
    ~AssessService();

    AssessService(const AssessService&) = delete;
    AssessService& operator=(const AssessService&) = delete;

    /// Receives a request's response; see submit(AssessRequest, Completion).
    using Completion = std::function<void(AssessResponse)>;

    /// Enqueue a request; `done` runs exactly once with its response. It
    /// runs on the worker that served it, after every telemetry counter
    /// has settled and with no service lock held, or — for a submit-time
    /// rejection (invalid request, queue full) — on the calling thread
    /// before submit returns. It must not throw. Safe from any thread.
    void submit(AssessRequest req, Completion done);

    /// Enqueue a request; the future resolves when it is served (or
    /// rejected). Safe from any thread.
    [[nodiscard]] std::future<AssessResponse> submit(AssessRequest req);

    /// Spawn the worker pool (no-op if already running). Only needed after
    /// constructing with `start_paused`.
    void start();

    /// Block until every accepted request has been served.
    void drain();

    /// Point-in-time copy of the service counters (cache stats included).
    [[nodiscard]] ServiceTelemetry telemetry() const;

    [[nodiscard]] const ServiceConfig& config() const noexcept;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace cuzc::serve

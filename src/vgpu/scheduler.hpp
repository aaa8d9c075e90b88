#pragma once

#include <cstddef>
#include <functional>

namespace cuzc::vgpu {

/// Host-side thread pool that executes the blocks of a launch in parallel,
/// for plain and cooperative launches alike. CUDA guarantees nothing about
/// block scheduling beyond independence (and, for a cooperative grid,
/// co-residency between grid syncs), so any partition is semantically
/// valid; this one is chosen to be *deterministic*: the grid is split into
/// contiguous block ranges, one per worker, with a static partition that
/// depends only on (nblocks, workers). Combined with per-worker counter
/// shards (all merged fields are commutative sums/maxima) and kernels whose
/// cross-block global writes are disjoint or exact atomic adds, both the
/// numerical results and the profiler counts are bit-identical for every
/// worker count, including 1. All of a `run`'s ranges are in flight at once,
/// so a range function may wait on the other ranges (cooperative launches
/// put a barrier between their phases).
///
/// Worker count resolution: `set_num_threads` override, else the
/// CUZC_VGPU_THREADS environment variable (a positive count; an invalid
/// value is reported on stderr and ignored), else hardware concurrency.
/// Workers are lazily spawned, persistent, and shared by all devices;
/// `run` calls are serialized. A `run` issued from inside a worker (nested
/// launch) degrades to inline serial execution.
class BlockScheduler {
public:
    static BlockScheduler& instance();

    /// RAII: while alive, launches issued from this thread execute their
    /// blocks inline (single worker, grid order) instead of entering the
    /// shared pool. Device-level parallelism (one host thread per virtual
    /// device, as in the parallel multi-GPU path) uses this so concurrent
    /// devices don't serialize on the pool — block results and profiler
    /// counts are bit-identical either way (see class comment). Scopes
    /// nest; each thread restores its previous state on destruction.
    class SerialScope {
    public:
        SerialScope();
        ~SerialScope();
        SerialScope(const SerialScope&) = delete;
        SerialScope& operator=(const SerialScope&) = delete;

    private:
        bool prev_;
    };

    /// Workers a launch of `nblocks` blocks will use (>= 1).
    [[nodiscard]] std::size_t plan_workers(std::size_t nblocks) const noexcept;

    [[nodiscard]] std::size_t max_workers() const noexcept;

    /// Override the worker count for subsequent launches (0 restores the
    /// environment/hardware default). Must not be called during a run.
    void set_num_threads(std::size_t n);

    using RangeFn = std::function<void(std::size_t worker, std::size_t begin, std::size_t end)>;

    /// Execute `fn(w, begin, end)` for the `workers` contiguous ranges of
    /// [0, nblocks). Worker 0's range runs on the calling thread. Returns
    /// after every range completes. `workers` must come from
    /// `plan_workers(nblocks)`.
    void run(std::size_t nblocks, std::size_t workers, const RangeFn& fn);

    BlockScheduler(const BlockScheduler&) = delete;
    BlockScheduler& operator=(const BlockScheduler&) = delete;

private:
    BlockScheduler();
    ~BlockScheduler();

    struct Impl;
    Impl* impl_;
};

}  // namespace cuzc::vgpu

#include "scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "io/strict_parse.hpp"

namespace cuzc::vgpu {

namespace {

/// CUZC_VGPU_THREADS if it is a positive count in the shared numeric
/// grammar (io::parse_num), else hardware concurrency. Unset, empty and 0
/// mean the hardware default; anything else that does not parse ("-1",
/// " 3", "+2", an overflowing count) is reported on stderr and ignored.
std::size_t default_workers() {
    const unsigned hc = std::thread::hardware_concurrency();
    const std::size_t fallback = hc > 0 ? hc : 1;
    const char* s = std::getenv("CUZC_VGPU_THREADS");
    if (s == nullptr || *s == '\0') return fallback;
    std::size_t v = 0;
    if (!io::parse_num(s, v)) {
        std::fprintf(stderr,
                     "cuzc: invalid CUZC_VGPU_THREADS=%s (expected a worker count); using %zu\n",
                     s, fallback);
        return fallback;
    }
    return v > 0 ? v : fallback;
}

/// True on any thread currently executing a block range — pool workers for
/// their whole lifetime, the caller while it runs worker 0's range. A launch
/// issued from such a thread must not re-enter the pool.
thread_local bool tls_in_run = false;

}  // namespace

BlockScheduler::SerialScope::SerialScope() : prev_(tls_in_run) { tls_in_run = true; }

BlockScheduler::SerialScope::~SerialScope() { tls_in_run = prev_; }

struct BlockScheduler::Impl {
    std::atomic<std::size_t> max_workers{default_workers()};

    std::mutex run_mutex;  // serializes run() and thread spawning

    std::mutex m;
    std::condition_variable work_cv;
    std::condition_variable done_cv;
    std::vector<std::thread> threads;
    const RangeFn* job = nullptr;
    std::size_t job_nblocks = 0;
    std::size_t job_workers = 0;
    std::size_t pending = 0;
    std::uint64_t epoch = 0;
    bool stop = false;

    static std::pair<std::size_t, std::size_t> range_of(std::size_t nblocks, std::size_t workers,
                                                        std::size_t w) {
        const std::size_t base = nblocks / workers;
        const std::size_t rem = nblocks % workers;
        const std::size_t begin = w * base + std::min(w, rem);
        return {begin, begin + base + (w < rem ? 1 : 0)};
    }

    void worker_main(std::size_t idx) {
        tls_in_run = true;
        std::unique_lock lk(m);
        std::uint64_t seen = 0;
        for (;;) {
            work_cv.wait(lk, [&] { return stop || epoch != seen; });
            if (stop) return;
            seen = epoch;
            if (job != nullptr && idx < job_workers) {
                const RangeFn* fn = job;
                const auto [b, e] = range_of(job_nblocks, job_workers, idx);
                lk.unlock();
                (*fn)(idx, b, e);
                lk.lock();
                if (--pending == 0) done_cv.notify_one();
            }
        }
    }
};

BlockScheduler::BlockScheduler() : impl_(new Impl) {}

BlockScheduler::~BlockScheduler() {
    {
        std::lock_guard lk(impl_->m);
        impl_->stop = true;
    }
    impl_->work_cv.notify_all();
    for (auto& t : impl_->threads) t.join();
    delete impl_;
}

BlockScheduler& BlockScheduler::instance() {
    static BlockScheduler sched;
    return sched;
}

std::size_t BlockScheduler::max_workers() const noexcept {
    return impl_->max_workers.load(std::memory_order_relaxed);
}

std::size_t BlockScheduler::plan_workers(std::size_t nblocks) const noexcept {
    if (tls_in_run || nblocks <= 1) return 1;
    return std::min(max_workers(), nblocks);
}

void BlockScheduler::set_num_threads(std::size_t n) {
    std::lock_guard lk(impl_->run_mutex);
    impl_->max_workers.store(n > 0 ? n : default_workers(), std::memory_order_relaxed);
}

void BlockScheduler::run(std::size_t nblocks, std::size_t workers, const RangeFn& fn) {
    if (nblocks == 0) return;
    if (workers <= 1 || tls_in_run) {
        fn(0, 0, nblocks);
        return;
    }
    std::lock_guard run_lk(impl_->run_mutex);
    while (impl_->threads.size() < workers - 1) {
        const std::size_t idx = impl_->threads.size() + 1;
        impl_->threads.emplace_back([this, idx] { impl_->worker_main(idx); });
    }
    {
        std::lock_guard lk(impl_->m);
        impl_->job = &fn;
        impl_->job_nblocks = nblocks;
        impl_->job_workers = workers;
        impl_->pending = workers - 1;
        ++impl_->epoch;
    }
    impl_->work_cv.notify_all();

    const auto [b0, e0] = Impl::range_of(nblocks, workers, 0);
    tls_in_run = true;
    fn(0, b0, e0);
    tls_in_run = false;

    std::unique_lock lk(impl_->m);
    impl_->done_cv.wait(lk, [&] { return impl_->pending == 0; });
    impl_->job = nullptr;
}

}  // namespace cuzc::vgpu

#pragma once

// The zero-copy data plane: ref-counted, 64-byte-aligned, immutable field
// storage shared from socket ingest to kernel launch.
//
// A `Slab` is one reference-counted block of host memory — either pooled
// aligned storage recycled through the process-wide `SlabPool`, or a
// `std::vector<float>` adopted wholesale from a `zc::Field`. A `SlabHandle`
// keeps a slab alive; copies are a single atomic increment. A `FieldRef`
// is a cheap immutable view (pointer + count + dims) plus the handle that
// guards its storage, so a field decoded in place inside a network buffer
// can be queued, cached against, and aliased by a DeviceBuffer without a
// single payload copy. `FieldBuffer` is the mutable staging builder: write
// the samples into an aligned pooled slab, then `seal()` into a FieldRef.
//
// Ownership rules (see DESIGN.md §10):
//   - payload bytes are immutable once a FieldRef is published; writers
//     that must mutate (fault injection's upload corruption) copy first;
//   - a FieldRef may outlive whatever produced it — connection teardown,
//     stream aborts, and service drain only drop handles, never storage;
//   - pooled slabs return to the SlabPool on the last release, so steady
//     state ingest runs at zero allocations.
//
// Everything here is header-only on purpose: vgpu::DeviceBuffer adopts
// FieldRefs, and vgpu sits below zc in the link order.

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "tensor.hpp"

namespace cuzc::zc {

/// Snapshot of the process-wide data-plane counters (telemetry surfaces
/// these as the "data_plane" block; `cuzc --profile` prints them).
struct DataPlaneStats {
    std::uint64_t bytes_copied = 0;    ///< payload bytes moved by any copy path
    std::uint64_t slab_allocs = 0;     ///< pooled slabs created fresh
    std::uint64_t slab_reuses = 0;     ///< pooled slabs recycled from the free list
    std::uint64_t adoptions = 0;       ///< DeviceBuffer uploads satisfied by aliasing
    std::uint64_t pool_high_water_bytes = 0;  ///< peak bytes owned by pooled slabs
};

namespace detail {

struct DataPlaneCounters {
    std::atomic<std::uint64_t> bytes_copied{0};
    std::atomic<std::uint64_t> slab_allocs{0};
    std::atomic<std::uint64_t> slab_reuses{0};
    std::atomic<std::uint64_t> adoptions{0};
    std::atomic<std::uint64_t> pool_bytes{0};
    std::atomic<std::uint64_t> pool_high_water{0};
};

inline DataPlaneCounters& data_plane_counters() noexcept {
    static DataPlaneCounters counters;
    return counters;
}

}  // namespace detail

/// Record `bytes` of payload movement. Every copy the data plane performs
/// — misaligned decode, copy-on-corrupt upload, staging into a FieldBuffer,
/// assembler migration — funnels through here so the telemetry ledger and
/// the bench_data_plane gate see the same number.
inline void data_plane_note_copy(std::size_t bytes) noexcept {
    detail::data_plane_counters().bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
}

inline void data_plane_note_adoption() noexcept {
    detail::data_plane_counters().adoptions.fetch_add(1, std::memory_order_relaxed);
}

[[nodiscard]] inline DataPlaneStats data_plane_stats() noexcept {
    const auto& c = detail::data_plane_counters();
    DataPlaneStats s;
    s.bytes_copied = c.bytes_copied.load(std::memory_order_relaxed);
    s.slab_allocs = c.slab_allocs.load(std::memory_order_relaxed);
    s.slab_reuses = c.slab_reuses.load(std::memory_order_relaxed);
    s.adoptions = c.adoptions.load(std::memory_order_relaxed);
    s.pool_high_water_bytes = c.pool_high_water.load(std::memory_order_relaxed);
    return s;
}

/// Zero the copy/reuse counters (benchmarks bracket runs with this). The
/// pool high-water mark is reset too; retained slabs are left in place.
inline void reset_data_plane_stats() noexcept {
    auto& c = detail::data_plane_counters();
    c.bytes_copied.store(0, std::memory_order_relaxed);
    c.slab_allocs.store(0, std::memory_order_relaxed);
    c.slab_reuses.store(0, std::memory_order_relaxed);
    c.adoptions.store(0, std::memory_order_relaxed);
    c.pool_high_water.store(c.pool_bytes.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
}

/// Alignment of pooled slab storage: one cache line, which also satisfies
/// every SIMD backend's widest aligned-load requirement.
inline constexpr std::size_t kSlabAlign = 64;

namespace detail {

/// One ref-counted block of host storage. Pooled slabs own 64-byte-aligned
/// bytes recycled through the SlabPool; adopted slabs wrap a vector taken
/// from a `zc::Field` (already allocated — copying it into a pooled slab
/// would defeat the point).
struct Slab {
    std::atomic<std::size_t> refs{1};
    std::uint8_t* mem = nullptr;
    std::size_t cap = 0;
    std::vector<float> adopted;
    bool pooled = false;
};

/// Process-wide recycler for pooled slabs, bucketed by power-of-two
/// capacity. Bounded: beyond the retained-bytes cap a released slab is
/// freed instead of shelved. Intentionally leaked so handles released
/// during static teardown never touch a destroyed pool.
class SlabPool {
public:
    static SlabPool& instance() {
        static SlabPool* pool = new SlabPool;  // leaked by design
        return *pool;
    }

    [[nodiscard]] Slab* acquire(std::size_t bytes) {
        const std::size_t cap = bucket_cap(bytes);
        auto& c = data_plane_counters();
        {
            const std::lock_guard<std::mutex> lock(mu_);
            auto& shelf = shelves_[bucket_index(cap)];
            if (!shelf.empty()) {
                Slab* s = shelf.back();
                shelf.pop_back();
                retained_bytes_ -= s->cap;
                s->refs.store(1, std::memory_order_relaxed);
                c.slab_reuses.fetch_add(1, std::memory_order_relaxed);
                return s;
            }
        }
        auto* s = new Slab;
        s->mem = static_cast<std::uint8_t*>(
            ::operator new(cap, std::align_val_t{kSlabAlign}));
        s->cap = cap;
        s->pooled = true;
        c.slab_allocs.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t now =
            c.pool_bytes.fetch_add(cap, std::memory_order_relaxed) + cap;
        std::uint64_t peak = c.pool_high_water.load(std::memory_order_relaxed);
        while (now > peak &&
               !c.pool_high_water.compare_exchange_weak(peak, now,
                                                        std::memory_order_relaxed)) {
        }
        return s;
    }

    void release(Slab* s) {
        {
            const std::lock_guard<std::mutex> lock(mu_);
            if (retained_bytes_ + s->cap <= kRetainedCap) {
                retained_bytes_ += s->cap;
                shelves_[bucket_index(s->cap)].push_back(s);
                return;
            }
        }
        destroy(s);
    }

    static void destroy(Slab* s) {
        data_plane_counters().pool_bytes.fetch_sub(s->cap, std::memory_order_relaxed);
        ::operator delete(s->mem, std::align_val_t{kSlabAlign});
        delete s;
    }

private:
    static constexpr std::size_t kMinCap = 4096;
    static constexpr std::size_t kRetainedCap = 256ull << 20;
    static constexpr std::size_t kBuckets = 64;

    [[nodiscard]] static std::size_t bucket_cap(std::size_t bytes) noexcept {
        std::size_t cap = kMinCap;
        while (cap < bytes) cap <<= 1;
        return cap;
    }
    [[nodiscard]] static std::size_t bucket_index(std::size_t cap) noexcept {
        std::size_t i = 0;
        while ((kMinCap << i) < cap) ++i;
        return i;
    }

    std::mutex mu_;
    std::size_t retained_bytes_ = 0;
    std::vector<Slab*> shelves_[kBuckets];
};

inline void slab_retain(Slab* s) noexcept {
    s->refs.fetch_add(1, std::memory_order_relaxed);
}

inline void slab_release(Slab* s) {
    if (s->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    if (s->pooled) {
        SlabPool::instance().release(s);
    } else {
        delete s;
    }
}

}  // namespace detail

/// Shared ownership of one slab; copying is a single atomic increment.
/// The default handle is empty (no storage guarded).
class SlabHandle {
public:
    SlabHandle() = default;
    explicit SlabHandle(detail::Slab* s) noexcept : s_(s) {}  // adopts one ref
    SlabHandle(const SlabHandle& o) noexcept : s_(o.s_) {
        if (s_) detail::slab_retain(s_);
    }
    SlabHandle(SlabHandle&& o) noexcept : s_(std::exchange(o.s_, nullptr)) {}
    SlabHandle& operator=(const SlabHandle& o) noexcept {
        SlabHandle tmp(o);
        std::swap(s_, tmp.s_);
        return *this;
    }
    SlabHandle& operator=(SlabHandle&& o) noexcept {
        if (this != &o) {
            reset();
            s_ = std::exchange(o.s_, nullptr);
        }
        return *this;
    }
    ~SlabHandle() { reset(); }

    void reset() noexcept {
        if (s_) detail::slab_release(std::exchange(s_, nullptr));
    }

    /// Acquire a pooled, 64-byte-aligned slab of at least `bytes` capacity.
    [[nodiscard]] static SlabHandle acquire(std::size_t bytes) {
        return SlabHandle(detail::SlabPool::instance().acquire(bytes));
    }

    [[nodiscard]] explicit operator bool() const noexcept { return s_ != nullptr; }
    [[nodiscard]] std::uint8_t* data() const noexcept { return s_ ? s_->mem : nullptr; }
    [[nodiscard]] std::size_t capacity() const noexcept { return s_ ? s_->cap : 0; }
    /// Outstanding handles on this slab (1 == exclusively ours). An
    /// ingest buffer uses this to detect pinned views before mutating
    /// consumed regions in place.
    [[nodiscard]] std::size_t use_count() const noexcept {
        return s_ ? s_->refs.load(std::memory_order_acquire) : 0;
    }

private:
    detail::Slab* s_ = nullptr;
};

/// Immutable, ref-counted view of a 3-D single-precision field. The cheap
/// currency of the data plane: requests, the cache key path, and device
/// adoption all pass these around by value. Mirrors `Field`'s default
/// state (dims {1,1,1}, no samples) so emptiness checks behave identically.
class FieldRef {
public:
    FieldRef() = default;

    /// Adopt a Field's storage wholesale — zero-copy, the vector moves
    /// into a ref-counted slab. Implicit on purpose: every call site that
    /// used to move a Field into an owning member keeps compiling.
    FieldRef(Field&& f) {  // NOLINT(google-explicit-constructor)
        dims_ = f.dims();
        std::vector<float> v = std::move(f).release();
        count_ = v.size();
        if (count_ == 0) return;
        auto* s = new detail::Slab;
        s->adopted = std::move(v);
        s->mem = reinterpret_cast<std::uint8_t*>(s->adopted.data());
        s->cap = s->adopted.size() * sizeof(float);
        slab_ = SlabHandle(s);
        ptr_ = s->adopted.data();
    }

    /// Copy a Field's samples into a pooled slab (counted).
    FieldRef(const Field& f)  // NOLINT(google-explicit-constructor)
        : FieldRef(copy_of(f.data(), f.dims())) {}

    /// Counted copy of `src` into a fresh pooled slab.
    [[nodiscard]] static FieldRef copy_of(std::span<const float> src, Dims3 dims) {
        FieldRef r;
        r.dims_ = dims;
        r.count_ = src.size();
        if (src.empty()) return r;
        r.slab_ = SlabHandle::acquire(src.size() * sizeof(float));
        auto* dst = reinterpret_cast<float*>(r.slab_.data());
        std::memcpy(dst, src.data(), src.size() * sizeof(float));
        data_plane_note_copy(src.size() * sizeof(float));
        r.ptr_ = dst;
        return r;
    }

    /// Alias `data` (which must live inside the storage `guard` keeps
    /// alive) without copying. The caller vouches for element alignment.
    [[nodiscard]] static FieldRef alias(SlabHandle guard, const float* data,
                                        Dims3 dims) noexcept {
        FieldRef r;
        r.dims_ = dims;
        r.count_ = dims.volume();
        r.ptr_ = data;
        r.slab_ = std::move(guard);
        return r;
    }

    [[nodiscard]] const Dims3& dims() const noexcept { return dims_; }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    [[nodiscard]] std::span<const float> data() const noexcept {
        return {ptr_, count_};
    }
    [[nodiscard]] Tensor3f view() const noexcept { return Tensor3f(data(), dims_); }
    [[nodiscard]] const SlabHandle& slab() const noexcept { return slab_; }

private:
    Dims3 dims_{};
    const float* ptr_ = nullptr;
    std::size_t count_ = 0;
    SlabHandle slab_;
};

/// Mutable staging builder: write `dims.volume()` samples into an aligned
/// pooled slab, then `seal()` into an immutable FieldRef. This is how
/// producers that synthesize or load data (data::read_f32, dataset
/// generators) enter the zero-copy plane without an intermediate vector.
class FieldBuffer {
public:
    explicit FieldBuffer(Dims3 dims)
        : dims_(dims), count_(dims.volume()),
          slab_(SlabHandle::acquire(dims.volume() * sizeof(float))) {}

    [[nodiscard]] std::span<float> data() noexcept {
        return {reinterpret_cast<float*>(slab_.data()), count_};
    }
    [[nodiscard]] const Dims3& dims() const noexcept { return dims_; }

    [[nodiscard]] FieldRef seal() && noexcept {
        const auto* p = reinterpret_cast<const float*>(slab_.data());
        return FieldRef::alias(std::move(slab_), p, dims_);
    }

private:
    Dims3 dims_;
    std::size_t count_;
    SlabHandle slab_;
};

}  // namespace cuzc::zc

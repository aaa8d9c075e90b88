#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "device.hpp"
#include "zc/field_buffer.hpp"

namespace cuzc::vgpu {

/// RAII allocation in the modeled device's global memory. Host code moves
/// data in/out with `upload`/`download` (counted as PCIe transfers); kernel
/// code accesses elements through a `DeviceSpan` obtained from a `Launch`,
/// which counts every load/store against that launch's `KernelStats`.
///
/// The modeled device memory *is* host memory, so a float buffer can also
/// `adopt` a `zc::FieldRef`: the buffer aliases the ref-counted payload in
/// place (pinning it) instead of memcpy-ing. The modeled PCIe accounting
/// and the fault-injection event stream are identical either way; only the
/// software copy disappears. Mutating entry points (non-const `raw`,
/// `upload`, `fill`) detach from the alias first so shared payloads are
/// never written through a device buffer.
template <class T>
class DeviceBuffer {
public:
    DeviceBuffer(Device& dev, std::size_t n) : dev_(&dev), n_(n) {
        dev.fault_point_alloc(n * sizeof(T));
        mem_.resize(n);
        dev.note_alloc(n * sizeof(T));
    }

    DeviceBuffer(Device& dev, std::span<const T> host) : dev_(&dev), n_(host.size()) {
        dev.fault_point_alloc(host.size_bytes());
        mem_.assign(host.begin(), host.end());
        dev.note_alloc(host.size_bytes());
        dev.note_h2d(host.size_bytes());
        maybe_corrupt(dev.fault_point_upload());
    }

    [[nodiscard]] std::size_t size() const noexcept { return n_; }
    [[nodiscard]] std::uint64_t size_bytes() const noexcept { return n_ * sizeof(T); }

    void upload(std::span<const T> host) {
        assert(host.size() == n_);
        detach();
        std::copy(host.begin(), host.end(), mem_.begin());
        dev_->note_h2d(host.size_bytes());
        maybe_corrupt(dev_->fault_point_upload());
    }

    /// Zero-copy upload: alias the field's ref-counted payload instead of
    /// copying it in. Charges the same modeled H2D transfer and draws the
    /// same fault-stream event as `upload`, so counter streams are
    /// bit-identical across the two paths. When the drawn fault corrupts
    /// the upload, the payload is copied first and the bit flip lands on
    /// the private copy — copy-on-corrupt; a shared payload is never
    /// mutated.
    void adopt(const zc::FieldRef& host)
        requires std::is_same_v<T, float>
    {
        assert(host.size() == n_);
        dev_->note_h2d(host.size() * sizeof(float));
        const std::uint64_t h = dev_->fault_point_upload();
        if (h != 0 || host.data().data() == nullptr) {
            detach();
            std::copy(host.data().begin(), host.data().end(), mem_.begin());
            zc::data_plane_note_copy(host.size() * sizeof(float));
            maybe_corrupt(h);
            return;
        }
        alias_ = host.data().data();
        guard_ = host.slab();
        zc::data_plane_note_adoption();
    }

    void download(std::span<T> host) const {
        assert(host.size() == n_);
        const T* src = alias_ ? alias_ : mem_.data();
        std::copy(src, src + n_, host.begin());
        dev_->note_d2h(n_ * sizeof(T));
    }

    [[nodiscard]] std::vector<T> download() const {
        dev_->note_d2h(size_bytes());
        if (alias_) return std::vector<T>(alias_, alias_ + n_);
        return mem_;
    }

    void fill(const T& v) {
        detach();
        std::fill(mem_.begin(), mem_.end(), v);
    }

    /// Uncounted access for the host-side runtime itself (e.g. verification);
    /// kernel code must go through DeviceSpan instead. The mutable overload
    /// materializes a private copy first when the buffer aliases a shared
    /// payload (and may therefore allocate).
    [[nodiscard]] T* raw() {
        if (alias_) {
            detach_copy();
        }
        return mem_.data();
    }
    [[nodiscard]] const T* raw() const noexcept { return alias_ ? alias_ : mem_.data(); }

private:
    /// Drop the alias; mem_ holds fresh (unspecified) storage of size n_.
    void detach() {
        if (alias_) {
            alias_ = nullptr;
            guard_.reset();
        }
        if (mem_.size() != n_) mem_.resize(n_);
    }

    /// Drop the alias, preserving the aliased contents (counted copy).
    void detach_copy() {
        const T* src = alias_;
        mem_.assign(src, src + n_);
        zc::data_plane_note_copy(n_ * sizeof(T));
        alias_ = nullptr;
        guard_.reset();
    }

    /// Injected upload corruption: flip one bit of one resident byte, the
    /// position derived from the fault stream's hash (h == 0 means none).
    void maybe_corrupt(std::uint64_t h) noexcept {
        if (h == 0 || mem_.empty()) return;
        auto* bytes = reinterpret_cast<unsigned char*>(mem_.data());
        const std::uint64_t nbytes = mem_.size() * sizeof(T);
        bytes[h % nbytes] ^= static_cast<unsigned char>(1u << ((h >> 32) % 8));
    }

    Device* dev_;
    std::size_t n_ = 0;
    std::vector<T> mem_;
    /// Adopted payload: when set, reads go through alias_ and guard_ pins
    /// the storage; mem_ is the detached/private fallback.
    const T* alias_ = nullptr;
    zc::SlabHandle guard_;
};

/// Kernel-side view of a DeviceBuffer; every `ld`/`st` is charged to the
/// owning launch's global-memory counters. Explicit ld/st (rather than
/// operator[]) keeps global-memory traffic visible in kernel code, mirroring
/// how CUDA kernels are tuned around memory transactions.
///
/// A `DeviceSpan<const T>` (from `Launch::span(const DeviceBuffer<T>&)`)
/// is a read-only view: it only carries a read counter and the store
/// members do not exist.
///
/// Hot loops should use the bulk accessors, which charge a whole access
/// footprint with one counter update and hand back a raw pointer:
///  - `ld_bulk(first, n)` / `st_bulk(first, n)` — a contiguous range;
///  - `ld_footprint(n)` / `st_footprint(n)` — the span's base pointer for
///    loops whose footprint is strided/tiled but whose element count is
///    known exactly (the caller must touch exactly `n` elements).
/// Counter totals are bit-identical to per-element ld/st of the same
/// elements; only the number of counter updates changes.
template <class T>
class DeviceSpan {
public:
    using value_type = std::remove_const_t<T>;

    DeviceSpan(T* data, std::size_t n, std::uint64_t* rd, std::uint64_t* wr) noexcept
        : data_(data), n_(n), rd_(rd), wr_(wr) {}

    [[nodiscard]] std::size_t size() const noexcept { return n_; }

    [[nodiscard]] value_type ld(std::size_t i) const noexcept {
        assert(i < n_);
        *rd_ += sizeof(T);
        return data_[i];
    }

    /// One charged load of `n` contiguous elements starting at `first`.
    [[nodiscard]] const value_type* ld_bulk(std::size_t first, std::size_t n) const noexcept {
        assert(first + n <= n_);
        *rd_ += n * sizeof(T);
        return data_ + first;
    }

    /// Charge `n` element loads and return the span base for a strided or
    /// tiled loop that will read exactly `n` (not necessarily contiguous)
    /// elements through the returned pointer.
    [[nodiscard]] const value_type* ld_footprint(std::size_t n) const noexcept {
        assert(n <= n_);
        *rd_ += n * sizeof(T);
        return data_;
    }

    /// Charge `n` element loads without a range bound — for read-modify-write
    /// loops that revisit elements (e.g. histograms), where the charged count
    /// legitimately exceeds the container size. Returns the span base.
    [[nodiscard]] const value_type* ld_charge(std::size_t n) const noexcept {
        *rd_ += n * sizeof(T);
        return data_;
    }

    /// Strided gather of `n` elements (stride in elements) widened to double,
    /// charged as one `n`-element load — the vector-path replacement for a
    /// per-element `ld` loop.
    void ld_lanes(std::size_t first, std::size_t stride, std::size_t n,
                  double* dst) const noexcept {
        assert(n == 0 || first + (n - 1) * stride < n_);
        *rd_ += n * sizeof(T);
        for (std::size_t i = 0; i < n; ++i) {
            dst[i] = static_cast<double>(data_[first + i * stride]);
        }
    }

    void st(std::size_t i, const value_type& v) const noexcept
        requires(!std::is_const_v<T>)
    {
        assert(i < n_);
        *wr_ += sizeof(T);
        data_[i] = v;
    }

    /// One charged store window of `n` contiguous elements at `first`.
    [[nodiscard]] value_type* st_bulk(std::size_t first, std::size_t n) const noexcept
        requires(!std::is_const_v<T>)
    {
        assert(first + n <= n_);
        *wr_ += n * sizeof(T);
        return data_ + first;
    }

    /// Charge `n` element stores and return the span base (strided/tiled
    /// write loops; the caller must write exactly `n` elements).
    [[nodiscard]] value_type* st_footprint(std::size_t n) const noexcept
        requires(!std::is_const_v<T>)
    {
        assert(n <= n_);
        *wr_ += n * sizeof(T);
        return data_;
    }

    /// Charge `n` element stores without a range bound (see ld_charge).
    [[nodiscard]] value_type* st_charge(std::size_t n) const noexcept
        requires(!std::is_const_v<T>)
    {
        *wr_ += n * sizeof(T);
        return data_;
    }

    /// Strided scatter of `n` doubles narrowed to T (static_cast, identical
    /// to the per-element `st` idiom), charged as one `n`-element store.
    void st_lanes(std::size_t first, std::size_t stride, std::size_t n,
                  const double* src) const noexcept
        requires(!std::is_const_v<T>)
    {
        assert(n == 0 || first + (n - 1) * stride < n_);
        *wr_ += n * sizeof(T);
        for (std::size_t i = 0; i < n; ++i) {
            data_[first + i * stride] = static_cast<value_type>(src[i]);
        }
    }

    /// Read-modify-write accumulation, the modeled `atomicAdd`: charges one
    /// load and one store (exactly what the serial `st(i, ld(i) + v)` idiom
    /// charged) and is safe under the parallel block scheduler. Histogram
    /// counts are integer-valued doubles, so the sum is exact and the
    /// result is independent of block execution order.
    void atomic_add(std::size_t i, const value_type& v) const noexcept
        requires(!std::is_const_v<T>)
    {
        assert(i < n_);
        *rd_ += sizeof(T);
        *wr_ += sizeof(T);
        std::atomic_ref<value_type>(data_[i]).fetch_add(v, std::memory_order_relaxed);
    }

private:
    T* data_;
    std::size_t n_;
    std::uint64_t* rd_;
    std::uint64_t* wr_;
};

}  // namespace cuzc::vgpu

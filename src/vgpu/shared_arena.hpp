#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cuzc::vgpu {

/// Kernel-side view of a shared-memory allocation; loads/stores are charged
/// to the launch's shared-memory counters. Hot loops over contiguous runs
/// should use `ld_bulk`/`st_bulk` (or the strided `*_footprint` forms),
/// which charge the whole run with one counter update — totals are
/// bit-identical to per-element ld/st of the same elements.
template <class T>
class SharedArray {
public:
    SharedArray(T* data, std::size_t n, std::uint64_t* rd, std::uint64_t* wr) noexcept
        : data_(data), n_(n), rd_(rd), wr_(wr) {}

    [[nodiscard]] std::size_t size() const noexcept { return n_; }

    [[nodiscard]] T ld(std::size_t i) const noexcept {
        assert(i < n_);
        *rd_ += sizeof(T);
        return data_[i];
    }

    void st(std::size_t i, const T& v) const noexcept {
        assert(i < n_);
        *wr_ += sizeof(T);
        data_[i] = v;
    }

    /// One charged load of `n` contiguous elements starting at `first`.
    [[nodiscard]] const T* ld_bulk(std::size_t first, std::size_t n) const noexcept {
        assert(first + n <= n_);
        *rd_ += n * sizeof(T);
        return data_ + first;
    }

    /// One charged store window of `n` contiguous elements at `first`.
    [[nodiscard]] T* st_bulk(std::size_t first, std::size_t n) const noexcept {
        assert(first + n <= n_);
        *wr_ += n * sizeof(T);
        return data_ + first;
    }

    /// Charge `n` element loads and return the array base for a strided loop
    /// that reads exactly `n` elements through the returned pointer.
    [[nodiscard]] const T* ld_footprint(std::size_t n) const noexcept {
        assert(n <= n_);
        *rd_ += n * sizeof(T);
        return data_;
    }

    /// Charge `n` element stores and return the array base (strided writes).
    [[nodiscard]] T* st_footprint(std::size_t n) const noexcept {
        assert(n <= n_);
        *wr_ += n * sizeof(T);
        return data_;
    }

    /// Charge `n` element loads without a range bound — for read-modify-write
    /// loops (histograms) whose charged count may exceed the array size.
    [[nodiscard]] const T* ld_charge(std::size_t n) const noexcept {
        *rd_ += n * sizeof(T);
        return data_;
    }

    /// Charge `n` element stores without a range bound (see ld_charge).
    [[nodiscard]] T* st_charge(std::size_t n) const noexcept {
        *wr_ += n * sizeof(T);
        return data_;
    }

private:
    T* data_;
    std::size_t n_;
    std::uint64_t* rd_;
    std::uint64_t* wr_;
};

/// Reports an allocation past a SharedArena's capacity on stderr and
/// aborts the process. Out of line so that each `alloc<T>` instantiation
/// carries only a call: inlined, the cold path grew every kernel's code
/// and shifted unrelated hot loops of the binary by 48 bytes, which slowed
/// them measurably.
[[noreturn]] void shared_arena_overflow(std::size_t n, std::size_t elem_bytes,
                                        std::size_t offset, std::size_t capacity) noexcept;

/// Per-block shared memory modeled as a bump allocator over a fixed-size
/// byte arena. Peak allocation is tracked and reported as the block's
/// shared-memory footprint ("SMem/TB" in the paper's Table II). Exceeding
/// the device's per-block carve-out is a programming error that aborts the
/// process in every build type, as an oversized launch fails on real
/// hardware instead of running.
///
/// Arenas are pooled: the execution engine keeps one per worker (plus one
/// per resident block for cooperative launches) and recycles it with
/// `begin_block`, so steady-state launches perform no shared-memory
/// allocation at all. Like real shared memory, a recycled arena's contents
/// are unspecified — kernels must write before reading.
class SharedArena {
public:
    SharedArena(std::uint64_t capacity, std::uint64_t* rd, std::uint64_t* wr)
        : storage_(capacity), rd_(rd), wr_(wr) {}

    template <class T>
    [[nodiscard]] SharedArray<T> alloc(std::size_t n) {
        const std::size_t align = alignof(T);
        offset_ = (offset_ + align - 1) / align * align;
        if (offset_ > storage_.size() || n > (storage_.size() - offset_) / sizeof(T)) {
            // Checked in every build type: past this point the kernel would
            // write beyond the arena. Kernels size their requests against
            // DeviceProps::smem_per_block before launching.
            shared_arena_overflow(n, sizeof(T), offset_, storage_.size());
        }
        const std::size_t bytes = n * sizeof(T);
        T* p = reinterpret_cast<T*>(storage_.data() + offset_);
        offset_ += bytes;
        peak_ = offset_ > peak_ ? offset_ : peak_;
        return SharedArray<T>(p, n, rd_, wr_);
    }

    [[nodiscard]] std::uint64_t peak_bytes() const noexcept { return peak_; }

    /// Recycle the arena for a new block of a (possibly different) launch:
    /// clears the bump offset AND the peak tracker, and rebinds the charge
    /// counters to the new launch's shard. Without the peak reset a pooled
    /// arena would leak one launch's footprint into the next launch's
    /// SMem/TB figure.
    void begin_block(std::uint64_t* rd, std::uint64_t* wr) noexcept {
        offset_ = 0;
        peak_ = 0;
        rd_ = rd;
        wr_ = wr;
    }

    /// Release all allocations but keep the peak (intra-block reuse).
    void reset() noexcept { offset_ = 0; }

private:
    std::vector<std::byte> storage_;
    std::size_t offset_ = 0;
    std::uint64_t peak_ = 0;
    std::uint64_t* rd_;
    std::uint64_t* wr_;
};

}  // namespace cuzc::vgpu

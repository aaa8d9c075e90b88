#include "shared_arena.hpp"

#include <cstdio>
#include <cstdlib>

namespace cuzc::vgpu {

void shared_arena_overflow(std::size_t n, std::size_t elem_bytes, std::size_t offset,
                           std::size_t capacity) noexcept {
    std::fprintf(stderr,
                 "vgpu: shared memory allocation of %zu elements of %zu bytes at offset %zu "
                 "exceeds the per-block capacity of %zu bytes\n",
                 n, elem_bytes, offset, capacity);
    std::abort();
}

}  // namespace cuzc::vgpu

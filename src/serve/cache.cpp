#include "cache.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace cuzc::serve {

namespace {

constexpr std::uint64_t kMulLo = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kMulHi = 0xc2b2ae3d27d4eb4full;

/// One multiply-xorshift step. For any fixed `w` it is a bijection of `h`
/// (odd multiplier, invertible xorshift), so two inputs that differ in one
/// word, with everything else equal, always leave different states.
[[nodiscard]] constexpr std::uint64_t step(std::uint64_t h, std::uint64_t w,
                                           std::uint64_t k) noexcept {
    h = (h ^ w) * k;
    return h ^ (h >> 29);
}

/// Eight independent multiply-xorshift chains, each consuming one 64-bit
/// word per 64-byte round. Words are loaded with memcpy, so the state
/// depends on the bytes and never on their alignment.
struct Lanes {
    std::uint64_t v[8];

    Lanes() {
        for (std::uint64_t i = 0; i < 8; ++i) v[i] = 0x243f6a8885a308d3ull + i * kMulHi;
    }

    void absorb(const unsigned char* p, std::size_t n) {
        const auto load = [](const unsigned char* q) {
            std::uint64_t w;
            std::memcpy(&w, q, sizeof w);
            return w;
        };
        for (; n >= 64; p += 64, n -= 64) {
            for (std::size_t i = 0; i < 8; ++i) v[i] = step(v[i], load(p + 8 * i), kMulLo);
        }
        // The tail: whole words into the first lanes, then the last bytes
        // zero-padded. The byte count comes from the dims, which the key
        // also mixes, so the padding is unambiguous.
        std::size_t i = 0;
        for (; n >= 8; p += 8, n -= 8, ++i) v[i] = step(v[i], load(p), kMulLo);
        if (n > 0) {
            std::uint64_t w = 0;
            std::memcpy(&w, p, n);
            v[i] = step(v[i], w, kMulLo);
        }
    }
};

}  // namespace

CacheKey result_cache_key(const zc::Tensor3f& orig, const zc::Tensor3f& dec,
                          const zc::MetricsConfig& cfg) {
    // A shape mismatch can never be a legitimate cache entry; hashing such
    // a pair would mint a key for a request the service must reject anyway.
    if (!(orig.dims() == dec.dims())) {
        throw std::invalid_argument("result_cache_key: original/decompressed shape mismatch");
    }
    Lanes lanes;
    lanes.absorb(reinterpret_cast<const unsigned char*>(orig.data().data()),
                 orig.data().size_bytes());
    lanes.absorb(reinterpret_cast<const unsigned char*>(dec.data().data()),
                 dec.data().size_bytes());

    const auto knob = [](int v) {
        return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
    };
    const std::uint64_t meta[] = {
        orig.dims().h,          orig.dims().w,
        orig.dims().l,          cfg.pattern1,
        cfg.pattern2,           cfg.pattern3,
        knob(cfg.pdf_bins),     knob(cfg.autocorr_max_lag),
        knob(cfg.deriv_orders), knob(cfg.ssim_window),
        knob(cfg.ssim_step),    std::bit_cast<std::uint64_t>(cfg.pwr_eps),
    };
    // Two chains over the same words with distinct seeds, multipliers and
    // lane orders give the key's two halves.
    CacheKey key{0x13198a2e03707344ull, 0xa4093822299f31d0ull};
    for (const std::uint64_t m : meta) {
        key.lo = step(key.lo, m, kMulLo);
        key.hi = step(key.hi, m, kMulHi);
    }
    for (std::size_t i = 0; i < 8; ++i) {
        key.lo = step(key.lo, lanes.v[i], kMulLo);
        key.hi = step(key.hi, lanes.v[7 - i], kMulHi);
    }
    return key;
}

std::optional<::cuzc::cuzc::CuzcResult> ResultCache::lookup(const CacheKey& key) {
    std::lock_guard lk(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
        ++misses_;
        return std::nullopt;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);  // move to most-recent
    return it->second->result;
}

void ResultCache::insert(const CacheKey& key, const ::cuzc::cuzc::CuzcResult& result) {
    if (capacity_ == 0) return;
    std::lock_guard lk(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->result = result;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.push_front(Entry{key, result});
    index_.emplace(key, lru_.begin());
    if (lru_.size() > capacity_) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++evictions_;
    }
}

std::size_t ResultCache::size() const {
    std::lock_guard lk(mu_);
    return lru_.size();
}

std::uint64_t ResultCache::hits() const {
    std::lock_guard lk(mu_);
    return hits_;
}

std::uint64_t ResultCache::misses() const {
    std::lock_guard lk(mu_);
    return misses_;
}

std::uint64_t ResultCache::evictions() const {
    std::lock_guard lk(mu_);
    return evictions_;
}

}  // namespace cuzc::serve

// Structure-aware fuzzing of the SZ stream decoder. Any wire client can
// send an SZ stream as `AssessRequest::sz_stream`, so `sz::decompress`
// either returns a field of the shape the header declares or throws
// std::invalid_argument: no other exception, no out-of-bounds access, no
// allocation the bytes cannot justify. Campaigns mutate valid
// `sz::compress` streams one region at a time: a header extent, a count,
// a code-table entry, or the payload.

#include <array>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/fuzz.hpp"
#include "fuzz/mutate.hpp"
#include "fuzz/rng.hpp"
#include "sz/bitstream.hpp"
#include "sz/sz_compressor.hpp"

namespace cuzc::fuzz {
namespace {

using Table = std::vector<std::pair<std::uint32_t, std::uint8_t>>;

/// sz::compress's layout with the given (symbol, length) table, no
/// unpredictable values and `payload` as the Huffman bits.
std::vector<std::uint8_t> raw_stream(const zc::Dims3& dims, std::uint32_t num_codes,
                                     const Table& table,
                                     const std::vector<std::uint8_t>& payload) {
    sz::ByteWriter w;
    w.put<std::uint32_t>(0x435a5343);  // magic
    for (const std::uint64_t extent : {dims.h, dims.w, dims.l}) w.put(extent);
    w.put<double>(1e-3);  // error bound
    w.put(num_codes);
    w.put(static_cast<std::uint32_t>(table.size()));
    for (const auto& [symbol, length] : table) {
        w.put(symbol);
        w.put(length);
    }
    w.put<std::uint64_t>(0);  // unpredictable values
    w.put<std::uint64_t>(payload.size());
    w.put_bytes(payload);
    return w.finish();
}

std::vector<std::uint8_t> valid_stream(Rng& rng) {
    zc::Field f(zc::Dims3{rng.range(1, 8), rng.range(1, 8), rng.range(1, 8)});
    double v = rng.unit();
    for (float& x : f.data()) {
        v += (rng.unit() - 0.5) * 0.1;
        x = static_cast<float>(rng.chance(0.05) ? rng.unit() * 100.0 : v);
    }
    sz::SzConfig cfg;
    cfg.abs_error_bound = std::array{1e-1, 1e-3, 1e-6}[rng.below(3)];
    cfg.quant_codes = std::array<std::uint32_t, 3>{16, 256, 65536}[rng.below(3)];
    return sz::compress(f.view(), cfg).bytes;
}

/// Overwrite the `width` bytes at `at` with a boundary or random count.
void put_hostile(std::vector<std::uint8_t>& bytes, std::size_t at, std::size_t width, Rng& rng) {
    constexpr std::array<std::uint64_t, 8> kPicks{
        0, 1, 16, sz::kMaxQuantCodes, sz::kMaxQuantCodes + 1, 0xFFFFFFFFull, 1ull << 32, ~0ull};
    const std::uint64_t v = rng.chance(0.6) ? kPicks[rng.below(kPicks.size())] : rng.next();
    for (std::size_t i = 0; i < width && at + i < bytes.size(); ++i) {
        bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

/// One structured mutation of a valid stream. Offsets follow compress's
/// layout: magic, h/w/l at 4, error bound, num_codes at 36, the symbol
/// count at 40, five-byte table entries from 44, the unpredictable count
/// and floats, then the payload size and bytes.
void mutate_stream(std::vector<std::uint8_t>& bytes, Rng& rng) {
    std::uint32_t present = 0;
    std::memcpy(&present, bytes.data() + 40, sizeof present);
    const std::size_t unpred_at = 44 + 5 * std::size_t{present};
    std::uint64_t n_unpred = 0;
    std::memcpy(&n_unpred, bytes.data() + unpred_at, sizeof n_unpred);
    switch (rng.below(5)) {
        case 0: put_hostile(bytes, 4 + 8 * rng.below(3), 8, rng); break;
        case 1: put_hostile(bytes, rng.chance(0.5) ? 36 : 40, 4, rng); break;
        case 2:  // a symbol or its code length
            if (present == 0) break;
            put_hostile(bytes, 44 + 5 * rng.below(present) + (rng.chance(0.5) ? 0 : 4),
                        rng.chance(0.5) ? 4 : 1, rng);
            break;
        case 3:  // the unpredictable count or the payload size
            put_hostile(bytes, unpred_at + (rng.chance(0.5) ? 0 : 8 + 4 * n_unpred), 8, rng);
            break;
        default: mutate_bytes(bytes, rng, 3);  // the payload, or blind bytes anywhere
    }
}

void sz_replay(std::span<const std::uint8_t> bytes, Oracle oracle) {
    bool rejected = false;
    std::string why;
    try {
        const zc::Field f = sz::decompress(bytes);
        if (f.dims() != sz::stream_dims(bytes)) {
            throw FuzzFailure("decoded field does not have the stream's shape",
                              {bytes.begin(), bytes.end()}, Oracle::kInvariant);
        }
    } catch (const std::invalid_argument& e) {
        rejected = true;
        why = e.what();
    }
    check_verdict(bytes, oracle, rejected, "stream", why);
}

void sz_decode_iterate(std::uint64_t seed, std::uint64_t iter) {
    Rng rng(mix_seed(seed, iter, 0x737a6463));  // "szdc"
    const std::vector<std::uint8_t> valid = valid_stream(rng);
    std::vector<std::uint8_t> mutated = valid;
    mutate_stream(mutated, rng);
    probe(sz_replay, valid, Oracle::kAccept, "sz::decompress");
    probe(sz_replay, mutated, Oracle::kInvariant, "sz::decompress");
}

void sz_decode_corpus(CorpusWriter& w) {
    Rng rng(17);
    w.add("valid-small.bin", Oracle::kAccept, valid_stream(rng));
    w.add("magic-only.bin", Oracle::kReject, std::vector<std::uint8_t>{0x43, 0x53, 0x5a, 0x43});
    // Symbol 8 is code 0 after the radius shift; bit 1 matches no code.
    w.add("payload-matches-no-code.bin", Oracle::kReject,
          raw_stream({1, 1, 8}, 16, {{8, 1}}, {0xFF}));
    // 2^32 x 2^32 x 1 wraps to a volume of 0.
    w.add("dims-volume-wraps.bin", Oracle::kReject,
          raw_stream({1ull << 32, 1ull << 32, 1}, 16, {{8, 1}}, {0x00}));
    // 268 M elements declared by 66 bytes: more than 8 per payload byte.
    w.add("volume-bomb.bin", Oracle::kReject,
          raw_stream({1024, 1024, 256}, 16, {{8, 1}}, {0x00}));
    // 61 bytes asking for a 4 GiB code-length table.
    w.add("num-codes-bomb.bin", Oracle::kReject, raw_stream({1, 1, 8}, 0xFFFFFFFFu, {}, {0x00}));
}

}  // namespace

void register_sz_targets() {
    register_target(Target{
        "sz-decode",
        "SZ stream decoder: mutated compress streams decode to the header's shape or throw "
        "std::invalid_argument",
        sz_decode_iterate,
        sz_replay,
        sz_decode_corpus,
    });
}

}  // namespace cuzc::fuzz

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitstream.hpp"

namespace cuzc::sz {

/// Canonical Huffman codec over a dense symbol alphabet, the entropy stage
/// of the SZ-style compressor (SZ encodes its quantization codes exactly
/// this way). Codes are canonical so the table serializes as one code
/// length per present symbol.
class HuffmanCodec {
public:
    /// Build from symbol frequencies (index = symbol). Symbols with zero
    /// frequency receive no code. At least one symbol must be present.
    static HuffmanCodec from_frequencies(std::span<const std::uint64_t> freq);

    /// Rebuild from serialized code lengths. Throws std::invalid_argument
    /// on a length over 57 bits or lengths no prefix code has (Kraft sum
    /// over 1).
    static HuffmanCodec from_lengths(std::vector<std::uint8_t> lengths);

    void encode(std::span<const std::uint32_t> symbols, BitWriter& out) const;
    /// Throws std::invalid_argument on a bit pattern that is no code.
    [[nodiscard]] std::vector<std::uint32_t> decode(BitReader& in, std::size_t count) const;

    [[nodiscard]] const std::vector<std::uint8_t>& lengths() const noexcept { return lengths_; }

    /// Expected encoded size in bits for the given frequencies (used by the
    /// compression-ratio estimator and tested against actual output).
    [[nodiscard]] std::uint64_t encoded_bits(std::span<const std::uint64_t> freq) const;

private:
    HuffmanCodec() = default;
    void build_canonical();

    std::vector<std::uint8_t> lengths_;   // per-symbol code length, 0 = absent
    std::vector<std::uint64_t> codes_;    // per-symbol canonical code (MSB-first)
    // Canonical decode tables indexed by code length 1..max_len_.
    std::vector<std::uint64_t> first_code_;    // first canonical code of each length
    std::vector<std::uint32_t> first_index_;   // index into sorted_symbols_ for each length
    std::vector<std::uint32_t> count_;         // number of codes of each length
    std::vector<std::uint32_t> sorted_symbols_;
    unsigned max_len_ = 0;
};

}  // namespace cuzc::sz

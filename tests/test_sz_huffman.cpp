// Unit tests for the canonical Huffman codec.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "data/noise.hpp"
#include "sz/huffman.hpp"

namespace {

namespace sz = ::cuzc::sz;

std::vector<std::uint32_t> encode_decode(const std::vector<std::uint32_t>& symbols,
                                         std::size_t alphabet) {
    std::vector<std::uint64_t> freq(alphabet, 0);
    for (const auto s : symbols) ++freq[s];
    const auto codec = sz::HuffmanCodec::from_frequencies(freq);
    sz::BitWriter w;
    codec.encode(symbols, w);
    const auto bytes = w.finish();
    sz::BitReader r(bytes);
    return codec.decode(r, symbols.size());
}

TEST(Huffman, RoundTripSkewedDistribution) {
    std::vector<std::uint32_t> symbols;
    for (int i = 0; i < 1000; ++i) symbols.push_back(0);
    for (int i = 0; i < 100; ++i) symbols.push_back(1);
    for (int i = 0; i < 10; ++i) symbols.push_back(2);
    symbols.push_back(3);
    EXPECT_EQ(encode_decode(symbols, 16), symbols);
}

TEST(Huffman, RoundTripUniformAlphabet) {
    std::vector<std::uint32_t> symbols;
    for (std::uint32_t i = 0; i < 4096; ++i) symbols.push_back(i % 256);
    EXPECT_EQ(encode_decode(symbols, 256), symbols);
}

TEST(Huffman, RoundTripRandomized) {
    std::vector<std::uint32_t> symbols;
    std::uint64_t state = 7;
    for (int i = 0; i < 20000; ++i) {
        state = cuzc::data::mix64(state);
        // Geometric-ish distribution over 64 symbols: usually a small
        // symbol, occasionally one from the long tail.
        const std::uint32_t tail = state % 7 == 0 ? static_cast<std::uint32_t>(state % 56) : 0;
        symbols.push_back(tail + static_cast<std::uint32_t>(state % 8));
    }
    EXPECT_EQ(encode_decode(symbols, 64), symbols);
}

TEST(Huffman, SingleSymbolAlphabet) {
    const std::vector<std::uint32_t> symbols(100, 5);
    EXPECT_EQ(encode_decode(symbols, 8), symbols);
}

TEST(Huffman, SkewedCodesAreShorterForFrequentSymbols) {
    std::vector<std::uint64_t> freq(4, 0);
    freq[0] = 1000;
    freq[1] = 10;
    freq[2] = 10;
    freq[3] = 1;
    const auto codec = sz::HuffmanCodec::from_frequencies(freq);
    EXPECT_LT(codec.lengths()[0], codec.lengths()[3]);
    EXPECT_EQ(codec.lengths()[0], 1);
}

TEST(Huffman, EncodedSizeNearEntropy) {
    // 50/25/12.5/12.5 distribution: H = 1.75 bits/symbol; Huffman achieves
    // it exactly for dyadic distributions.
    std::vector<std::uint32_t> symbols;
    for (int i = 0; i < 4000; ++i) symbols.push_back(0);
    for (int i = 0; i < 2000; ++i) symbols.push_back(1);
    for (int i = 0; i < 1000; ++i) symbols.push_back(2);
    for (int i = 0; i < 1000; ++i) symbols.push_back(3);
    std::vector<std::uint64_t> freq(4, 0);
    for (const auto s : symbols) ++freq[s];
    const auto codec = sz::HuffmanCodec::from_frequencies(freq);
    EXPECT_EQ(codec.encoded_bits(freq), static_cast<std::uint64_t>(1.75 * 8000));
    sz::BitWriter w;
    codec.encode(symbols, w);
    EXPECT_EQ(w.bit_count(), codec.encoded_bits(freq));
}

TEST(Huffman, LengthsSatisfyKraftEquality) {
    std::vector<std::uint64_t> freq(100, 0);
    std::uint64_t state = 3;
    for (auto& f : freq) {
        state = cuzc::data::mix64(state);
        f = state % 1000;
    }
    freq[0] = 1;  // ensure at least one present
    const auto codec = sz::HuffmanCodec::from_frequencies(freq);
    double kraft = 0;
    int present = 0;
    for (const auto len : codec.lengths()) {
        if (len > 0) {
            kraft += std::pow(2.0, -static_cast<double>(len));
            ++present;
        }
    }
    if (present > 1) {
        EXPECT_NEAR(kraft, 1.0, 1e-12);  // full binary tree
    }
}

TEST(Huffman, SerializedLengthsAreValidatedAndBadCodesThrow) {
    // Lengths arrive from untrusted streams: a length past the bit-I/O
    // limit, or more codes than the code space holds, is refused.
    EXPECT_THROW((void)sz::HuffmanCodec::from_lengths({58}), std::invalid_argument);
    EXPECT_THROW((void)sz::HuffmanCodec::from_lengths({1, 1, 1}), std::invalid_argument);
    EXPECT_THROW((void)sz::HuffmanCodec::from_lengths({1, 2, 2, 3}), std::invalid_argument);
    EXPECT_NO_THROW((void)sz::HuffmanCodec::from_lengths({57}));
    EXPECT_NO_THROW((void)sz::HuffmanCodec::from_lengths({1, 2, 2}));

    // An incomplete code: bit pattern 1 is no code, so decoding throws
    // instead of walking past the longest length.
    const auto codec = sz::HuffmanCodec::from_lengths({1});
    const std::vector<std::uint8_t> ones{0xFF};
    sz::BitReader r(ones);
    EXPECT_THROW((void)codec.decode(r, 1), std::invalid_argument);
}

TEST(Huffman, SerializationViaLengthsRebuildsSameCodes) {
    std::vector<std::uint64_t> freq{500, 200, 100, 50, 25, 12, 6, 3};
    const auto codec = sz::HuffmanCodec::from_frequencies(freq);
    const auto rebuilt = sz::HuffmanCodec::from_lengths(codec.lengths());
    std::vector<std::uint32_t> symbols;
    for (std::uint32_t s = 0; s < 8; ++s) {
        for (int i = 0; i < 17; ++i) symbols.push_back(s);
    }
    sz::BitWriter w;
    codec.encode(symbols, w);
    const auto bytes = w.finish();
    sz::BitReader r(bytes);
    EXPECT_EQ(rebuilt.decode(r, symbols.size()), symbols);
}

}  // namespace

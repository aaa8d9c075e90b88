#include "huffman.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace cuzc::sz {

namespace {

constexpr unsigned kMaxCodeLen = 57;  // fits a single BitWriter::put

/// Compute Huffman code lengths from frequencies with the classic two-queue
/// O(n log n) construction.
std::vector<std::uint8_t> code_lengths(std::span<const std::uint64_t> freq) {
    struct Node {
        std::uint64_t f;
        int left = -1, right = -1;
        std::uint32_t symbol = 0;
        bool leaf = false;
    };
    std::vector<Node> nodes;
    using QE = std::pair<std::uint64_t, int>;
    std::priority_queue<QE, std::vector<QE>, std::greater<>> heap;

    for (std::uint32_t s = 0; s < freq.size(); ++s) {
        if (freq[s] > 0) {
            nodes.push_back(Node{freq[s], -1, -1, s, true});
            heap.emplace(freq[s], static_cast<int>(nodes.size()) - 1);
        }
    }
    std::vector<std::uint8_t> lengths(freq.size(), 0);
    if (nodes.empty()) return lengths;
    if (nodes.size() == 1) {
        lengths[nodes[0].symbol] = 1;
        return lengths;
    }
    while (heap.size() > 1) {
        auto [fa, a] = heap.top();
        heap.pop();
        auto [fb, b] = heap.top();
        heap.pop();
        nodes.push_back(Node{fa + fb, a, b, 0, false});
        heap.emplace(fa + fb, static_cast<int>(nodes.size()) - 1);
    }
    // Depth-first assignment of depths to leaves.
    std::vector<std::pair<int, std::uint8_t>> stack{{heap.top().second, 0}};
    while (!stack.empty()) {
        auto [idx, depth] = stack.back();
        stack.pop_back();
        const Node& node = nodes[static_cast<std::size_t>(idx)];
        if (node.leaf) {
            lengths[node.symbol] = depth == 0 ? 1 : depth;
        } else {
            stack.emplace_back(node.left, static_cast<std::uint8_t>(depth + 1));
            stack.emplace_back(node.right, static_cast<std::uint8_t>(depth + 1));
        }
    }
    return lengths;
}

}  // namespace

HuffmanCodec HuffmanCodec::from_frequencies(std::span<const std::uint64_t> freq) {
    // Rarely, extremely skewed distributions give codes deeper than the
    // bit-I/O limit; flattening frequencies (freq >> k, floored at 1 for
    // present symbols) shallows the tree at negligible ratio cost.
    std::vector<std::uint64_t> f(freq.begin(), freq.end());
    for (int attempt = 0; attempt < 8; ++attempt) {
        auto lengths = code_lengths(f);
        const auto max_len =
            *std::max_element(lengths.begin(), lengths.end());
        if (max_len <= kMaxCodeLen) return from_lengths(std::move(lengths));
        for (std::size_t s = 0; s < f.size(); ++s) {
            if (freq[s] > 0) f[s] = std::max<std::uint64_t>(1, f[s] >> 8);
        }
    }
    assert(false && "huffman code length limit not reachable");
    return from_lengths(code_lengths(f));
}

HuffmanCodec HuffmanCodec::from_lengths(std::vector<std::uint8_t> lengths) {
    // Kraft sum in units of 2^-kMaxCodeLen; each term is at most 2^56, so
    // the running sum cannot wrap before it passes 1.
    std::uint64_t kraft = 0;
    for (const auto len : lengths) {
        if (len == 0) continue;
        if (len > kMaxCodeLen) throw std::invalid_argument("huffman: code length over 57 bits");
        kraft += 1ull << (kMaxCodeLen - len);
        if (kraft > 1ull << kMaxCodeLen) {
            throw std::invalid_argument("huffman: code lengths oversubscribe the code space");
        }
    }
    HuffmanCodec c;
    c.lengths_ = std::move(lengths);
    c.build_canonical();
    return c;
}

void HuffmanCodec::build_canonical() {
    max_len_ = 0;
    for (const auto len : lengths_) max_len_ = std::max<unsigned>(max_len_, len);
    count_.assign(max_len_ + 1, 0);
    for (const auto len : lengths_) {
        if (len > 0) ++count_[len];
    }

    sorted_symbols_.clear();
    for (std::uint32_t s = 0; s < lengths_.size(); ++s) {
        if (lengths_[s] > 0) sorted_symbols_.push_back(s);
    }
    std::sort(sorted_symbols_.begin(), sorted_symbols_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return lengths_[a] != lengths_[b] ? lengths_[a] < lengths_[b] : a < b;
              });

    first_code_.assign(max_len_ + 1, 0);
    first_index_.assign(max_len_ + 1, 0);
    std::uint64_t code = 0;
    std::uint32_t index = 0;
    for (unsigned len = 1; len <= max_len_; ++len) {
        code = (code + (len > 1 ? count_[len - 1] : 0)) << 1;
        first_code_[len] = code;
        first_index_[len] = index;
        index += count_[len];
    }

    codes_.assign(lengths_.size(), 0);
    std::vector<std::uint64_t> next = first_code_;
    for (const auto s : sorted_symbols_) {
        codes_[s] = next[lengths_[s]]++;
    }
}

void HuffmanCodec::encode(std::span<const std::uint32_t> symbols, BitWriter& out) const {
    for (const auto s : symbols) {
        assert(s < lengths_.size() && lengths_[s] > 0 && "symbol without a code");
        out.put(codes_[s], lengths_[s]);
    }
}

std::vector<std::uint32_t> HuffmanCodec::decode(BitReader& in, std::size_t count) const {
    std::vector<std::uint32_t> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t code = 0;
        unsigned len = 0;
        for (;;) {
            code = (code << 1) | (in.get_bit() ? 1u : 0u);
            if (++len > max_len_) throw std::invalid_argument("huffman: corrupt stream");
            if (count_[len] > 0 && code >= first_code_[len] &&
                code - first_code_[len] < count_[len]) {
                out.push_back(
                    sorted_symbols_[first_index_[len] + (code - first_code_[len])]);
                break;
            }
        }
    }
    return out;
}

std::uint64_t HuffmanCodec::encoded_bits(std::span<const std::uint64_t> freq) const {
    std::uint64_t bits = 0;
    const std::size_t n = std::min(freq.size(), lengths_.size());
    for (std::size_t s = 0; s < n; ++s) bits += freq[s] * lengths_[s];
    return bits;
}

}  // namespace cuzc::sz

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "zc/tensor.hpp"

namespace cuzc::sz {

/// Largest quantization alphabet a stream may declare: 2^20 codes, 16x
/// the default. The stream stores it as a u32 and the decoder sizes a
/// dense code-length table from it, so `compress` refuses a larger
/// `quant_codes` and `decompress` rejects a larger `num_codes` before
/// allocating anything.
inline constexpr std::uint32_t kMaxQuantCodes = 1u << 20;

/// Compression configuration. `abs_error_bound` is the pointwise absolute
/// bound; when `use_rel_bound` is set the effective absolute bound is
/// rel_error_bound * (value range of the input), SZ's "REL" mode.
/// `quant_codes` lies in [16, kMaxQuantCodes].
struct SzConfig {
    double abs_error_bound = 1e-3;
    bool use_rel_bound = false;
    double rel_error_bound = 1e-3;
    std::uint32_t quant_codes = 65536;
};

/// A compressed field plus the compression statistics Z-checker reports
/// (compression ratio; throughputs are measured by the caller).
struct SzCompressed {
    std::vector<std::uint8_t> bytes;
    zc::Dims3 dims;
    double effective_error_bound = 0;
    std::size_t unpredictable_count = 0;

    [[nodiscard]] double compression_ratio() const noexcept {
        const double raw = static_cast<double>(dims.volume()) * sizeof(float);
        return bytes.empty() ? 0.0 : raw / static_cast<double>(bytes.size());
    }
};

/// Error-bounded lossy compression in the style of SZ 1.4 (the algorithm
/// cuSZ implements): Lorenzo prediction -> linear-scaling quantization ->
/// canonical Huffman coding, with verbatim storage of unpredictable values.
/// Guarantees |decompress(compress(x))_i - x_i| <= effective bound for all i.
[[nodiscard]] SzCompressed compress(const zc::Tensor3f& input, const SzConfig& cfg);

/// Inverse of `compress`. Throws std::invalid_argument on any stream it
/// cannot decode, including truncated or hostile bytes.
[[nodiscard]] zc::Field decompress(std::span<const std::uint8_t> bytes);

/// The field shape a stream's header declares, read without decoding, so a
/// caller can reject a mismatch before paying for the decode. Throws
/// std::invalid_argument on a bad magic or a short header.
[[nodiscard]] zc::Dims3 stream_dims(std::span<const std::uint8_t> bytes);

}  // namespace cuzc::sz

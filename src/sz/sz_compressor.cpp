#include "sz_compressor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "bitstream.hpp"
#include "huffman.hpp"
#include "lorenzo.hpp"
#include "quantizer.hpp"

namespace cuzc::sz {

namespace {

constexpr std::uint32_t kMagic = 0x435a5343;  // "CSZC"

double effective_bound(const zc::Tensor3f& input, const SzConfig& cfg) {
    if (!cfg.use_rel_bound) return cfg.abs_error_bound;
    float lo = input[0], hi = input[0];
    for (std::size_t i = 0; i < input.size(); ++i) {
        lo = std::min(lo, input[i]);
        hi = std::max(hi, input[i]);
    }
    const double range = static_cast<double>(hi) - lo;
    return range > 0 ? cfg.rel_error_bound * range : cfg.rel_error_bound;
}

/// Magic and field shape: the head of every stream.
zc::Dims3 read_header(ByteReader& r) {
    if (r.get<std::uint32_t>() != kMagic) {
        throw std::invalid_argument("sz::decompress: bad magic");
    }
    zc::Dims3 d;
    d.h = r.get<std::uint64_t>();
    d.w = r.get<std::uint64_t>();
    d.l = r.get<std::uint64_t>();
    return d;
}

}  // namespace

SzCompressed compress(const zc::Tensor3f& input, const SzConfig& cfg) {
    if (input.size() == 0) throw std::invalid_argument("sz::compress: empty input");
    if (cfg.quant_codes < 16 || cfg.quant_codes > kMaxQuantCodes) {
        throw std::invalid_argument("sz::compress: quant_codes outside [16, 2^20]");
    }

    SzCompressed out;
    out.dims = input.dims();
    out.effective_error_bound = effective_bound(input, cfg);
    if (!(out.effective_error_bound > 0)) {
        throw std::invalid_argument("sz::compress: error bound must be positive");
    }

    const zc::Dims3 d = input.dims();
    const std::size_t n = d.volume();
    const LinearQuantizer quant(out.effective_error_bound, cfg.quant_codes);

    std::vector<std::uint32_t> codes(n);
    std::vector<float> unpred;
    std::vector<double> recon(n, 0.0);

    std::size_t i = 0;
    for (std::size_t x = 0; x < d.h; ++x) {
        for (std::size_t y = 0; y < d.w; ++y) {
            for (std::size_t z = 0; z < d.l; ++z, ++i) {
                const double pred = lorenzo_predict(recon, d, x, y, z);
                double r;
                const std::uint32_t code = quant.quantize(input[i], pred, r);
                // Reconstructed values are rounded to float immediately so
                // the compressor's predictor chain sees exactly what the
                // decompressor will reproduce.
                const float rf = static_cast<float>(r);
                if (code != 0 && std::fabs(static_cast<double>(rf) - input[i]) >
                                     out.effective_error_bound) {
                    codes[i] = 0;
                    unpred.push_back(input[i]);
                    recon[i] = input[i];
                } else {
                    codes[i] = code;
                    if (code == 0) unpred.push_back(input[i]);
                    recon[i] = rf;
                }
            }
        }
    }
    out.unpredictable_count = unpred.size();

    std::vector<std::uint64_t> freq(cfg.quant_codes, 0);
    for (const auto c : codes) ++freq[c];
    const HuffmanCodec codec = HuffmanCodec::from_frequencies(freq);

    BitWriter bits;
    codec.encode(codes, bits);
    const std::vector<std::uint8_t> stream = bits.finish();

    ByteWriter w;
    w.put(kMagic);
    w.put<std::uint64_t>(d.h);
    w.put<std::uint64_t>(d.w);
    w.put<std::uint64_t>(d.l);
    w.put(out.effective_error_bound);
    w.put(cfg.quant_codes);
    // Sparse code-length table.
    std::uint32_t present = 0;
    for (const auto len : codec.lengths()) present += len > 0 ? 1 : 0;
    w.put(present);
    for (std::uint32_t s = 0; s < codec.lengths().size(); ++s) {
        if (codec.lengths()[s] > 0) {
            w.put(s);
            w.put(codec.lengths()[s]);
        }
    }
    w.put<std::uint64_t>(unpred.size());
    w.put_bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(unpred.data()), unpred.size() * sizeof(float)));
    w.put<std::uint64_t>(stream.size());
    w.put_bytes(stream);
    out.bytes = w.finish();
    return out;
}

zc::Dims3 stream_dims(std::span<const std::uint8_t> bytes) {
    ByteReader r(bytes);
    return read_header(r);
}

zc::Field decompress(std::span<const std::uint8_t> bytes) {
    // The stream may be hostile: every count below is checked before
    // anything is sized by it — num_codes against the format's limit, the
    // others against the bytes left.
    ByteReader r(bytes);
    const zc::Dims3 d = read_header(r);
    std::size_t n = 0;
    if (__builtin_mul_overflow(d.h, d.w, &n) || __builtin_mul_overflow(n, d.l, &n)) {
        throw std::invalid_argument("sz::decompress: field volume overflows");
    }
    const double eb = r.get<double>();
    const std::uint32_t num_codes = r.get<std::uint32_t>();
    if (num_codes > kMaxQuantCodes) {
        throw std::invalid_argument("sz::decompress: num_codes above 2^20");
    }
    const std::uint32_t present = r.get<std::uint32_t>();
    if (present > r.remaining() / 5) {  // 5 bytes per (symbol, length) entry
        throw std::invalid_argument("sz::decompress: truncated code table");
    }
    std::vector<std::uint8_t> lengths(num_codes, 0);
    for (std::uint32_t i = 0; i < present; ++i) {
        const std::uint32_t s = r.get<std::uint32_t>();
        const std::uint8_t len = r.get<std::uint8_t>();
        if (s >= num_codes) throw std::invalid_argument("sz::decompress: bad symbol");
        lengths[s] = len;
    }
    const std::uint64_t n_unpred = r.get<std::uint64_t>();
    if (n_unpred > r.remaining() / sizeof(float)) {
        throw std::invalid_argument("sz::decompress: truncated unpredictables");
    }
    const auto unpred_bytes = r.get_bytes(n_unpred * sizeof(float));
    std::vector<float> unpred(n_unpred);
    if (!unpred_bytes.empty()) {
        std::memcpy(unpred.data(), unpred_bytes.data(), unpred_bytes.size());
    }
    const std::uint64_t stream_size = r.get<std::uint64_t>();
    const auto stream = r.get_bytes(stream_size);
    // Every element carries a code of at least one bit.
    if (n > stream.size() * 8) {
        throw std::invalid_argument("sz::decompress: field larger than its code stream");
    }

    const HuffmanCodec codec = HuffmanCodec::from_lengths(std::move(lengths));
    BitReader bits(stream);
    const std::vector<std::uint32_t> codes = codec.decode(bits, n);

    const LinearQuantizer quant(eb, num_codes);
    zc::Field field(d);
    std::vector<double> recon(n, 0.0);
    std::size_t i = 0, u = 0;
    for (std::size_t x = 0; x < d.h; ++x) {
        for (std::size_t y = 0; y < d.w; ++y) {
            for (std::size_t z = 0; z < d.l; ++z, ++i) {
                float value;
                if (codes[i] == 0) {
                    if (u >= unpred.size()) {
                        throw std::invalid_argument("sz::decompress: truncated unpredictables");
                    }
                    value = unpred[u++];
                    recon[i] = value;
                } else {
                    const double pred = lorenzo_predict(recon, d, x, y, z);
                    value = static_cast<float>(quant.reconstruct(codes[i], pred));
                    recon[i] = value;
                }
                field.data()[i] = value;
            }
        }
    }
    return field;
}

}  // namespace cuzc::sz

#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace cuzc::sz {

/// MSB-first bit writer backing the Huffman-coded stream.
class BitWriter {
public:
    void put(std::uint64_t bits, unsigned count) {
        assert(count <= 57 && "single put limited to 57 bits");
        acc_ = (acc_ << count) | (bits & ((count == 64 ? ~0ull : (1ull << count) - 1)));
        filled_ += count;
        while (filled_ >= 8) {
            filled_ -= 8;
            out_.push_back(static_cast<std::uint8_t>(acc_ >> filled_));
        }
    }

    /// Flush the trailing partial byte (zero-padded) and return the stream.
    [[nodiscard]] std::vector<std::uint8_t> finish() {
        if (filled_ > 0) {
            out_.push_back(static_cast<std::uint8_t>(acc_ << (8 - filled_)));
            filled_ = 0;
        }
        return std::move(out_);
    }

    [[nodiscard]] std::size_t bit_count() const noexcept { return out_.size() * 8 + filled_; }

private:
    std::vector<std::uint8_t> out_;
    std::uint64_t acc_ = 0;
    unsigned filled_ = 0;
};

/// MSB-first bit reader.
class BitReader {
public:
    explicit BitReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

    [[nodiscard]] std::uint64_t get(unsigned count) {
        assert(count <= 57);
        while (filled_ < count) {
            const std::uint8_t byte = pos_ < data_.size() ? data_[pos_++] : 0;
            acc_ = (acc_ << 8) | byte;
            filled_ += 8;
        }
        filled_ -= count;
        const std::uint64_t v = (acc_ >> filled_) & (count == 64 ? ~0ull : (1ull << count) - 1);
        return v;
    }

    [[nodiscard]] bool get_bit() { return get(1) != 0; }

private:
    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    std::uint64_t acc_ = 0;
    unsigned filled_ = 0;
};

/// Little-endian plain-old-data serialization helpers for stream headers.
class ByteWriter {
public:
    template <class T>
    void put(const T& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
        out_.insert(out_.end(), p, p + sizeof(T));
    }
    void put_bytes(std::span<const std::uint8_t> bytes) {
        out_.insert(out_.end(), bytes.begin(), bytes.end());
    }
    [[nodiscard]] std::vector<std::uint8_t> finish() { return std::move(out_); }
    [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }

private:
    std::vector<std::uint8_t> out_;
};

/// Bounds-checked in every build type: stream bytes may come off the wire,
/// so a short read throws std::invalid_argument.
class ByteReader {
public:
    explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

    template <class T>
    [[nodiscard]] T get() {
        static_assert(std::is_trivially_copyable_v<T>);
        need(sizeof(T));
        T v;
        std::memcpy(&v, data_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }
    [[nodiscard]] std::span<const std::uint8_t> get_bytes(std::size_t n) {
        need(n);
        auto s = data_.subspan(pos_, n);
        pos_ += n;
        return s;
    }
    [[nodiscard]] std::size_t position() const noexcept { return pos_; }
    [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

private:
    void need(std::size_t n) const {
        if (n > remaining()) throw std::invalid_argument("sz: truncated stream");
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
};

}  // namespace cuzc::sz

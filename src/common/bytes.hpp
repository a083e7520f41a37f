// Byte-buffer helpers: little-endian scalar (de)serialization used by the
// packet header codecs. Header fields are packed explicitly rather than via
// struct casts so the on-wire layout is compiler-independent.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace nadfs {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;
using MutByteSpan = std::span<std::uint8_t>;

/// Writes scalars/byte-ranges (little-endian) at a cursor that starts at
/// the end of `out`. `size` grows `out` once by that many bytes, so a
/// header of known wire size is written with no per-field resize; a write
/// past the end of `out` grows it.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out, std::size_t size = 0) : out_(out), pos_(out.size()) {
    out_.resize(pos_ + size);
  }

  template <typename T>
  void put(T v) {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
    std::memcpy(room(sizeof(T)), &v, sizeof(T));
  }

  void put_bytes(ByteSpan data) {
    if (!data.empty()) std::memcpy(room(data.size()), data.data(), data.size());
  }

  /// Position of the cursor in `out`.
  std::size_t size() const { return pos_; }

 private:
  std::uint8_t* room(std::size_t n) {
    if (out_.size() - pos_ < n) out_.resize(pos_ + n);
    std::uint8_t* at = out_.data() + pos_;
    pos_ += n;
    return at;
  }

  Bytes& out_;
  std::size_t pos_;
};

/// Reads scalars/byte-ranges from a fixed buffer; throws on overrun so that
/// malformed packets surface as errors instead of silent garbage.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  template <typename T>
  T get() {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
    T v;
    if (pos_ + sizeof(T) > data_.size()) {
      throw std::out_of_range("ByteReader: truncated buffer");
    }
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  ByteSpan get_bytes(std::size_t n) {
    if (pos_ + n > data_.size()) {
      throw std::out_of_range("ByteReader: truncated buffer");
    }
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }

 private:
  ByteSpan data_;
  std::size_t pos_ = 0;
};

}  // namespace nadfs

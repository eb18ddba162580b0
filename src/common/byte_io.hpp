// Little-endian byte serialization helpers.
//
// Used by the JELF object format, the message frame codec, and the jam
// instruction encoder. All reads are bounds-checked against the provided
// span; writers append to a std::vector<uint8_t>.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace twochains {

/// Appends fixed-width little-endian integers and length-prefixed strings to
/// a byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void U8(std::uint8_t v) { out_.push_back(v); }
  void U16(std::uint16_t v) { AppendLE(v); }
  void U32(std::uint32_t v) { AppendLE(v); }
  void U64(std::uint64_t v) { AppendLE(v); }
  void I64(std::int64_t v) { AppendLE(static_cast<std::uint64_t>(v)); }

  void Bytes(std::span<const std::uint8_t> bytes) {
    Append(bytes.data(), bytes.size());
  }

  /// u32 length prefix followed by raw bytes.
  void LengthPrefixedString(std::string_view s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Append(s.data(), s.size());
  }

  /// Pads with zero bytes up to the next multiple of @p align.
  void AlignTo(std::size_t align) {
    while (out_.size() % align != 0) out_.push_back(0);
  }

  std::size_t size() const noexcept { return out_.size(); }

  /// Overwrites a previously written u32 at @p offset (for back-patching
  /// section sizes / offsets).
  void PatchU32(std::size_t offset, std::uint32_t v) {
    std::memcpy(out_.data() + offset, &v, sizeof(v));
  }
  void PatchU64(std::size_t offset, std::uint64_t v) {
    std::memcpy(out_.data() + offset, &v, sizeof(v));
  }

 private:
  template <typename T>
  void AppendLE(T v) {
    Append(&v, sizeof(T));  // host is little-endian (x86/arm LE)
  }

  /// Grow, then copy in. An iterator-range vector::insert here draws
  /// false -Wstringop-overflow/-Warray-bounds warnings from GCC 12 at -O3.
  void Append(const void* src, std::size_t n) {
    if (n == 0) return;  // src may be null for an empty span or string
    const std::size_t at = out_.size();
    out_.resize(at + n);
    std::memcpy(out_.data() + at, src, n);
  }

  std::vector<std::uint8_t>& out_;
};

/// Sequentially consumes little-endian integers from a byte span with bounds
/// checking; all readers return kDataLoss on truncation.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  StatusOr<std::uint8_t> U8() { return Read<std::uint8_t>(); }
  StatusOr<std::uint16_t> U16() { return Read<std::uint16_t>(); }
  StatusOr<std::uint32_t> U32() { return Read<std::uint32_t>(); }
  StatusOr<std::uint64_t> U64() { return Read<std::uint64_t>(); }

  StatusOr<std::string> LengthPrefixedString() {
    TC_ASSIGN_OR_RETURN(std::uint32_t len, U32());
    if (Remaining() < len) return DataLoss("truncated string");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  /// Borrows @p n bytes from the current position (no copy).
  StatusOr<std::span<const std::uint8_t>> Bytes(std::size_t n) {
    if (Remaining() < n) return DataLoss("truncated bytes");
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  Status SkipTo(std::size_t offset) {
    if (offset > data_.size()) return DataLoss("seek past end");
    pos_ = offset;
    return Status::Ok();
  }

  std::size_t position() const noexcept { return pos_; }
  std::size_t Remaining() const noexcept { return data_.size() - pos_; }

 private:
  template <typename T>
  StatusOr<T> Read() {
    if (Remaining() < sizeof(T)) return DataLoss("truncated integer");
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace twochains

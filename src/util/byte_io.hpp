// Big-endian (network byte order) serialization cursors.
//
// All wire formats in this project (Ethernet, IPv4, UDP, TCP-lite, BGP, BFD,
// MTP) serialize through BufWriter and parse through BufReader so that every
// "bytes on the wire" metric counts real serialized bytes.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mrmtp::util {

/// Error thrown when a BufReader runs past the end of its buffer or a
/// decoded value is structurally invalid.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends integers and byte ranges to a growable buffer in network order.
class BufWriter {
 public:
  BufWriter() = default;
  explicit BufWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
  }

  void u32(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
    buf_.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
    buf_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
    buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
  }

  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v & 0xffffffffu));
  }

  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  /// Appends `count` zero bytes (padding / reserved fields).
  void zeros(std::size_t count) { buf_.insert(buf_.end(), count, 0); }

  /// Overwrites a previously written big-endian u16 at `offset`; used for
  /// length fields whose value is only known after the body is serialized.
  void patch_u16(std::size_t offset, std::uint16_t v) {
    if (offset + 2 > buf_.size()) throw CodecError("patch_u16 out of range");
    buf_[offset] = static_cast<std::uint8_t>(v >> 8);
    buf_[offset + 1] = static_cast<std::uint8_t>(v & 0xff);
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  /// Empties the buffer and keeps its capacity, for a writer reused across
  /// encodings.
  void clear() { buf_.clear(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reads integers and byte ranges from a fixed buffer in network order.
/// Throws CodecError on any overrun so malformed frames cannot be half-read.
class BufReader {
 public:
  explicit BufReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint16_t u16() {
    need(2);
    auto v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                      (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                      (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                      static_cast<std::uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t hi = u32();
    std::uint64_t lo = u32();
    return (hi << 32) | lo;
  }

  std::span<const std::uint8_t> bytes(std::size_t len) {
    need(len);
    auto out = data_.subspan(pos_, len);
    pos_ += len;
    return out;
  }

  /// Consumes and returns everything left in the buffer.
  std::span<const std::uint8_t> rest() { return bytes(remaining()); }

  void skip(std::size_t len) { need(len), pos_ += len; }

 private:
  void need(std::size_t len) const {
    if (pos_ + len > data_.size()) {
      throw CodecError("BufReader overrun: need " + std::to_string(len) +
                       " bytes, have " + std::to_string(data_.size() - pos_));
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Renders bytes as a wireshark-style hex dump ("0000  ff ff ...  |....|").
std::string hex_dump(std::span<const std::uint8_t> data);

/// Renders bytes as a compact hex string ("ff02ab...").
std::string hex_string(std::span<const std::uint8_t> data);

}  // namespace mrmtp::util

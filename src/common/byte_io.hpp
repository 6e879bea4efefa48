#pragma once

/// \file byte_io.hpp
/// Little-endian serialization of trivially copyable values into byte
/// vectors, a bounds-checked reader, and an in-place writer over a
/// pre-sized span. Compressed stream headers, checkpoint sections and
/// collective metadata use these primitives so that stream layouts are
/// explicit and portable.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace dlcomp {

/// Appends the raw little-endian bytes of `value` to `out`.
template <typename T>
  requires std::is_trivially_copyable_v<T>
void append_pod(std::vector<std::byte>& out, const T& value) {
  const auto* p = reinterpret_cast<const std::byte*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

/// Appends `count` trivially copyable elements.
template <typename T>
  requires std::is_trivially_copyable_v<T>
void append_pod_span(std::vector<std::byte>& out, std::span<const T> values) {
  const auto* p = reinterpret_cast<const std::byte*>(values.data());
  out.insert(out.end(), p, p + values.size_bytes());
}

/// Bounds-checked sequential reader over a byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) noexcept : data_(data) {}

  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  /// Reads one trivially copyable value; throws FormatError on underflow.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    if (remaining() < sizeof(T)) {
      throw FormatError("byte stream truncated: need " +
                        std::to_string(sizeof(T)) + " bytes, have " +
                        std::to_string(remaining()));
    }
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// Reads `count` elements into `out`.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void read_span(std::span<T> out) {
    const std::size_t bytes = out.size_bytes();
    if (remaining() < bytes) {
      throw FormatError("byte stream truncated reading array");
    }
    std::memcpy(out.data(), data_.data() + pos_, bytes);
    pos_ += bytes;
  }

  /// Returns a view of the next `count` bytes and advances past them.
  std::span<const std::byte> take(std::size_t count) {
    if (remaining() < count) {
      throw FormatError("byte stream truncated taking slice");
    }
    auto view = data_.subspan(pos_, count);
    pos_ += count;
    return view;
  }

  /// Skips `count` bytes.
  void skip(std::size_t count) { (void)take(count); }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Sequential writer into a pre-sized byte span, the counterpart of
/// ByteReader. A default-constructed writer measures: it counts the bytes
/// a write pass would produce and stores none, so one emission routine
/// first sizes a buffer and then fills it in place.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Writes into `out` from byte `pos` on; overrunning `out` is a bug
  /// (the measuring pass sized it), so it throws Error.
  explicit ByteWriter(std::span<std::byte> out, std::size_t pos = 0) noexcept
      : out_(out), pos_(pos) {}

  [[nodiscard]] bool measuring() const noexcept { return out_.data() == nullptr; }

  /// Bytes counted or written so far, including the start offset.
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    put_bytes(std::as_bytes(std::span<const T>(&value, 1)));
  }

  void put_bytes(std::span<const std::byte> bytes) {
    fill(bytes.size(), [&](std::span<std::byte> dst) {
      std::memcpy(dst.data(), bytes.data(), bytes.size());
    });
  }

  /// Hands the next `count` bytes to write(span) and advances past them;
  /// a measuring writer, or a count of 0, only advances.
  template <typename Write>
  void fill(std::size_t count, const Write& write) {
    if (!measuring() && count != 0) {
      DLCOMP_CHECK(pos_ <= out_.size() && count <= out_.size() - pos_);
      write(out_.subspan(pos_, count));
    }
    pos_ += count;
  }

 protected:
  std::span<std::byte> out_;
  std::size_t pos_ = 0;
};

}  // namespace dlcomp

#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace mpct::wire {

/// Typed decode failure.  The decoder never throws and never reads out
/// of bounds: any malformed input — truncated, oversized, wrong magic,
/// hostile length prefix — lands on exactly one of these codes, and the
/// fuzz tests (tests/test_fuzz.cpp) hold that contract under
/// ASan/UBSan.
enum class WireErrorCode : std::uint8_t {
  /// Input ended before the announced structure did.
  Truncated = 1,
  /// Frame does not start with the protocol magic; the stream is not
  /// (or no longer) frame-aligned.
  BadMagic = 2,
  /// Frame carries a protocol version this build does not speak.
  UnsupportedVersion = 3,
  /// Frame kind byte is neither Request nor Response.
  BadFrameKind = 4,
  /// Announced payload length exceeds kMaxPayloadBytes.
  Oversized = 5,
  /// Payload bytes do not decode to the announced structure (bad enum
  /// value, non-0/1 bool, implausible element count, ...).
  Malformed = 6,
  /// Payload decoded cleanly but bytes were left over.
  TrailingData = 7,
};

std::string_view to_string(WireErrorCode code);

struct WireError {
  WireErrorCode code = WireErrorCode::Malformed;
  std::string message;

  /// "malformed: bad Count kind 7".
  std::string to_string() const;

  friend bool operator==(const WireError&, const WireError&) = default;
};

/// Little-endian byte writer that runs twice over the same calls.  A
/// sizing encoder (default-constructed) writes nothing and only counts;
/// a writing encoder is built with that count and stores every field
/// with memcpy into one buffer allocated up front, so a frame is built
/// once at its final size (capacity() == size()) without regrowth.
/// Multi-byte integers are LSB-first regardless of host endianness;
/// doubles travel as their IEEE-754 bit pattern, so encode/decode
/// round-trips are bit-identical across conforming hosts.
class Encoder {
 public:
  /// Sizing pass: every write only advances size().
  Encoder() = default;
  /// Writing pass into exactly @p size bytes — what a sizing pass over
  /// the same writes counted.
  explicit Encoder(std::size_t size) : out_(size) {}

  void u8(std::uint8_t value) { put(&value, 1); }
  void u16(std::uint16_t value) { put_le(value); }
  void u32(std::uint32_t value) { put_le(value); }
  void u64(std::uint64_t value) { put_le(value); }
  void i32(std::int32_t value) { u32(static_cast<std::uint32_t>(value)); }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void boolean(bool value) { u8(value ? 1 : 0); }
  /// u32 byte length followed by the raw bytes.
  void str(std::string_view text) {
    u32(static_cast<std::uint32_t>(text.size()));
    put(text.data(), text.size());
  }
  /// u32 element count (the elements follow via the caller).
  void length(std::size_t count) { u32(static_cast<std::uint32_t>(count)); }

  /// Bytes counted (sizing pass) or written (writing pass) so far.
  std::size_t size() const { return pos_; }

  /// The finished buffer of a writing pass, which must have written
  /// exactly the size it was built with.
  std::vector<std::uint8_t> take() {
    assert(pos_ == out_.size() && "sizing and writing passes disagree");
    return std::move(out_);
  }

 private:
  template <typename T>
  void put_le(T value) {
    if constexpr (std::endian::native == std::endian::little) {
      put(&value, sizeof(value));
    } else {
      std::uint8_t bytes[sizeof(T)];
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
      }
      put(bytes, sizeof(T));
    }
  }
  void put(const void* bytes, std::size_t count) {
    if (!out_.empty() && count != 0) {
      assert(pos_ + count <= out_.size() && "write past the sized frame");
      std::memcpy(out_.data() + pos_, bytes, count);
    }
    pos_ += count;
  }

  std::vector<std::uint8_t> out_;  ///< empty on a sizing pass
  std::size_t pos_ = 0;
};

/// Bounds-checked little-endian reader over a caller-owned buffer.
/// Every read validates the remaining size first; on failure the
/// decoder latches the first error, returns a zero value, and all
/// subsequent reads become no-ops — callers check ok() once at the end
/// instead of after every field.
class Decoder {
 public:
  Decoder(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool ok() const { return !failed_; }
  const WireError& error() const { return error_; }
  std::size_t remaining() const { return size_ - pos_; }
  std::size_t position() const { return pos_; }

  /// Latch @p code/@p message as the decode outcome (first failure
  /// wins) and disable further reads.
  void fail(WireErrorCode code, std::string message);

  std::uint8_t u8() { return get_le<std::uint8_t>(); }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double value = 0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }
  /// A bool must be exactly 0 or 1 — anything else is Malformed, so a
  /// bit-flipped frame cannot smuggle an out-of-domain bool through.
  bool boolean();
  std::string str();

  /// Element-count prefix with a plausibility bound: the announced
  /// count times @p min_element_bytes must fit in the remaining input,
  /// so a hostile length can never drive a large allocation or an
  /// overread.
  std::size_t length(std::size_t min_element_bytes);

  /// Fail with TrailingData when bytes remain after a full decode.
  void expect_end();

 private:
  /// One little-endian integer, loaded with a single memcpy (and
  /// byte-swapped on big-endian hosts) once the bounds check passes.
  template <typename T>
  T get_le() {
    if (failed_) return 0;
    if (remaining() < sizeof(T)) {
      truncated(sizeof(T));
      return 0;
    }
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    if constexpr (std::endian::native == std::endian::big) {
      T swapped = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        swapped = static_cast<T>((swapped << 8) | ((value >> (8 * i)) & 0xFF));
      }
      value = swapped;
    }
    pos_ += sizeof(T);
    return value;
  }
  /// Fail Truncated for a read of @p bytes.
  void truncated(std::size_t bytes);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  WireError error_;
};

}  // namespace mpct::wire

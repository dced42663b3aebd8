#include "wire/codec.hpp"

namespace mpct::wire {

std::string_view to_string(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::Truncated:          return "truncated";
    case WireErrorCode::BadMagic:           return "bad-magic";
    case WireErrorCode::UnsupportedVersion: return "unsupported-version";
    case WireErrorCode::BadFrameKind:       return "bad-frame-kind";
    case WireErrorCode::Oversized:          return "oversized";
    case WireErrorCode::Malformed:          return "malformed";
    case WireErrorCode::TrailingData:       return "trailing-data";
  }
  return "unknown";
}

std::string WireError::to_string() const {
  std::string out(wire::to_string(code));
  if (!message.empty()) {
    out += ": ";
    out += message;
  }
  return out;
}

void Decoder::fail(WireErrorCode code, std::string message) {
  if (failed_) return;  // first failure wins
  failed_ = true;
  error_.code = code;
  error_.message = std::move(message);
  pos_ = size_;  // stop consuming
}

void Decoder::truncated(std::size_t bytes) {
  fail(WireErrorCode::Truncated, "need " + std::to_string(bytes) +
                                     " bytes, have " +
                                     std::to_string(remaining()));
}

bool Decoder::boolean() {
  const std::uint8_t value = u8();
  if (!failed_ && value > 1) {
    fail(WireErrorCode::Malformed,
         "bool byte must be 0 or 1, got " + std::to_string(value));
  }
  return value == 1;
}

std::string Decoder::str() {
  const std::uint32_t announced = u32();
  if (failed_) return {};
  if (announced > remaining()) {
    fail(WireErrorCode::Truncated,
         "string of " + std::to_string(announced) + " bytes, have " +
             std::to_string(remaining()));
    return {};
  }
  std::string text(reinterpret_cast<const char*>(data_ + pos_), announced);
  pos_ += announced;
  return text;
}

std::size_t Decoder::length(std::size_t min_element_bytes) {
  const std::uint32_t announced = u32();
  if (failed_) return 0;
  if (min_element_bytes == 0) min_element_bytes = 1;
  if (announced > remaining() / min_element_bytes) {
    fail(WireErrorCode::Malformed,
         "element count " + std::to_string(announced) +
             " cannot fit in the remaining " + std::to_string(remaining()) +
             " bytes");
    return 0;
  }
  return announced;
}

void Decoder::expect_end() {
  if (failed_) return;
  if (remaining() != 0) {
    fail(WireErrorCode::TrailingData,
         std::to_string(remaining()) + " trailing bytes after payload");
  }
}

}  // namespace mpct::wire

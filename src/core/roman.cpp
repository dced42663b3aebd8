#include "core/roman.hpp"

#include <stdexcept>

namespace mpct {

std::string to_roman(int value) {
  if (value < 1 || value > 3999) {
    throw std::invalid_argument("to_roman: value out of range [1,3999]: " +
                                std::to_string(value));
  }
  char out[kMaxRomanChars];
  return std::string(out, write_roman(value, out));
}

std::optional<int> from_roman(std::string_view text) {
  if (text.empty()) return std::nullopt;
  int value = 0;
  std::string_view rest = text;
  for (const detail::RomanDigit& digit : detail::kRomanDigits) {
    // Canonical form allows at most three repetitions of the pure powers
    // of ten and a single occurrence of everything else.
    const bool repeatable = digit.glyph.size() == 1 &&
                            (digit.value == 1000 || digit.value == 100 ||
                             digit.value == 10 || digit.value == 1);
    int repeats = 0;
    while (rest.substr(0, digit.glyph.size()) == digit.glyph) {
      rest.remove_prefix(digit.glyph.size());
      value += digit.value;
      if (++repeats > (repeatable ? 3 : 1)) return std::nullopt;
    }
  }
  if (!rest.empty()) return std::nullopt;
  // Reject non-canonical encodings (e.g. "IVI") by round-tripping.
  if (to_roman(value) != text) return std::nullopt;
  return value;
}

}  // namespace mpct

#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace mpct {

/// Roman-numeral conversion used by the hierarchical naming scheme.
///
/// Sub-Processing Types in the extended Skillicorn taxonomy are numbered
/// with roman numerals (IMP-I .. IMP-XVI, Table I of the paper).  The
/// implementation supports the full subtractive notation for values in
/// [1, 3999] so that hypothetical larger taxonomies (more switch columns)
/// keep working.

namespace detail {

struct RomanDigit {
  int value;
  std::string_view glyph;
};

inline constexpr std::array<RomanDigit, 13> kRomanDigits{{
    {1000, "M"},
    {900, "CM"},
    {500, "D"},
    {400, "CD"},
    {100, "C"},
    {90, "XC"},
    {50, "L"},
    {40, "XL"},
    {10, "X"},
    {9, "IX"},
    {5, "V"},
    {4, "IV"},
    {1, "I"},
}};

}  // namespace detail

/// Longest numeral in range: "MMMDCCCLXXXVIII".
inline constexpr std::size_t kMaxRomanChars = 15;

/// Write @p value as an uppercase roman numeral to @p out (room for
/// kMaxRomanChars) and return its length.  Usable in constant
/// expressions.
/// @pre 1 <= value <= 3999.
constexpr std::size_t write_roman(int value, char* out) {
  std::size_t length = 0;
  for (const detail::RomanDigit& digit : detail::kRomanDigits) {
    for (; value >= digit.value; value -= digit.value) {
      for (char c : digit.glyph) out[length++] = c;
    }
  }
  return length;
}

/// Render @p value as an uppercase roman numeral.
/// @pre 1 <= value <= 3999 (throws std::invalid_argument otherwise).
std::string to_roman(int value);

/// Parse an uppercase roman numeral. Returns std::nullopt on malformed
/// input (empty string, invalid characters, or non-canonical forms such
/// as "IIII").
std::optional<int> from_roman(std::string_view text);

}  // namespace mpct

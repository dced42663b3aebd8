#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "core/multiplicity.hpp"

namespace mpct::arch {

namespace detail {

/// Locale-free ASCII helpers, usable in constant expressions (the
/// <cctype> ones are neither).
constexpr char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}
constexpr bool ascii_digit(char c) { return c >= '0' && c <= '9'; }
/// Case-insensitive (ASCII) equality.
constexpr bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

}  // namespace detail

/// A concrete component count as it appears in an architecture survey row
/// (Table III): a fixed number ("64"), a symbolic design-time constant
/// ("n", "m" — template architectures whose size is chosen at
/// instantiation), a scaled symbolic product ("24n" for GARP's rows of 24
/// logic elements), or "v" — a variable count that changes on
/// reconfiguration (FPGA).
class Count {
 public:
  enum class Kind : std::uint8_t { Fixed, Symbolic, ScaledSymbolic, Variable };

  /// Default: the fixed count 0.
  Count() = default;

  static constexpr Count fixed(std::int64_t value) {
    return Count(Kind::Fixed, value, 'n');
  }
  static constexpr Count symbolic(char symbol = 'n') {
    return Count(Kind::Symbolic, 0, symbol);
  }
  static constexpr Count scaled_symbolic(std::int64_t factor,
                                         char symbol = 'n') {
    return Count(Kind::ScaledSymbolic, factor, symbol);
  }
  static constexpr Count variable() { return Count(Kind::Variable, 0, 'n'); }

  constexpr Kind kind() const { return kind_; }
  /// Fixed value (only meaningful for Kind::Fixed).
  constexpr std::int64_t value() const { return value_; }
  /// Symbol letter (Kind::Symbolic / ScaledSymbolic), e.g. 'n'.
  constexpr char symbol() const { return symbol_; }
  /// Scale factor (Kind::ScaledSymbolic), e.g. 24 in "24n".
  constexpr std::int64_t factor() const { return value_; }

  /// Reduce to the abstract taxonomy multiplicity: 0 -> Zero, 1 -> One,
  /// any larger fixed value or any symbolic form -> Many, v -> Variable.
  Multiplicity multiplicity() const;

  /// Evaluate to a concrete number given bindings for the symbolic
  /// constants (e.g. {{'n', 8}}).  Fixed counts ignore the bindings;
  /// Variable counts and unbound symbols yield std::nullopt.
  std::optional<std::int64_t> evaluate(
      const std::map<char, std::int64_t>& bindings = {}) const;

  /// Table notation: "64", "n", "24n", "v".
  std::string to_string() const;

  /// Parse table notation (case-insensitive symbols). Accepts "0", "1",
  /// "64", "n", "m", "v", "24n".  Rejects empty strings, negative
  /// numbers and malformed products.  Usable in constant expressions,
  /// so built-in tables are parsed by the compiler.
  static constexpr std::optional<Count> parse(std::string_view text) {
    if (text.empty()) return std::nullopt;
    const auto is_symbol = [](char lower) {
      return lower == 'n' || lower == 'm' || lower == 'v';
    };

    // Pure symbol.
    if (text.size() == 1 && is_symbol(detail::ascii_lower(text[0]))) {
      const char lower = detail::ascii_lower(text[0]);
      return lower == 'v' ? variable() : symbolic(lower);
    }

    // Leading digits, optionally followed by one symbol letter ("24n").
    std::size_t i = 0;
    while (i < text.size() && detail::ascii_digit(text[i])) ++i;
    if (i == 0) return std::nullopt;  // no digits and not a pure symbol
    std::int64_t number = 0;
    for (std::size_t j = 0; j < i; ++j) {
      number = number * 10 + (text[j] - '0');
      if (number > 1'000'000'000) return std::nullopt;  // implausible count
    }
    if (i == text.size()) return fixed(number);
    const char lower = detail::ascii_lower(text[i]);
    if (i + 1 == text.size() && is_symbol(lower)) {
      if (lower == 'v') return std::nullopt;  // "24v" is not a thing
      if (number == 0) return std::nullopt;
      return scaled_symbolic(number, lower);
    }
    return std::nullopt;
  }

  friend bool operator==(const Count&, const Count&) = default;

 private:
  constexpr Count(Kind kind, std::int64_t value, char symbol)
      : kind_(kind), value_(value), symbol_(symbol) {}

  Kind kind_ = Kind::Fixed;
  std::int64_t value_ = 0;  ///< fixed value, or scale factor when scaled
  char symbol_ = 'n';
};

}  // namespace mpct::arch

#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "arch/count.hpp"
#include "core/connectivity.hpp"

namespace mpct::arch {

/// A concrete connectivity cell of a survey row: the switch kind plus the
/// endpoint counts, so that "64x64", "1-6", "5x10", "nx14" and "none"
/// round-trip exactly as printed in Table III.
struct ConnectivityExpr {
  SwitchKind kind = SwitchKind::None;
  Count left;   ///< e.g. 5 in "5x10"
  Count right;  ///< e.g. 10 in "5x10"

  static constexpr ConnectivityExpr none() { return {}; }
  static constexpr ConnectivityExpr direct(Count left, Count right) {
    return {SwitchKind::Direct, left, right};
  }
  static constexpr ConnectivityExpr crossbar(Count left, Count right) {
    return {SwitchKind::Crossbar, left, right};
  }

  /// Table notation: "none", "1-6", "64x64".
  std::string to_string() const;

  /// Parse table notation.  The separator decides the kind: 'x' is a
  /// crossbar, '-' a direct link.  Both operands must parse as counts;
  /// for cells like "24nx24n" the parser resolves the ambiguity between
  /// separator and symbol letters by trying every candidate split.
  /// Case-insensitive, and usable in constant expressions.
  static constexpr std::optional<ConnectivityExpr> parse(
      std::string_view text) {
    if (detail::iequals(text, "none")) return none();

    // Try every occurrence of a separator character; a split is valid
    // when both sides parse as counts.  This disambiguates "24nx24n"
    // (split at the 'x', not inside a count) and rejects garbage like
    // "x64" or "n--".
    for (std::size_t pos = 1; pos + 1 < text.size(); ++pos) {
      const char c = detail::ascii_lower(text[pos]);
      if (c != 'x' && c != '-') continue;
      const std::optional<Count> lhs = Count::parse(text.substr(0, pos));
      const std::optional<Count> rhs = Count::parse(text.substr(pos + 1));
      if (lhs && rhs) {
        return ConnectivityExpr{
            c == 'x' ? SwitchKind::Crossbar : SwitchKind::Direct, *lhs, *rhs};
      }
    }
    return std::nullopt;
  }

  friend bool operator==(const ConnectivityExpr&,
                         const ConnectivityExpr&) = default;
};

}  // namespace mpct::arch

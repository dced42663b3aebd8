#include "arch/count.hpp"

namespace mpct::arch {

Multiplicity Count::multiplicity() const {
  switch (kind_) {
    case Kind::Fixed:
      if (value_ == 0) return Multiplicity::Zero;
      if (value_ == 1) return Multiplicity::One;
      return Multiplicity::Many;
    case Kind::Symbolic:
    case Kind::ScaledSymbolic:
      // Symbolic constants denote template sizes chosen at design time;
      // the paper keeps them as 'n', i.e. many.
      return Multiplicity::Many;
    case Kind::Variable:
      return Multiplicity::Variable;
  }
  return Multiplicity::Zero;
}

std::optional<std::int64_t> Count::evaluate(
    const std::map<char, std::int64_t>& bindings) const {
  switch (kind_) {
    case Kind::Fixed:
      return value_;
    case Kind::Symbolic: {
      const auto it = bindings.find(symbol_);
      if (it == bindings.end()) return std::nullopt;
      return it->second;
    }
    case Kind::ScaledSymbolic: {
      const auto it = bindings.find(symbol_);
      if (it == bindings.end()) return std::nullopt;
      return value_ * it->second;
    }
    case Kind::Variable:
      return std::nullopt;
  }
  return std::nullopt;
}

std::string Count::to_string() const {
  switch (kind_) {
    case Kind::Fixed:
      return std::to_string(value_);
    case Kind::Symbolic:
      return std::string(1, symbol_);
    case Kind::ScaledSymbolic:
      return std::to_string(value_) + std::string(1, symbol_);
    case Kind::Variable:
      return "v";
  }
  return "?";
}

}  // namespace mpct::arch

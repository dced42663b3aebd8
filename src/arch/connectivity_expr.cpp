#include "arch/connectivity_expr.hpp"

namespace mpct::arch {

std::string ConnectivityExpr::to_string() const {
  if (kind == SwitchKind::None) return "none";
  const char sep = kind == SwitchKind::Crossbar ? 'x' : '-';
  return left.to_string() + sep + right.to_string();
}

}  // namespace mpct::arch

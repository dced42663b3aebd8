#include "core/flexibility.hpp"

#include <sstream>
#include <stdexcept>

#include "core/classifier.hpp"

namespace mpct {

std::string FlexibilityBreakdown::to_string() const {
  std::ostringstream os;
  bool first = true;
  const auto term = [&](int value, const char* label) {
    if (value == 0) return;
    if (!first) os << " + ";
    first = false;
    os << value << '(' << label << ')';
  };
  term(many_ips, "nIP");
  term(many_dps, "nDP");
  term(crossbar_switches, "x");
  term(variability_bonus, "v");
  if (first) os << '0';
  os << " = " << total();
  return os.str();
}

int category_offset(const TaxonomicName& name) {
  const std::optional<MachineClass> mc = canonical_class(name);
  if (!mc) {
    throw std::invalid_argument("category_offset: non-canonical name " +
                                to_string(name));
  }
  const FlexibilityBreakdown b = flexibility(*mc);
  return b.many_ips + b.many_dps + b.variability_bonus;
}

int flexibility_of(const TaxonomicName& name) {
  const std::optional<MachineClass> mc = canonical_class(name);
  if (!mc) {
    throw std::invalid_argument("flexibility_of: non-canonical name " +
                                to_string(name));
  }
  return flexibility_score(*mc);
}

bool flexibility_comparable(MachineType a, MachineType b) {
  if (a == b) return true;
  return a == MachineType::UniversalFlow || b == MachineType::UniversalFlow;
}

}  // namespace mpct

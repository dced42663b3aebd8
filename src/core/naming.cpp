#include "core/naming.hpp"

#include <algorithm>
#include <cctype>

#include "core/roman.hpp"

namespace mpct {

std::string_view to_string(MachineType mt) {
  switch (mt) {
    case MachineType::DataFlow:
      return "Data Flow";
    case MachineType::InstructionFlow:
      return "Instruction Flow";
    case MachineType::UniversalFlow:
      return "Universal Flow";
  }
  return "?";
}

std::string_view to_string(ProcessingType pt) {
  switch (pt) {
    case ProcessingType::UniProcessor:
      return "Uni Processor";
    case ProcessingType::ArrayProcessor:
      return "Array Processor";
    case ProcessingType::MultiProcessor:
      return "Multi Processor";
    case ProcessingType::SpatialProcessor:
      return "Spatial Processor";
  }
  return "?";
}

std::string to_string(const TaxonomicName& name) {
  std::string out;
  out += code(name.machine_type);
  out += code(name.processing_type);
  if (name.subtype > 0 &&
      subtype_count(name.machine_type, name.processing_type) > 1) {
    out += '-';
    out += to_roman(name.subtype);
  }
  return out;
}

std::optional<TaxonomicName> parse_taxonomic_name(std::string_view text) {
  std::string upper(text);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });

  std::string_view rest = upper;
  if (rest.size() < 3) return std::nullopt;

  MachineType mt;
  switch (rest[0]) {
    case 'D':
      mt = MachineType::DataFlow;
      break;
    case 'I':
      mt = MachineType::InstructionFlow;
      break;
    case 'U':
      mt = MachineType::UniversalFlow;
      break;
    default:
      return std::nullopt;
  }

  ProcessingType pt;
  const std::string_view pt_code = rest.substr(1, 2);
  if (pt_code == "UP") {
    pt = ProcessingType::UniProcessor;
  } else if (pt_code == "AP") {
    pt = ProcessingType::ArrayProcessor;
  } else if (pt_code == "MP") {
    pt = ProcessingType::MultiProcessor;
  } else if (pt_code == "SP") {
    pt = ProcessingType::SpatialProcessor;
  } else {
    return std::nullopt;
  }
  if (!combination_exists(mt, pt)) return std::nullopt;

  rest.remove_prefix(3);
  const int max_subtype = subtype_count(mt, pt);
  if (rest.empty()) {
    // Unnumbered form is only valid for single-subtype classes.
    if (max_subtype != 1) return std::nullopt;
    return TaxonomicName{mt, pt, 0};
  }
  if (rest[0] != '-' || max_subtype <= 1) return std::nullopt;
  rest.remove_prefix(1);
  const std::optional<int> subtype = from_roman(rest);
  if (!subtype || *subtype < 1 || *subtype > max_subtype) return std::nullopt;
  return TaxonomicName{mt, pt, *subtype};
}

}  // namespace mpct

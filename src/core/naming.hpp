#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace mpct {

/// Machine Type — the primary branch of the naming hierarchy (Fig. 2).
///
/// Decided by the presence/absence of an instruction processor and by the
/// granularity of the building blocks (Section II-C.1):
///  * InstructionFlow: an IP fetches instructions that drive the DPs.
///  * DataFlow: no IP; instructions travel with the data and fire on
///    operand arrival.
///  * UniversalFlow: blocks finer than IP/DP that can implement either.
enum class MachineType : std::uint8_t {
  DataFlow = 0,
  InstructionFlow = 1,
  UniversalFlow = 2,
};

/// Processing Type — the secondary branch, the degree of parallelism
/// (Section II-C.2).
enum class ProcessingType : std::uint8_t {
  UniProcessor = 0,    ///< one IP (or none) driving one DP
  ArrayProcessor = 1,  ///< one IP broadcasting to n DPs
  MultiProcessor = 2,  ///< n IPs, n DPs, IPs mutually unconnected
  SpatialProcessor =
      3,  ///< n or v IPs with IP-IP connectivity: processors compose
};

std::string_view to_string(MachineType mt);
std::string_view to_string(ProcessingType pt);

/// One-letter code used as the first letter of a class name
/// ('D', 'I', 'U').
constexpr char code(MachineType mt) {
  switch (mt) {
    case MachineType::DataFlow:
      return 'D';
    case MachineType::InstructionFlow:
      return 'I';
    case MachineType::UniversalFlow:
      return 'U';
  }
  return '?';
}

/// Two-letter code used in class names ("UP", "AP", "MP", "SP").
constexpr std::string_view code(ProcessingType pt) {
  switch (pt) {
    case ProcessingType::UniProcessor:
      return "UP";
    case ProcessingType::ArrayProcessor:
      return "AP";
    case ProcessingType::MultiProcessor:
      return "MP";
    case ProcessingType::SpatialProcessor:
      return "SP";
  }
  return "??";
}

/// A hierarchical taxonomic name: Machine Type + Processing Type +
/// Sub-Processing Type, e.g. IMP-XVI = {InstructionFlow, MultiProcessor,
/// 16}.  Subtype 0 means the class has no sub-numbering (DUP, IUP, USP).
///
/// The name alone carries the structure (Section III-A): the first letter
/// gives the flow paradigm, the next two the parallelism, and the numeral
/// encodes exactly which connectivity columns are crossbars.
struct TaxonomicName {
  MachineType machine_type = MachineType::InstructionFlow;
  ProcessingType processing_type = ProcessingType::UniProcessor;
  int subtype = 0;  ///< 0 = unnumbered; otherwise 1-based

  friend bool operator==(const TaxonomicName&, const TaxonomicName&) = default;
  friend auto operator<=>(const TaxonomicName&,
                          const TaxonomicName&) = default;
};

/// Render the canonical class name: "DUP", "DMP-III", "IAP-II", "IMP-XVI",
/// "ISP-IV", "USP".
std::string to_string(const TaxonomicName& name);

/// Parse a canonical class name; accepts any case for the letters and
/// requires the subtype numeral to be a canonical roman numeral.  Returns
/// std::nullopt for unknown prefixes, invalid numerals, or a numeral on a
/// class that has none (e.g. "IUP-II").
std::optional<TaxonomicName> parse_taxonomic_name(std::string_view text);

/// Whether the (machine type, processing type) combination exists in the
/// taxonomy at all (e.g. there is no data-flow array processor and the
/// universal flow only has its spatial class).
constexpr bool combination_exists(MachineType mt, ProcessingType pt) {
  switch (mt) {
    case MachineType::DataFlow:
      // Without an IP there is nothing to broadcast from or to compose,
      // so data flow machines are only uni or multi processors.
      return pt == ProcessingType::UniProcessor ||
             pt == ProcessingType::MultiProcessor;
    case MachineType::InstructionFlow:
      return true;
    case MachineType::UniversalFlow:
      // Fine-grained fabrics are inherently spatial (Fig. 2 places USP as
      // the sole universal-flow class).
      return pt == ProcessingType::SpatialProcessor;
  }
  return false;
}

/// Number of sub-types a (machine type, processing type) pair has:
/// 1 for unnumbered classes, 4 for DMP/IAP, 16 for IMP/ISP.
constexpr int subtype_count(MachineType mt, ProcessingType pt) {
  if (!combination_exists(mt, pt)) return 0;
  if (mt == MachineType::UniversalFlow) return 1;
  switch (pt) {
    case ProcessingType::UniProcessor:
      return 1;
    case ProcessingType::ArrayProcessor:
      return 4;
    case ProcessingType::MultiProcessor:
      // Data-flow multiprocessors only vary the two DP-side switches
      // (DMP I-IV); instruction-flow ones vary four (IMP I-XVI).
      return mt == MachineType::DataFlow ? 4 : 16;
    case ProcessingType::SpatialProcessor:
      return 16;
  }
  return 0;
}

}  // namespace mpct

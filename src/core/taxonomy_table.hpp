#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>

#include "core/classifier.hpp"
#include "core/machine_class.hpp"
#include "core/naming.hpp"

namespace mpct {

/// One row of the extended taxonomy (Table I of the paper).
struct TaxonomyEntry {
  int serial = 0;  ///< "S.N" column, 1..47
  MachineClass machine;
  /// Taxonomic name; empty for the four not-implementable classes whose
  /// "Comments" cell reads "NI".
  std::optional<TaxonomicName> name;
  bool implementable = true;
  /// Section banner the row appears under, e.g.
  /// "Data Flow Machines -> Multi Processors".
  std::string_view section;

  /// "Comments" column text: the class name or "NI".
  std::string comment() const;
};

namespace detail {

/// Generates Table I (not transcribed): enumerates the
/// multiplicity/connectivity space under the structural rules of
/// Section II and orders rows exactly as Table I.
constexpr std::array<TaxonomyEntry, 47> build_extended_taxonomy() {
  constexpr std::string_view kDfSingle =
      "Data Flow Machines -> Single Processor";
  constexpr std::string_view kDfMulti =
      "Data Flow Machines -> Multi Processors";
  constexpr std::string_view kIfSingle = "Instruction Flow -> Single Processor";
  constexpr std::string_view kIfArray = "Instruction Flow -> Array Processor";
  constexpr std::string_view kIfMulti = "Instruction Flow -> Multi Processor";
  constexpr std::string_view kUfSpatial =
      "Universal Flow Machine -> Spatial Computing";

  std::array<TaxonomyEntry, 47> rows{};
  int serial = 0;
  const auto push_named = [&](MachineType mt, ProcessingType pt, int sub,
                              std::string_view section) {
    const TaxonomicName name{mt, pt, sub};
    rows[serial] = {serial + 1, *canonical_class_by_rules(name), name, true,
                    section};
    ++serial;
  };
  // 11-14, the not-implementable n-IP / 1-DP classes: row order follows
  // Table I, IP-IM upgrades before IP-IP does.
  const auto push_ni = [&](bool ip_ip_crossbar, bool ip_im_crossbar) {
    MachineClass mc;
    mc.ips = Multiplicity::Many;
    mc.dps = Multiplicity::One;
    mc.switches = {ip_ip_crossbar ? SwitchKind::Crossbar : SwitchKind::None,
                   SwitchKind::Direct,
                   ip_im_crossbar ? SwitchKind::Crossbar : SwitchKind::Direct,
                   SwitchKind::Direct, SwitchKind::None};
    rows[serial] = {serial + 1, mc, std::nullopt, false, kIfArray};
    ++serial;
  };

  using MT = MachineType;
  using PT = ProcessingType;
  push_named(MT::DataFlow, PT::UniProcessor, 0, kDfSingle);  // 1: DUP
  for (int sub = 1; sub <= 4; ++sub) {                       // 2-5: DMP
    push_named(MT::DataFlow, PT::MultiProcessor, sub, kDfMulti);
  }
  push_named(MT::InstructionFlow, PT::UniProcessor, 0, kIfSingle);  // 6: IUP
  for (int sub = 1; sub <= 4; ++sub) {  // 7-10: IAP
    push_named(MT::InstructionFlow, PT::ArrayProcessor, sub, kIfArray);
  }
  push_ni(false, false);
  push_ni(false, true);
  push_ni(true, false);
  push_ni(true, true);
  for (int sub = 1; sub <= 16; ++sub) {  // 15-30: IMP
    push_named(MT::InstructionFlow, PT::MultiProcessor, sub, kIfMulti);
  }
  for (int sub = 1; sub <= 16; ++sub) {  // 31-46: ISP
    push_named(MT::InstructionFlow, PT::SpatialProcessor, sub, kIfMulti);
  }
  push_named(MT::UniversalFlow, PT::SpatialProcessor, 0, kUfSpatial);  // 47
  return rows;
}

inline constexpr std::array<TaxonomyEntry, 47> kExtendedTaxonomy =
    build_extended_taxonomy();

}  // namespace detail

/// The full 47-row extended taxonomy table (Table I), constant data built
/// by the compiler; safe to read from any number of threads.
constexpr const std::array<TaxonomyEntry, 47>& extended_taxonomy() {
  return detail::kExtendedTaxonomy;
}

/// Look up the canonical row for a class name (nullptr if the name is not
/// canonical).
const TaxonomyEntry* find_entry(const TaxonomicName& name);

/// Look up a row by serial number 1..47 (nullptr out of range).
const TaxonomyEntry* find_entry(int serial);

/// Look up the row whose structure equals @p mc (nullptr if the structure
/// is not one of the 47 canonical rows).
const TaxonomyEntry* find_entry(const MachineClass& mc);

/// Number of implementable classes (47 minus the four NI rows).
int implementable_class_count();

}  // namespace mpct

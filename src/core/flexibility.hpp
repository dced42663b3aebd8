#pragma once

#include <string>

#include "core/machine_class.hpp"
#include "core/naming.hpp"

namespace mpct {

/// Itemised flexibility score of a machine class (Section III-B).
///
/// The paper's scoring system: one point if the machine has 'n' (or 'v')
/// instruction processors, one if it has 'n'/'v' data processors, one per
/// switch of type 'x' (crossbar), and one extra point for universal-flow
/// machines "because of 'variable number' of IPs and DPs".  The result
/// ranks classes from 0 (ASIC-like IUP/DUP) to 8 (FPGA/USP).
struct FlexibilityBreakdown {
  int many_ips = 0;          ///< 1 if IP multiplicity is n or v
  int many_dps = 0;          ///< 1 if DP multiplicity is n or v
  int crossbar_switches = 0; ///< number of 'x' connectivity columns
  int variability_bonus = 0; ///< 1 for universal-flow (LUT-grain) fabrics

  constexpr int total() const {
    return many_ips + many_dps + crossbar_switches + variability_bonus;
  }

  /// Readable derivation, e.g. "1(nIP) + 1(nDP) + 4(x) = 6".
  std::string to_string() const;

  friend bool operator==(const FlexibilityBreakdown&,
                         const FlexibilityBreakdown&) = default;
};

/// Score a machine structure.
constexpr FlexibilityBreakdown flexibility(const MachineClass& mc) {
  FlexibilityBreakdown b;
  b.many_ips = counts_as_many(mc.ips) ? 1 : 0;
  b.many_dps = counts_as_many(mc.dps) ? 1 : 0;
  for (SwitchKind k : mc.switches) {
    if (is_flexible_switch(k)) ++b.crossbar_switches;
  }
  b.variability_bonus = mc.granularity == Granularity::Lut ? 1 : 0;
  return b;
}

/// Total score directly.
constexpr int flexibility_score(const MachineClass& mc) {
  return flexibility(mc).total();
}

/// The "(+k)" category offset printed in Table II's section headers: the
/// non-switch part of the score shared by every member of the category
/// (Data Flow Uni +0, Data Flow Multi +1, Instruction Uni +0, Array +1,
/// Instruction Multi +2, Universal +3).
int category_offset(const TaxonomicName& name);

/// Flexibility of a canonical named class (Table II lookup, computed
/// rather than transcribed).  Throws std::invalid_argument for
/// non-canonical names.
int flexibility_of(const TaxonomicName& name);

/// Whether two classes' flexibility values are comparable under the
/// paper's semantics: data-flow and instruction-flow numbers cannot be
/// compared against each other, but both compare against universal flow
/// (Section III-B, last paragraph).
bool flexibility_comparable(MachineType a, MachineType b);

}  // namespace mpct

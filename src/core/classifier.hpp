#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/machine_class.hpp"
#include "core/naming.hpp"

namespace mpct {

/// Result of mapping a machine structure onto the extended taxonomy.
///
/// Classes 11-14 of Table I (many IPs driving a single DP) are structurally
/// enumerable but "practically not implementable (NI)" per Section
/// II-C.2b; for those `implementable` is false and `name` is empty.
/// Structures outside the taxonomy entirely (e.g. zero processors) yield
/// an empty name with an explanatory note.
struct Classification {
  std::optional<TaxonomicName> name;
  bool implementable = true;
  std::string note;  ///< empty on clean classifications

  bool ok() const { return name.has_value(); }

  friend bool operator==(const Classification&,
                         const Classification&) = default;
};

/// Classify a machine structure into its taxonomic name.
///
/// The rules follow Section II-C:
///  * LUT-granularity fabrics are Universal Flow Spatial Processors (USP).
///  * No IP -> Data Flow; one IP -> Uni/Array; many IPs -> Multi/Spatial.
///  * IP-IP connectivity of any kind turns a multiprocessor into a
///    spatial processor (classes 31-46).
///  * The sub-type numeral encodes which of the relevant connectivity
///    columns are crossbars: for DMP/IAP, bits (DP-DM, DP-DP); for
///    IMP/ISP, bits (IP-DP, IP-IM, DP-DM, DP-DP), most significant first,
///    numbered from I.
///
/// Thread safety: classify reads only constant data (the TaxonomyIndex
/// tables, built by the compiler).  Safe for concurrent callers.
Classification classify(const MachineClass& mc);

/// Sub-type numeral (1-based) from the crossbar pattern of an array or
/// data-flow multi processor: bits (DP-DM, DP-DP).
constexpr int array_subtype(SwitchKind dp_dm, SwitchKind dp_dp) {
  return 1 + 2 * (is_flexible_switch(dp_dm) ? 1 : 0) +
         (is_flexible_switch(dp_dp) ? 1 : 0);
}

/// Sub-type numeral (1-based) from the crossbar pattern of a multi or
/// spatial processor: bits (IP-DP, IP-IM, DP-DM, DP-DP).
constexpr int multi_subtype(SwitchKind ip_dp, SwitchKind ip_im,
                            SwitchKind dp_dm, SwitchKind dp_dp) {
  return 1 + 8 * (is_flexible_switch(ip_dp) ? 1 : 0) +
         4 * (is_flexible_switch(ip_im) ? 1 : 0) +
         2 * (is_flexible_switch(dp_dm) ? 1 : 0) +
         (is_flexible_switch(dp_dp) ? 1 : 0);
}

/// Reconstruct the canonical Table I structure for a taxonomic name
/// (inverse of classify on the 43 implementable canonical classes).
/// Returns std::nullopt if the name does not denote a canonical class.
std::optional<MachineClass> canonical_class(const TaxonomicName& name);

namespace detail {

/// Why the rules give a structure no name; indexes kNotes.
/// Unclassifiable is zero, so a value-initialised table entry reads as
/// "unclassifiable".
enum class Note : std::uint8_t {
  Unclassifiable = 0,
  VariableCounts,
  NoDataProcessor,
  DataFlowIpSide,
  NotImplementable,
};

/// Diagnostics classify() attaches to unclassifiable structures, in Note
/// order.  Static, so they can be handed out as string_views.
inline constexpr std::array<std::string_view, 5> kNotes{
    "unclassifiable structure",
    "variable IP/DP counts require LUT granularity (only universal "
    "flow fabrics can re-role their blocks)",
    "a machine with no data processor computes nothing",
    "data flow machine has IP-side connectivity but no IP",
    "n instruction processors driving a single data processor "
    "is not implementable (Table I classes 11-14, 'NI')",
};

constexpr std::string_view note_text(Note note) {
  return kNotes[static_cast<std::size_t>(note)];
}

/// What the Section II-C rules decide for one structure: its name, or
/// no name and the reason.
struct RuledClass {
  std::optional<TaxonomicName> name;
  Note note = Note::Unclassifiable;  ///< meaningful only without a name
};

/// The Section II-C decision rules, evaluated directly: the one rule
/// implementation.  The compiler runs it over the structural key space
/// to build TaxonomyIndex's table, which `classify()` answers from.
constexpr RuledClass apply_rules(const MachineClass& mc) {
  // Universal flow: decided by granularity, not by counts.  MATRIX-style
  // fabrics with reconfigurable instruction distribution but IP/DP-grain
  // blocks stay in the instruction-flow branch (Section IV discusses this
  // for MATRIX explicitly).
  if (mc.granularity == Granularity::Lut) {
    return {TaxonomicName{MachineType::UniversalFlow,
                          ProcessingType::SpatialProcessor, 0}};
  }
  if (mc.ips == Multiplicity::Variable || mc.dps == Multiplicity::Variable) {
    return {std::nullopt, Note::VariableCounts};
  }
  if (mc.dps == Multiplicity::Zero) {
    return {std::nullopt, Note::NoDataProcessor};
  }

  const SwitchKind ip_ip = mc.switch_at(ConnectivityRole::IpIp);
  const SwitchKind ip_dp = mc.switch_at(ConnectivityRole::IpDp);
  const SwitchKind ip_im = mc.switch_at(ConnectivityRole::IpIm);
  const SwitchKind dp_dm = mc.switch_at(ConnectivityRole::DpDm);
  const SwitchKind dp_dp = mc.switch_at(ConnectivityRole::DpDp);
  const bool many_dps = mc.dps == Multiplicity::Many;

  switch (mc.ips) {
    case Multiplicity::Zero:
      // Data flow machines.
      if (ip_ip != SwitchKind::None || ip_dp != SwitchKind::None ||
          ip_im != SwitchKind::None) {
        return {std::nullopt, Note::DataFlowIpSide};
      }
      if (!many_dps) {
        return {TaxonomicName{MachineType::DataFlow,
                              ProcessingType::UniProcessor, 0}};
      }
      return {TaxonomicName{MachineType::DataFlow,
                            ProcessingType::MultiProcessor,
                            array_subtype(dp_dm, dp_dp)}};
    case Multiplicity::One:
      if (!many_dps) {
        return {TaxonomicName{MachineType::InstructionFlow,
                              ProcessingType::UniProcessor, 0}};
      }
      return {TaxonomicName{MachineType::InstructionFlow,
                            ProcessingType::ArrayProcessor,
                            array_subtype(dp_dm, dp_dp)}};
    case Multiplicity::Many:
      // Table I classes 11-14.
      if (!many_dps) return {std::nullopt, Note::NotImplementable};
      return {TaxonomicName{MachineType::InstructionFlow,
                            ip_ip != SwitchKind::None
                                ? ProcessingType::SpatialProcessor
                                : ProcessingType::MultiProcessor,
                            multi_subtype(ip_dp, ip_im, dp_dm, dp_dp)}};
    case Multiplicity::Variable:
      break;  // handled above
  }
  return {};
}

/// The rules' answer as a Classification: the reference `classify()` is
/// checked against.
inline Classification classify_by_rules(const MachineClass& mc) {
  const RuledClass ruled = apply_rules(mc);
  if (ruled.name) return {ruled.name, true, ""};
  return {std::nullopt, false, std::string(note_text(ruled.note))};
}

/// Rule-based inverse of apply_rules on the canonical names; Table I is
/// generated from it (the public `canonical_class` answers from the
/// index, which is built from Table I).
constexpr std::optional<MachineClass> canonical_class_by_rules(
    const TaxonomicName& name) {
  const int max_subtype =
      subtype_count(name.machine_type, name.processing_type);
  if (max_subtype == 0) return std::nullopt;  // no such combination
  if (max_subtype == 1) {
    if (name.subtype != 0) return std::nullopt;
  } else if (name.subtype < 1 || name.subtype > max_subtype) {
    return std::nullopt;
  }

  MachineClass mc;
  const int bits = name.subtype - 1;
  const auto crossbar_if = [bits](int bit, SwitchKind otherwise) {
    return (bits & bit) ? SwitchKind::Crossbar : otherwise;
  };
  // Array/data-flow multi sub-types set (DP-DM, DP-DP); multi/spatial
  // ones add (IP-DP, IP-IM) above them.
  const auto array_bits = [&](MachineClass& m) {
    m.set_switch(ConnectivityRole::DpDm, crossbar_if(2, SwitchKind::Direct));
    m.set_switch(ConnectivityRole::DpDp, crossbar_if(1, SwitchKind::None));
  };
  const auto multi_bits = [&](MachineClass& m) {
    m.set_switch(ConnectivityRole::IpDp, crossbar_if(8, SwitchKind::Direct));
    m.set_switch(ConnectivityRole::IpIm, crossbar_if(4, SwitchKind::Direct));
    array_bits(m);
  };

  switch (name.machine_type) {
    case MachineType::DataFlow:
      mc.ips = Multiplicity::Zero;
      if (name.processing_type == ProcessingType::UniProcessor) {
        mc.dps = Multiplicity::One;
        mc.set_switch(ConnectivityRole::DpDm, SwitchKind::Direct);
      } else {
        mc.dps = Multiplicity::Many;
        array_bits(mc);
      }
      return mc;
    case MachineType::InstructionFlow:
      switch (name.processing_type) {
        case ProcessingType::UniProcessor:
          mc.ips = Multiplicity::One;
          mc.dps = Multiplicity::One;
          mc.set_switch(ConnectivityRole::IpDp, SwitchKind::Direct);
          mc.set_switch(ConnectivityRole::IpIm, SwitchKind::Direct);
          mc.set_switch(ConnectivityRole::DpDm, SwitchKind::Direct);
          return mc;
        case ProcessingType::ArrayProcessor:
          mc.ips = Multiplicity::One;
          mc.dps = Multiplicity::Many;
          mc.set_switch(ConnectivityRole::IpDp, SwitchKind::Direct);
          mc.set_switch(ConnectivityRole::IpIm, SwitchKind::Direct);
          array_bits(mc);
          return mc;
        case ProcessingType::MultiProcessor:
        case ProcessingType::SpatialProcessor:
          mc.ips = Multiplicity::Many;
          mc.dps = Multiplicity::Many;
          if (name.processing_type == ProcessingType::SpatialProcessor) {
            mc.set_switch(ConnectivityRole::IpIp, SwitchKind::Crossbar);
          }
          multi_bits(mc);
          return mc;
      }
      return std::nullopt;
    case MachineType::UniversalFlow:
      mc.granularity = Granularity::Lut;
      mc.ips = Multiplicity::Variable;
      mc.dps = Multiplicity::Variable;
      for (SwitchKind& kind : mc.switches) kind = SwitchKind::Crossbar;
      return mc;
  }
  return std::nullopt;
}

}  // namespace detail

}  // namespace mpct

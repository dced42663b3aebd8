#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "core/connectivity.hpp"
#include "core/multiplicity.hpp"

namespace mpct {

/// Granularity of the basic building blocks of a machine (Table I column
/// "Gran.").
///
/// Classes 1-46 are built from whole Instruction/Data Processors; class 47
/// (USP) is built from blocks finer than either — LUTs/CLBs — which can
/// assume the role of IP, DP, IM or DM on reconfiguration (Section II-A).
enum class Granularity : std::uint8_t {
  IpDp = 0,  ///< coarse: blocks are whole IPs/DPs, roles fixed at design time
  Lut = 1,   ///< fine: gate/LUT level, roles assigned by configuration
};

std::string_view to_string(Granularity g);

/// Structural description of a machine class in the extended Skillicorn
/// taxonomy: the multiplicity of instruction and data processors plus the
/// kind of switch in each of the five connectivity columns.
///
/// This is the abstract shape the classifier maps concrete architecture
/// specs onto; one MachineClass corresponds to exactly one row of Table I
/// (for the canonical rows) and to exactly one taxonomic name.
struct MachineClass {
  Granularity granularity = Granularity::IpDp;
  Multiplicity ips = Multiplicity::Zero;
  Multiplicity dps = Multiplicity::One;
  /// Switch kinds indexed by ConnectivityRole (IpIp, IpDp, IpIm, DpDm,
  /// DpDp — the column order of Table I).
  std::array<SwitchKind, kConnectivityRoleCount> switches{
      SwitchKind::None, SwitchKind::None, SwitchKind::None, SwitchKind::None,
      SwitchKind::None};

  constexpr SwitchKind switch_at(ConnectivityRole role) const {
    return switches[static_cast<std::size_t>(role)];
  }
  constexpr void set_switch(ConnectivityRole role, SwitchKind kind) {
    switches[static_cast<std::size_t>(role)] = kind;
  }

  friend bool operator==(const MachineClass&, const MachineClass&) = default;
  friend auto operator<=>(const MachineClass&, const MachineClass&) = default;
};

/// Render one connectivity cell of @p mc in the paper's notation, using
/// the endpoint multiplicities that the role implies (e.g. IP-DP of an
/// array processor prints as "1-n").
std::string format_cell(const MachineClass& mc, ConnectivityRole role);

/// Compact single-line structural signature, e.g.
/// "IP/DP ips=1 dps=n [IP-IP:none IP-DP:1-n IP-IM:1-1 DP-DM:nxn DP-DP:nxn]".
std::string to_string(const MachineClass& mc);

/// Stable hash so MachineClass can key unordered containers.
struct MachineClassHash {
  std::size_t operator()(const MachineClass& mc) const noexcept;
};

}  // namespace mpct

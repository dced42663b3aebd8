#include "arch/registry.hpp"

#include <array>
#include <iterator>
#include <string>
#include <vector>

namespace mpct::arch {

namespace {

/// A count cell parsed by the compiler.  A malformed cell makes the
/// throw below part of the constant evaluation, which is a compile error.
constexpr Count count(std::string_view text) {
  const std::optional<Count> c = Count::parse(text);
  if (!c) throw "registry: bad count cell";
  return *c;
}

/// A connectivity cell parsed by the compiler (compile error if bad).
constexpr ConnectivityExpr cell(std::string_view text) {
  const std::optional<ConnectivityExpr> e = ConnectivityExpr::parse(text);
  if (!e) throw "registry: bad connectivity cell";
  return *e;
}

/// One Table III row as constant data: text as views into the binary,
/// counts and connectivity already parsed.
struct Row {
  std::string_view name;
  std::string_view citation;
  int year = 0;
  std::string_view category;
  Count ips;
  Count dps;
  std::array<ConnectivityExpr, kConnectivityRoleCount> connectivity{};
  std::string_view paper_name;
  int paper_flexibility = 0;
  std::string_view description;
  Granularity granularity = Granularity::IpDp;
};

/// Build one row from the table's own notation, in its column order.
constexpr Row row(std::string_view name, std::string_view citation, int year,
                  std::string_view category, std::string_view ips,
                  std::string_view dps, std::string_view ip_ip,
                  std::string_view ip_dp, std::string_view ip_im,
                  std::string_view dp_dm, std::string_view dp_dp,
                  std::string_view paper_name, int paper_flexibility,
                  std::string_view description,
                  Granularity granularity = Granularity::IpDp) {
  Row r{.name = name,
        .citation = citation,
        .year = year,
        .category = category,
        .ips = count(ips),
        .dps = count(dps),
        .paper_name = paper_name,
        .paper_flexibility = paper_flexibility,
        .description = description,
        .granularity = granularity};
  const auto at = [&r](ConnectivityRole role) -> ConnectivityExpr& {
    return r.connectivity[static_cast<std::size_t>(role)];
  };
  at(ConnectivityRole::IpIp) = cell(ip_ip);
  at(ConnectivityRole::IpDp) = cell(ip_dp);
  at(ConnectivityRole::IpIm) = cell(ip_im);
  at(ConnectivityRole::DpDm) = cell(dp_dm);
  at(ConnectivityRole::DpDp) = cell(dp_dp);
  return r;
}

constexpr Row kTableIII[] = {
    row(
        "ARM7TDMI", "[10]", 2001, "CPU", "1", "1", "none", "1-1", "1-1", "1-1",
        "none", "IUP", 0,
        "Classic three-stage RISC core: a single instruction processor "
        "directly driving a single data path — the instruction-flow "
        "uni-processor baseline with zero morphing flexibility."),
    row(
        "AT89C51", "[11]", 1999, "MCU", "1", "1", "none", "1-1", "1-1", "1-1",
        "none", "IUP", 0,
        "8-bit 8051-family microcontroller with 4K flash; like the ARM7TDMI "
        "it is a fixed Von Neumann uni-processor (IUP)."),
    row(
        "IMAGINE", "[12]", 2002, "Stream", "1", "6", "none", "1-6", "1-1",
        "6-1", "6x6", "IAP-II", 2,
        "Stream processor: a host IP controls 6 ALU clusters that connect to "
        "each other and a multi-ported stream register file through a "
        "circuit-switched network."),
    row(
        "MorphoSys", "[13]", 1999, "CGRA", "1", "64", "none", "1-64", "1-1",
        "64-1", "64x64", "IAP-II", 2,
        "8x8 reconfigurable-cell fabric under a TinyRISC host; RC cells "
        "interconnect with each other and a frame buffer used for storage."),
    row(
        "REMARC", "[14]", 1998, "CGRA", "1", "64", "none", "1-64", "1-1",
        "64-1", "64x64", "IAP-II", 2,
        "64 NANO processors in rows/columns with local instruction storage "
        "but a single global control unit providing the program counter."),
    row(
        "RICA", "[8]", 2008, "CGRA", "1", "n", "none", "1-n", "1-1", "n-1",
        "nxn", "IAP-II", 2,
        "Reconfigurable Instruction Cell Array: a domain-tailored template "
        "of instruction cells loosely coupled to data memory through I/O "
        "ports and tightly coupled to a RISC controller."),
    row(
        "PADDI", "[15]", 1992, "DSP", "1", "8", "none", "1-8", "1-8", "8-1",
        "8x8", "IAP-II", 2,
        "Eight execution units behind a crossbar, fed VLIW-style by a global "
        "instruction sequencer — rapid prototyping fabric for high-speed DSP "
        "data paths."),
    row(
        "PACT XPP", "[16]", 2003, "CGRA", "n", "n", "none", "n-n", "n-n",
        "n-n", "nxn", "IMP-II", 2,
        "Self-reconfigurable packet-driven array of processing array "
        "elements; the paper prints flexibility 2 for this row although the "
        "IMP-II class scores 3 in Table II (known erratum)."),
    row(
        "Chimaera", "[17]", 2004, "RFU", "1", "n", "none", "1-n", "1-1", "n-1",
        "nxn", "IAP-II", 2,
        "Reconfigurable functional unit of 2/3-input LUT rows coupled to a "
        "host register file through a shadow register file; the host "
        "processor controls the array."),
    row(
        "ADRES", "[18]", 2005, "CGRA", "1", "64", "none", "1-64", "1-1", "8-1",
        "64x64", "IAP-II", 2,
        "VLIW host + 8x8 RC fabric template; the first RC row couples "
        "tightly to the multi-ported register file, the rest reach it only "
        "through a mux-based network."),
    row(
        "Montium", "[19]", 2004, "CGRA", "1", "5", "none", "1-5", "1-1",
        "5x10", "5x5", "IAP-IV", 3,
        "Tile of 5 ALUs fully crossbar-connected to 10 memory banks; a "
        "sequencer drives data path, interconnect and memories VLIW-style."),
    row(
        "GARP", "[20]", 2000, "CGRA", "1", "24n", "none", "1-24n", "1-1",
        "24nx1", "24nx24n", "IAP-IV", 3,
        "MIPS core tightly coupled to a fabric of rows of 23+1 2-bit logic "
        "elements that compose into wider data paths, loosely coupled to "
        "memory."),
    row(
        "PipeRench", "[21], [22]", 1999, "CGRA", "1", "n", "none", "1-n",
        "1-1", "nx1", "nxn", "IAP-IV", 3,
        "Pipelined reconfiguration: stripes of PEs joined by horizontal and "
        "vertical buses under a single input controller with I/O FIFOs."),
    row(
        "EGRA", "[23]", 2011, "CGRA", "1", "n", "none", "1-n", "1-1", "nxn",
        "nxn", "IAP-IV", 3,
        "Expression-grained template mixing ALU, multiplier and memory "
        "blocks in rows/columns joined by nearest-neighbour plus bus "
        "connectivity, under external control."),
    row(
        "ELM", "[24]", 2008, "DSP", "1", "2", "none", "1-2", "1-1", "2x2",
        "2x2", "IAP-IV", 3,
        "Energy-efficient embedded processor whose ensemble of two ALUs "
        "reaches operand registers and memories through full switches."),
    row(
        "PADDI-2", "[25]", 1995, "DSP", "48", "48", "none", "48-48", "48-48",
        "48-48", "48-48", "IMP-I", 2,
        "48 data-driven PEs, each with its own local control unit and local "
        "memory, joined by a hierarchical network — separate Von Neumann "
        "machines in the taxonomy's eyes."),
    row(
        "Cortex-A9 (Quad core)", "[26]", 2009, "CPU", "4", "4", "none", "4-4",
        "4-4", "4-4", "none", "IMP-I", 2,
        "Four application cores working in parallel; each IP couples "
        "directly to its own data path and caches."),
    row(
        "Core2Duo", "[27]", 2008, "CPU", "2", "2", "none", "2-2", "2-2", "2-2",
        "none", "IMP-I", 2,
        "Two x86 cores, each a fixed IP-DP pair — the desktop-CPU instance "
        "of IMP-I."),
    row(
        "Pleiades", "[28]", 1997, "CGRA", "n", "n", "none", "n-n", "n-n",
        "n-1", "nxn", "IMP-II", 3,
        "Heterogeneous host + satellite processors joined by a "
        "circuit-switched network: the satellites interconnect flexibly, "
        "memory access stays direct."),
    row(
        "RaPiD", "[29]", 1999, "CGRA", "n", "m", "none", "nxm", "nxn", "m-1",
        "mxm", "IMP-XIV", 5,
        "Linear array of functional units over a bus-based interconnect; "
        "instruction processors reach the FUs through the same kind of "
        "buses, which limits scalability."),
    row(
        "REDEFINE", "[30]", 2009, "CGRA", "0", "64", "none", "none", "none",
        "22x1", "64x64", "DMP-IV", 3,
        "Static dataflow: HyperOps execute on an 8x8 fabric of compute "
        "elements joined by a packet-switched NoC; no instruction processor "
        "exists."),
    row(
        "Colt", "[31]", 1996, "CGRA", "0", "16", "none", "none", "none",
        "16x6", "16x16", "DMP-IV", 3,
        "Wormhole run-time reconfiguration: a 4x4 crossbar-connected "
        "data-processing matrix where the data stream itself carries routing "
        "and configuration."),
    row(
        "DRRA", "[32]", 2010, "CGRA", "n", "n", "nx14", "n-n", "n-n", "nx14",
        "nx14", "ISP-IV", 5,
        "Distributed control/memory/datapath template: every element reaches "
        "neighbours within a 3-hop window in both directions; control "
        "elements also talk to other control elements (IP-IP)."),
    row(
        "MATRIX", "[33]", 1996, "CGRA", "n", "n", "nxn", "nxn", "nxn", "nxn",
        "nxn", "ISP-XVI", 7,
        "Every basic functional unit can serve as instruction or data "
        "storage, register file or datapath, over nearest-neighbour, "
        "length-4 bypass and global buses — but it cannot implement data "
        "flow, so it stays ISP, not USP."),
    row(
        "FPGA", "[34]", 2011, "FPGA", "v", "v", "vxv", "vxv", "vxv", "vxv",
        "vxv", "USP", 8,
        "CLB-grain fabric: role of every block (IP, DP, IM, DM) is decided "
        "by configuration, so the counts themselves are variable — the "
        "universal spatial processor.",
        Granularity::Lut),
};

ArchitectureSpec to_spec(const Row& row) {
  ArchitectureSpec spec;
  spec.name = std::string(row.name);
  spec.citation = std::string(row.citation);
  spec.description = std::string(row.description);
  spec.year = row.year;
  spec.category = std::string(row.category);
  spec.granularity = row.granularity;
  spec.ips = row.ips;
  spec.dps = row.dps;
  spec.connectivity = row.connectivity;
  spec.paper_name = std::string(row.paper_name);
  spec.paper_flexibility = row.paper_flexibility;
  return spec;
}

}  // namespace

std::span<const ArchitectureSpec> surveyed_architectures() {
  static const std::vector<ArchitectureSpec> registry = [] {
    std::vector<ArchitectureSpec> specs;
    specs.reserve(std::size(kTableIII));
    for (const Row& row : kTableIII) specs.push_back(to_spec(row));
    return specs;
  }();
  return registry;
}

const ArchitectureSpec* find_architecture(std::string_view name) {
  for (const ArchitectureSpec& spec : surveyed_architectures()) {
    if (detail::iequals(spec.name, name)) return &spec;
  }
  return nullptr;
}

int surveyed_count() {
  return static_cast<int>(surveyed_architectures().size());
}

}  // namespace mpct::arch

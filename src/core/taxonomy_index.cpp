#include "core/taxonomy_index.hpp"

#include "core/classifier.hpp"
#include "trace/trace.hpp"

namespace mpct {

namespace {

/// 15-bit structural key: granularity (1 bit) | ips (2) | dps (2) |
/// five switch kinds (2 each, ConnectivityRole order).
constexpr std::size_t kKeySpace = std::size_t{1} << 15;

constexpr std::uint32_t pack(const MachineClass& mc) {
  std::uint32_t key = static_cast<std::uint32_t>(mc.granularity) & 1u;
  key |= (static_cast<std::uint32_t>(mc.ips) & 3u) << 1;
  key |= (static_cast<std::uint32_t>(mc.dps) & 3u) << 3;
  for (std::size_t i = 0; i < kConnectivityRoleCount; ++i) {
    key |= (static_cast<std::uint32_t>(mc.switches[i]) & 3u) << (5 + 2 * i);
  }
  return key;
}

/// Table I serial (1..47) of the row carrying the name `classify`
/// produces for a key; 0 when classification fails, with `note` saying
/// why.  Value-initialised entries read as "unclassifiable".
struct PackedResult {
  std::uint8_t serial;
  detail::Note note;
};

/// classify() over the whole key space, evaluated by the compiler.  Only
/// the 3^5 x 32 = 7,776 keys whose switch fields name a SwitchKind are
/// walked, each with little more than the rules themselves, which keeps
/// the evaluation well inside the compilers' default constexpr limits
/// (clang: 2^20 steps).  The other keys are unreachable from real
/// MachineClass values and stay "unclassifiable".
constexpr std::array<PackedResult, kKeySpace> build_classify_table() {
  std::array<PackedResult, kKeySpace> table{};
  for (std::uint32_t kinds = 0; kinds < 243; ++kinds) {
    MachineClass mc;
    std::uint32_t digits = kinds;  // base 3, one digit per switch
    for (SwitchKind& kind : mc.switches) {
      kind = static_cast<SwitchKind>(digits % 3);
      digits /= 3;
    }
    // The low five key bits are granularity | ips | dps, as in pack().
    mc.granularity = Granularity::IpDp;
    mc.ips = mc.dps = Multiplicity::Zero;
    const std::uint32_t switch_bits = pack(mc);
    for (std::uint32_t low = 0; low < 32; ++low) {
      mc.granularity = static_cast<Granularity>(low & 1u);
      mc.ips = static_cast<Multiplicity>((low >> 1) & 3u);
      mc.dps = static_cast<Multiplicity>((low >> 3) & 3u);
      const detail::RuledClass ruled = detail::apply_rules(mc);
      table[switch_bits | low] = {
          static_cast<std::uint8_t>(
              ruled.name ? detail::name_serial(*ruled.name) : 0),
          ruled.note};
    }
  }
  return table;
}

constexpr std::array<PackedResult, kKeySpace> kClassifyTable =
    build_classify_table();

// The table is constant data: building it at run time fails here.
static_assert(kClassifyTable[pack(*detail::canonical_class_by_rules(
                                  {MachineType::InstructionFlow,
                                   ProcessingType::UniProcessor, 0}))]
                  .serial == 6);

}  // namespace

TaxonomyIndex::FastClassification TaxonomyIndex::classify(
    const MachineClass& mc) const {
  // Count-only hook: this path is ~4 ns, so the budget is one relaxed
  // load and a predicted branch (bench_sweep guards the fast path).
  trace::profile_count(trace::ProfilePoint::ClassifyFast);
  const PackedResult result = kClassifyTable[pack(mc)];
  if (result.serial != 0) return {by_serial(result.serial), {}};
  return {nullptr, detail::note_text(result.note)};
}

}  // namespace mpct

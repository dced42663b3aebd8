#include "core/classifier.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "core/flexibility.hpp"
#include "core/taxonomy_index.hpp"
#include "core/taxonomy_table.hpp"

namespace mpct {
namespace {

MachineClass make(Multiplicity ips, Multiplicity dps, SwitchKind ip_ip,
                  SwitchKind ip_dp, SwitchKind ip_im, SwitchKind dp_dm,
                  SwitchKind dp_dp,
                  Granularity granularity = Granularity::IpDp) {
  MachineClass mc;
  mc.granularity = granularity;
  mc.ips = ips;
  mc.dps = dps;
  mc.set_switch(ConnectivityRole::IpIp, ip_ip);
  mc.set_switch(ConnectivityRole::IpDp, ip_dp);
  mc.set_switch(ConnectivityRole::IpIm, ip_im);
  mc.set_switch(ConnectivityRole::DpDm, dp_dm);
  mc.set_switch(ConnectivityRole::DpDp, dp_dp);
  return mc;
}

TEST(SubtypeNumbering, ArraySubtypeBits) {
  // Bits (DP-DM, DP-DP), I..IV — the DMP/IAP ordering of Table I.
  EXPECT_EQ(array_subtype(SwitchKind::Direct, SwitchKind::None), 1);
  EXPECT_EQ(array_subtype(SwitchKind::Direct, SwitchKind::Crossbar), 2);
  EXPECT_EQ(array_subtype(SwitchKind::Crossbar, SwitchKind::None), 3);
  EXPECT_EQ(array_subtype(SwitchKind::Crossbar, SwitchKind::Crossbar), 4);
}

TEST(SubtypeNumbering, MultiSubtypeBits) {
  // Bits (IP-DP, IP-IM, DP-DM, DP-DP), I..XVI.
  EXPECT_EQ(multi_subtype(SwitchKind::Direct, SwitchKind::Direct,
                          SwitchKind::Direct, SwitchKind::None),
            1);
  EXPECT_EQ(multi_subtype(SwitchKind::Direct, SwitchKind::Direct,
                          SwitchKind::Direct, SwitchKind::Crossbar),
            2);
  EXPECT_EQ(multi_subtype(SwitchKind::Direct, SwitchKind::Crossbar,
                          SwitchKind::Direct, SwitchKind::None),
            5);
  EXPECT_EQ(multi_subtype(SwitchKind::Crossbar, SwitchKind::Direct,
                          SwitchKind::Direct, SwitchKind::None),
            9);
  EXPECT_EQ(multi_subtype(SwitchKind::Crossbar, SwitchKind::Crossbar,
                          SwitchKind::Direct, SwitchKind::Crossbar),
            14);  // RaPiD's IMP-XIV pattern
  EXPECT_EQ(multi_subtype(SwitchKind::Crossbar, SwitchKind::Crossbar,
                          SwitchKind::Crossbar, SwitchKind::Crossbar),
            16);
}

TEST(Classifier, DataFlowUniProcessor) {
  const auto result =
      classify(make(Multiplicity::Zero, Multiplicity::One, SwitchKind::None,
                    SwitchKind::None, SwitchKind::None, SwitchKind::Direct,
                    SwitchKind::None));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(to_string(*result.name), "DUP");
}

TEST(Classifier, DataFlowMultiProcessorSubtypes) {
  for (int sub = 1; sub <= 4; ++sub) {
    const bool dm_x = (sub - 1) & 2;
    const bool dp_x = (sub - 1) & 1;
    const auto result = classify(
        make(Multiplicity::Zero, Multiplicity::Many, SwitchKind::None,
             SwitchKind::None, SwitchKind::None,
             dm_x ? SwitchKind::Crossbar : SwitchKind::Direct,
             dp_x ? SwitchKind::Crossbar : SwitchKind::None));
    ASSERT_TRUE(result.ok()) << sub;
    EXPECT_EQ(result.name->subtype, sub);
    EXPECT_EQ(result.name->machine_type, MachineType::DataFlow);
  }
}

TEST(Classifier, InstructionFlowUniProcessor) {
  const auto result = classify(
      make(Multiplicity::One, Multiplicity::One, SwitchKind::None,
           SwitchKind::Direct, SwitchKind::Direct, SwitchKind::Direct,
           SwitchKind::None));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(to_string(*result.name), "IUP");
}

TEST(Classifier, IpIpConnectivityMakesSpatial) {
  const MachineClass imp =
      make(Multiplicity::Many, Multiplicity::Many, SwitchKind::None,
           SwitchKind::Direct, SwitchKind::Direct, SwitchKind::Direct,
           SwitchKind::Crossbar);
  MachineClass isp = imp;
  isp.set_switch(ConnectivityRole::IpIp, SwitchKind::Crossbar);

  const auto imp_result = classify(imp);
  const auto isp_result = classify(isp);
  ASSERT_TRUE(imp_result.ok());
  ASSERT_TRUE(isp_result.ok());
  EXPECT_EQ(to_string(*imp_result.name), "IMP-II");
  EXPECT_EQ(to_string(*isp_result.name), "ISP-II");
}

TEST(Classifier, LutGranularityIsUniversal) {
  const auto result = classify(
      make(Multiplicity::Variable, Multiplicity::Variable,
           SwitchKind::Crossbar, SwitchKind::Crossbar, SwitchKind::Crossbar,
           SwitchKind::Crossbar, SwitchKind::Crossbar, Granularity::Lut));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(to_string(*result.name), "USP");
}

TEST(Classifier, VariableCountsWithoutLutGranularityRejected) {
  const auto result = classify(
      make(Multiplicity::Variable, Multiplicity::Variable,
           SwitchKind::Crossbar, SwitchKind::Crossbar, SwitchKind::Crossbar,
           SwitchKind::Crossbar, SwitchKind::Crossbar));
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.implementable);
  EXPECT_NE(result.note.find("LUT granularity"), std::string::npos);
}

TEST(Classifier, ManyIpsOneDpIsNotImplementable) {
  const auto result = classify(
      make(Multiplicity::Many, Multiplicity::One, SwitchKind::None,
           SwitchKind::Direct, SwitchKind::Direct, SwitchKind::Direct,
           SwitchKind::None));
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.implementable);
  EXPECT_NE(result.note.find("not implementable"), std::string::npos);
}

TEST(Classifier, ZeroDpsRejected) {
  const auto result = classify(
      make(Multiplicity::One, Multiplicity::Zero, SwitchKind::None,
           SwitchKind::Direct, SwitchKind::Direct, SwitchKind::None,
           SwitchKind::None));
  EXPECT_FALSE(result.ok());
}

TEST(Classifier, DataFlowWithIpConnectivityRejected) {
  const auto result = classify(
      make(Multiplicity::Zero, Multiplicity::Many, SwitchKind::None,
           SwitchKind::Direct, SwitchKind::None, SwitchKind::Direct,
           SwitchKind::None));
  EXPECT_FALSE(result.ok());
}

TEST(Classifier, DirectIpIpStillSpatial) {
  // DRRA's IP-IP window is a restricted switch, but any IP-IP
  // connectivity composes processors: the class is spatial.
  const auto result = classify(
      make(Multiplicity::Many, Multiplicity::Many, SwitchKind::Direct,
           SwitchKind::Direct, SwitchKind::Direct, SwitchKind::Direct,
           SwitchKind::None));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.name->processing_type, ProcessingType::SpatialProcessor);
  EXPECT_EQ(result.name->subtype, 1);
}

/// Property: classify(canonical_class(name)) == name for every named row.
TEST(Classifier, RoundTripsOverCanonicalTable) {
  for (const TaxonomyEntry& row : extended_taxonomy()) {
    if (!row.name) continue;
    const auto mc = canonical_class(*row.name);
    ASSERT_TRUE(mc.has_value()) << to_string(*row.name);
    const auto result = classify(*mc);
    ASSERT_TRUE(result.ok()) << to_string(*row.name);
    EXPECT_EQ(*result.name, *row.name) << to_string(*row.name);
  }
}

/// Property: the four NI rows classify as not implementable.
TEST(Classifier, NiRowsRejected) {
  for (const TaxonomyEntry& row : extended_taxonomy()) {
    if (row.name) continue;
    const auto result = classify(row.machine);
    EXPECT_FALSE(result.ok()) << row.serial;
    EXPECT_FALSE(result.implementable) << row.serial;
  }
}

/// Decode a 15-bit structural key: granularity (1 bit) | ips (2) |
/// dps (2) | five switch kinds (2 each, ConnectivityRole order).  Empty
/// for keys whose switch fields name no SwitchKind.
std::optional<MachineClass> decode_key(std::uint32_t key) {
  MachineClass mc;
  mc.granularity = static_cast<Granularity>(key & 1u);
  mc.ips = static_cast<Multiplicity>((key >> 1) & 3u);
  mc.dps = static_cast<Multiplicity>((key >> 3) & 3u);
  for (std::size_t i = 0; i < kConnectivityRoleCount; ++i) {
    const std::uint32_t kind = (key >> (5 + 2 * i)) & 3u;
    if (kind > static_cast<std::uint32_t>(SwitchKind::Crossbar)) {
      return std::nullopt;
    }
    mc.switches[i] = static_cast<SwitchKind>(kind);
  }
  return mc;
}

/// Oracle parity: the index answers exactly as the rule walker on every
/// structure — name, implementable flag and note text.
TEST(ClassifierOracle, IndexMatchesRulesOnEveryStructure) {
  int valid = 0;
  for (std::uint32_t key = 0; key < (1u << 15); ++key) {
    const std::optional<MachineClass> mc = decode_key(key);
    if (!mc) continue;
    ++valid;
    const Classification fast = classify(*mc);
    const Classification ruled = detail::classify_by_rules(*mc);
    ASSERT_EQ(fast.name, ruled.name) << to_string(*mc);
    ASSERT_EQ(fast.implementable, ruled.implementable) << to_string(*mc);
    ASSERT_EQ(fast.note, ruled.note) << to_string(*mc);
  }
  EXPECT_EQ(valid, 2 * 4 * 4 * 243);  // 3^5 switch patterns
}

/// Every index row agrees with Table I, the rule-based inverse, the name
/// renderer and the flexibility score.
TEST(ClassifierOracle, IndexRowsMatchTableAndRules) {
  const TaxonomyIndex& index = taxonomy_index();
  ASSERT_EQ(index.rows().size(), extended_taxonomy().size());
  for (const TaxonomyEntry& row : extended_taxonomy()) {
    const TaxonomyIndex::ClassInfo* info = index.by_serial(row.serial);
    ASSERT_NE(info, nullptr) << row.serial;
    EXPECT_EQ(info->serial, row.serial);
    EXPECT_EQ(info->machine, row.machine) << row.serial;
    EXPECT_EQ(index.by_structure(row.machine), info) << row.serial;
    EXPECT_EQ(info->flexibility, flexibility_score(row.machine))
        << row.serial;
    EXPECT_EQ(info->named, row.name.has_value()) << row.serial;
    EXPECT_EQ(info->implementable, row.implementable) << row.serial;
    if (!row.name) {
      EXPECT_EQ(info->interned_name, "NI") << row.serial;
      continue;
    }
    EXPECT_EQ(info->name, *row.name) << row.serial;
    EXPECT_EQ(index.by_name(*row.name), info) << row.serial;
    EXPECT_EQ(canonical_class(*row.name),
              detail::canonical_class_by_rules(*row.name))
        << row.serial;
    EXPECT_EQ(info->interned_name, to_string(*row.name)) << row.serial;
    EXPECT_EQ(index.interned_name(*row.name), to_string(*row.name));
  }
}

TEST(CanonicalClass, RejectsNonCanonicalNames) {
  EXPECT_EQ(canonical_class(TaxonomicName{MachineType::DataFlow,
                                          ProcessingType::ArrayProcessor, 1}),
            std::nullopt);
  EXPECT_EQ(canonical_class(TaxonomicName{MachineType::InstructionFlow,
                                          ProcessingType::MultiProcessor,
                                          17}),
            std::nullopt);
  EXPECT_EQ(canonical_class(TaxonomicName{MachineType::InstructionFlow,
                                          ProcessingType::MultiProcessor, 0}),
            std::nullopt);
  EXPECT_EQ(canonical_class(TaxonomicName{MachineType::UniversalFlow,
                                          ProcessingType::SpatialProcessor,
                                          2}),
            std::nullopt);
}

TEST(CanonicalClass, UspIsLutGrainAllCrossbar) {
  const auto usp = canonical_class(
      TaxonomicName{MachineType::UniversalFlow,
                    ProcessingType::SpatialProcessor, 0});
  ASSERT_TRUE(usp.has_value());
  EXPECT_EQ(usp->granularity, Granularity::Lut);
  EXPECT_EQ(usp->ips, Multiplicity::Variable);
  EXPECT_EQ(usp->dps, Multiplicity::Variable);
  for (ConnectivityRole role : kAllConnectivityRoles) {
    EXPECT_EQ(usp->switch_at(role), SwitchKind::Crossbar);
  }
}

}  // namespace
}  // namespace mpct

#include "core/taxonomy_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/taxonomy_index.hpp"

namespace mpct {
namespace {

// Table I and the index are constant data: these checks run in the
// compiler, so a change that builds either at run time fails to build.
static_assert(extended_taxonomy().size() == 47);
static_assert(std::count_if(extended_taxonomy().begin(),
                            extended_taxonomy().end(),
                            [](const TaxonomyEntry& row) {
                              return row.name.has_value();
                            }) == 43);
static_assert([] {
  for (int serial = 11; serial <= 14; ++serial) {
    if (extended_taxonomy()[serial - 1].name) return false;
    if (taxonomy_index().by_serial(serial)->named) return false;
  }
  return true;
}());
static_assert(extended_taxonomy()[46].name ==
              TaxonomicName{MachineType::UniversalFlow,
                            ProcessingType::SpatialProcessor, 0});
static_assert(taxonomy_index().by_serial(47)->interned_name == "USP");
static_assert(taxonomy_index()
                  .by_structure(*detail::canonical_class_by_rules(
                      {MachineType::InstructionFlow,
                       ProcessingType::UniProcessor, 0}))
                  ->serial == 6);

TEST(TaxonomyTable, Has47Rows) {
  EXPECT_EQ(extended_taxonomy().size(), 47u);
}

TEST(TaxonomyTable, SerialNumbersAreDense) {
  int expected = 1;
  for (const TaxonomyEntry& row : extended_taxonomy()) {
    EXPECT_EQ(row.serial, expected++);
  }
}

TEST(TaxonomyTable, FourNiRowsAt11To14) {
  int ni_count = 0;
  for (const TaxonomyEntry& row : extended_taxonomy()) {
    if (!row.implementable) {
      ++ni_count;
      EXPECT_GE(row.serial, 11);
      EXPECT_LE(row.serial, 14);
      EXPECT_FALSE(row.name.has_value());
      EXPECT_EQ(row.comment(), "NI");
    }
  }
  EXPECT_EQ(ni_count, 4);
  EXPECT_EQ(implementable_class_count(), 43);
}

TEST(TaxonomyTable, RowBoundariesMatchTableI) {
  // Spot-check the section structure: 1 DUP, 2-5 DMP, 6 IUP, 7-10 IAP,
  // 15-30 IMP, 31-46 ISP, 47 USP.
  EXPECT_EQ(find_entry(1)->comment(), "DUP");
  EXPECT_EQ(find_entry(2)->comment(), "DMP-I");
  EXPECT_EQ(find_entry(5)->comment(), "DMP-IV");
  EXPECT_EQ(find_entry(6)->comment(), "IUP");
  EXPECT_EQ(find_entry(7)->comment(), "IAP-I");
  EXPECT_EQ(find_entry(10)->comment(), "IAP-IV");
  EXPECT_EQ(find_entry(15)->comment(), "IMP-I");
  EXPECT_EQ(find_entry(30)->comment(), "IMP-XVI");
  EXPECT_EQ(find_entry(31)->comment(), "ISP-I");
  EXPECT_EQ(find_entry(46)->comment(), "ISP-XVI");
  EXPECT_EQ(find_entry(47)->comment(), "USP");
}

TEST(TaxonomyTable, Row8MatchesPaperCells) {
  // Table I row 8: IAP-II — 1 IP, n DPs, none, 1-n, 1-1, n-n, nxn.
  const TaxonomyEntry* row = find_entry(8);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->comment(), "IAP-II");
  EXPECT_EQ(format_cell(row->machine, ConnectivityRole::IpIp), "none");
  EXPECT_EQ(format_cell(row->machine, ConnectivityRole::IpDp), "1-n");
  EXPECT_EQ(format_cell(row->machine, ConnectivityRole::IpIm), "1-1");
  EXPECT_EQ(format_cell(row->machine, ConnectivityRole::DpDm), "n-n");
  EXPECT_EQ(format_cell(row->machine, ConnectivityRole::DpDp), "nxn");
}

TEST(TaxonomyTable, Row19MatchesPaperCells) {
  // Table I row 19: IMP-V — n, n, none, n-n, nxn, n-n, none.
  const TaxonomyEntry* row = find_entry(19);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->comment(), "IMP-V");
  EXPECT_EQ(format_cell(row->machine, ConnectivityRole::IpDp), "n-n");
  EXPECT_EQ(format_cell(row->machine, ConnectivityRole::IpIm), "nxn");
  EXPECT_EQ(format_cell(row->machine, ConnectivityRole::DpDm), "n-n");
  EXPECT_EQ(format_cell(row->machine, ConnectivityRole::DpDp), "none");
}

TEST(TaxonomyTable, Row40MatchesPaperCells) {
  // Table I row 40: ISP-X — n, n, nxn, nxn, n-n, n-n, nxn.
  const TaxonomyEntry* row = find_entry(40);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->comment(), "ISP-X");
  EXPECT_EQ(format_cell(row->machine, ConnectivityRole::IpIp), "nxn");
  EXPECT_EQ(format_cell(row->machine, ConnectivityRole::IpDp), "nxn");
  EXPECT_EQ(format_cell(row->machine, ConnectivityRole::IpIm), "n-n");
  EXPECT_EQ(format_cell(row->machine, ConnectivityRole::DpDm), "n-n");
  EXPECT_EQ(format_cell(row->machine, ConnectivityRole::DpDp), "nxn");
}

TEST(TaxonomyTable, Row47IsLutGrained) {
  const TaxonomyEntry* row = find_entry(47);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->machine.granularity, Granularity::Lut);
  EXPECT_EQ(format_cell(row->machine, ConnectivityRole::IpIp), "vxv");
}

TEST(TaxonomyTable, NiRowsMatchPaperCells) {
  // Rows 11-14: n IPs, 1 DP; IP-IM upgrades before IP-IP.
  const auto cell = [](int serial, ConnectivityRole role) {
    return format_cell(find_entry(serial)->machine, role);
  };
  EXPECT_EQ(cell(11, ConnectivityRole::IpIp), "none");
  EXPECT_EQ(cell(11, ConnectivityRole::IpIm), "n-n");
  EXPECT_EQ(cell(12, ConnectivityRole::IpIp), "none");
  EXPECT_EQ(cell(12, ConnectivityRole::IpIm), "nxn");
  EXPECT_EQ(cell(13, ConnectivityRole::IpIp), "nxn");
  EXPECT_EQ(cell(13, ConnectivityRole::IpIm), "n-n");
  EXPECT_EQ(cell(14, ConnectivityRole::IpIp), "nxn");
  EXPECT_EQ(cell(14, ConnectivityRole::IpIm), "nxn");
  for (int serial = 11; serial <= 14; ++serial) {
    EXPECT_EQ(cell(serial, ConnectivityRole::IpDp), "n-1") << serial;
    EXPECT_EQ(cell(serial, ConnectivityRole::DpDm), "1-1") << serial;
    EXPECT_EQ(cell(serial, ConnectivityRole::DpDp), "none") << serial;
  }
}

TEST(TaxonomyTable, StructuresAreUnique) {
  std::set<std::string> signatures;
  for (const TaxonomyEntry& row : extended_taxonomy()) {
    signatures.insert(to_string(row.machine));
  }
  EXPECT_EQ(signatures.size(), 47u);
}

TEST(TaxonomyTable, LookupByNameAndStructureAgree) {
  for (const TaxonomyEntry& row : extended_taxonomy()) {
    EXPECT_EQ(find_entry(row.machine), &row);
    if (row.name) {
      EXPECT_EQ(find_entry(*row.name), &row);
    }
  }
}

TEST(TaxonomyTable, LookupFailures) {
  EXPECT_EQ(find_entry(0), nullptr);
  EXPECT_EQ(find_entry(48), nullptr);
  MachineClass bogus;
  bogus.ips = Multiplicity::Variable;
  EXPECT_EQ(find_entry(bogus), nullptr);
}

TEST(TaxonomyTable, SectionsFollowFigure2Order) {
  EXPECT_EQ(find_entry(1)->section, "Data Flow Machines -> Single Processor");
  EXPECT_EQ(find_entry(3)->section, "Data Flow Machines -> Multi Processors");
  EXPECT_EQ(find_entry(6)->section, "Instruction Flow -> Single Processor");
  EXPECT_EQ(find_entry(9)->section, "Instruction Flow -> Array Processor");
  EXPECT_EQ(find_entry(20)->section, "Instruction Flow -> Multi Processor");
  EXPECT_EQ(find_entry(47)->section,
            "Universal Flow Machine -> Spatial Computing");
}

}  // namespace
}  // namespace mpct

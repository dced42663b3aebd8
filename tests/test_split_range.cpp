/// Tests of mpct::split_range — the one split rule of every flat-range
/// job (engine chunks, proxy scatter, library thread slices).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/split_range.hpp"

namespace {

using mpct::IndexRange;
using mpct::split_range;
using Ranges = std::vector<IndexRange>;

/// Disjoint, in order, covering [0, cells), at most @p parts ranges,
/// every interior boundary on a multiple of @p grain.
void expect_valid_split(std::size_t cells, std::size_t parts,
                        std::size_t grain) {
  SCOPED_TRACE(testing::Message() << "cells=" << cells << " parts=" << parts
                                  << " grain=" << grain);
  const Ranges ranges = split_range(cells, parts, grain);
  EXPECT_LE(ranges.size(), std::max<std::size_t>(parts, 1));
  std::size_t next = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].begin, next);
    EXPECT_LT(ranges[i].begin, ranges[i].end);
    if (i + 1 < ranges.size()) {
      EXPECT_EQ(ranges[i].end % grain, 0u);
    }
    next = ranges[i].end;
  }
  EXPECT_EQ(next, cells);
}

TEST(SplitRange, EveryShapeIsADisjointOrderedCover) {
  for (std::size_t cells : {0u, 1u, 3u, 7u, 21u, 36u, 1408u}) {
    for (std::size_t parts : {1u, 2u, 4u, 8u, 64u}) {
      for (std::size_t grain : {1u, 3u, 6u, 22u, 100u}) {
        expect_valid_split(cells, parts, grain);
      }
    }
  }
}

TEST(SplitRange, FewerCellsThanPartsGivesOneCellEach) {
  EXPECT_EQ(split_range(3, 8, 1), (Ranges{{0, 1}, {1, 2}, {2, 3}}));
}

TEST(SplitRange, GrainLargerThanCellsGivesOneRange) {
  EXPECT_EQ(split_range(6, 4, 10), (Ranges{{0, 6}}));
}

TEST(SplitRange, LastRangeTakesTheRaggedRemainder) {
  EXPECT_EQ(split_range(21, 4, 1), (Ranges{{0, 5}, {5, 10}, {10, 15}, {15, 21}}));
  EXPECT_EQ(split_range(10, 3, 4), (Ranges{{0, 4}, {4, 8}, {8, 10}}));
}

TEST(SplitRange, OnePartIsTheWholeRange) {
  EXPECT_EQ(split_range(1408, 1, 22), (Ranges{{0, 1408}}));
}

TEST(SplitRange, ZeroCellsGiveNoRanges) {
  EXPECT_TRUE(split_range(0, 4, 1).empty());
  EXPECT_TRUE(split_range(0, 1, 8).empty());
}

}  // namespace

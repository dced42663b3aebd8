#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace mpct {

/// Half-open flat cell range [begin, end).
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  friend bool operator==(const IndexRange&, const IndexRange&) = default;
};

/// Ranges a flat-range job aims for per executor — an engine worker or
/// a fleet endpoint: two lets a fast executor take up the slack of a
/// slow one without churning the queue.
inline constexpr std::size_t kChunksPerExecutor = 2;

/// The one split rule of every flat-range job (engine chunks, proxy
/// scatter, the library's thread slices): [0, @p cells) cut into at
/// most @p parts near-equal, disjoint, in-order ranges covering it.
/// Every boundary but the last is rounded up to a multiple of @p grain
/// (one grid row for a sweep, so each range runs the batch kernel end
/// to end); a range the rounding empties is skipped, so fewer than
/// @p parts may come back, and 0 cells yield none.
inline std::vector<IndexRange> split_range(std::size_t cells,
                                           std::size_t parts,
                                           std::size_t grain) {
  parts = std::clamp<std::size_t>(parts, 1, std::max<std::size_t>(cells, 1));
  grain = std::max<std::size_t>(grain, 1);
  std::vector<IndexRange> ranges;
  ranges.reserve(parts);
  std::size_t begin = 0;
  for (std::size_t k = 1; k <= parts; ++k) {
    const std::size_t end =
        std::min(cells, (cells * k / parts + grain - 1) / grain * grain);
    if (begin < end) {
      ranges.push_back({begin, end});
      begin = end;
    }
  }
  return ranges;
}

}  // namespace mpct

#pragma once

/// Seeded request streams.  Request i of a stream is a pure function of
/// (seed, i): the program under test only ever sees these generated
/// requests, and the same seed replays the same traffic.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "service/request.hpp"

namespace perfbench {

/// What a request is, for per-class latency figures.
enum class Kind : std::uint8_t { Point, Simulate, Sweep, Curve };
/// Grid size class of sweeps and curves (None for everything else).
enum class Size : std::uint8_t { None, Tiny, Small, Medium, Large };

const char* to_string(Kind kind);
const char* to_string(Size size);

struct Generated {
  mpct::service::Request request;
  Kind kind = Kind::Point;
  Size size = Size::None;
  /// Grid cells of a sweep or curve; 1 for everything else.
  std::uint64_t cells = 1;
  /// Slot in the stream's population, or kUnique for a one-off request.
  std::uint32_t key = kUnique;

  static constexpr std::uint32_t kUnique = UINT32_MAX;
};

struct StreamSource {
  std::string name;
  std::function<Generated(std::uint64_t index)> at;
  /// Streams that draw from a fixed population list it here, so their
  /// reference answers can be computed before timing starts.  Empty for
  /// streams whose every request is new.
  std::vector<Generated> population;
};

/// Point queries (classify from spec and from ADL, cost, recommend)
/// drawn from a 48-request population, so a warm cache answers them.
StreamSource hot_point_stream(std::uint64_t seed);

/// Low-reuse point queries: every classify carries a fresh spec name,
/// every cost and recommend a fresh component count n.
StreamSource fresh_point_stream(std::uint64_t seed);

/// SimulateRequests: stencil5 / reduce / saxpy on seven paradigms, with
/// a fresh input seed per request.
StreamSource simulate_stream(std::uint64_t seed);

/// SweepRequests and FaultSweepRequests with unique keys, from a
/// 4-cell grid up to the 1408-cell sweep grid and 1008-cell curves.
StreamSource grid_stream(std::uint64_t seed);

/// Hash of the first @p count requests (their canonical fingerprints).
std::uint64_t stream_hash(const StreamSource& source, std::uint64_t count);

}  // namespace perfbench

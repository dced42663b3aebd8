#pragma once

#include <cstdint>
#include <string_view>

#include "service/request.hpp"

namespace mpct::qos {

/// Scheduling class of one request.  The wire carries this as the
/// request payload's mandatory last byte; encoders that are not told a
/// class write default_priority(request).
///
/// The taxonomy follows docs/QOS.md: Interactive answers a human who is
/// waiting (classify / recommend / cost / simulate point queries),
/// Batch answers an analysis job that tolerates seconds (sweeps, fault
/// sweeps, degradation curves and their chunk requests), Background is
/// traffic nobody is waiting on (replay soaks, cache warming).
enum class PriorityClass : std::uint8_t {
  Interactive = 0,
  Batch = 1,
  Background = 2,
};

inline constexpr std::size_t kPriorityClassCount = 3;

std::string_view to_string(PriorityClass cls);

/// The class a request belongs to when the client did not say:
/// point queries are Interactive, grid work is Batch.  Background is
/// only ever an explicit client opt-in — no request type defaults to a
/// class the shed ladder drops first.
inline PriorityClass default_priority(service::RequestType type) {
  switch (type) {
    case service::RequestType::Classify:
    case service::RequestType::Recommend:
    case service::RequestType::Cost:
    case service::RequestType::Simulate:
      return PriorityClass::Interactive;
    case service::RequestType::Sweep:
    case service::RequestType::FaultSweep:
    case service::RequestType::SweepChunk:
    case service::RequestType::FaultChunk:
      return PriorityClass::Batch;
  }
  return PriorityClass::Interactive;
}

inline PriorityClass default_priority(const service::Request& request) {
  return default_priority(service::request_type(request));
}

}  // namespace mpct::qos
